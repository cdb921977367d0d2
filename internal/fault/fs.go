// Package fault is the deterministic fault-injection layer under the
// platform's durability and timeout paths. It has two halves:
//
//   - FS, a narrow filesystem interface covering every operation the
//     checkpoint store and job store perform (read, temp file, rename,
//     remove, readdir, stat, directory sync), with OS as the passthrough
//     implementation and Injector as a seeded wrapper that injects
//     crash-at-op-K, torn writes, ENOSPC, EIO and bit-flips on read at
//     exact, reproducible operation counts. On top of it sit the two
//     durability primitives every persisted file goes through: WriteAtomic
//     (temp+fsync+rename, optionally keeping the previous generation as
//     .bak) and Quarantine (rename a corrupt file or directory aside);
//
//   - Clock, an injectable time source (now / sleep / after) with WallClock
//     as the real implementation and FakeClock as a manually-advanced test
//     clock, so deadline and backoff paths are testable without real time.
//
// The point of determinism: a chaos campaign that sweeps "fault at op K" for
// every K in the store's operation sequence visits every crash window the
// code has, and a failure at (kind, K, seed) replays exactly. DESIGN.md §14
// documents the failure model this layer exists to prove.
package fault

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable-file surface the atomic write path needs: write,
// fsync, close, and the temp file's name for the final rename.
type File interface {
	Write(p []byte) (n int, err error)
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	Close() error
	// Name returns the file's path, as os.File.Name does.
	Name() string
}

// FS is the filesystem surface of the checkpoint and job stores. Every
// durability-relevant operation flows through it, so an Injector wrapping an
// FS sees — and can fault — the complete operation sequence.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(path string) ([]byte, error)
	// CreateTemp creates a new temp file in dir (pattern as os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
	ReadDir(path string) ([]fs.DirEntry, error)
	Stat(path string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory, making a completed rename durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS: the real filesystem via package os.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(path string) error { return os.Remove(path) }

func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (OS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

func (OS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteAtomic replaces path with data so that a crash at any instant leaves
// a complete file at path, never a torn one: the data goes to a temp file
// in path's directory, which is written, fsynced and closed; with
// keepPrevious the current file (if any) is renamed to path+".bak"; the
// temp file is renamed over path; and the directory is fsynced. Without
// keepPrevious, path holds the old or the new content at every instant.
// With it, the old generation stays reachable as .bak in the window between
// the two renames — the fallback a checkpoint reader uses.
func WriteAtomic(fsys FS, path string, data []byte, keepPrevious bool) error {
	dir, base := filepath.Split(path)
	tmp, err := fsys.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	name := tmp.Name()
	fail := func(err error) error {
		_ = fsys.Remove(name)
		return fmt.Errorf("write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if keepPrevious {
		if _, err := fsys.Stat(path); err == nil {
			if err := fsys.Rename(path, path+".bak"); err != nil {
				return fail(err)
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			return fail(err)
		}
	}
	if err := fsys.Rename(name, path); err != nil {
		return fail(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	return nil
}

// Quarantine renames a corrupt file or directory aside to
// path.quarantine-N (the first free N) and fsyncs the parent directory,
// keeping the evidence while guaranteeing it is never read as state again.
// It returns the new name.
func Quarantine(fsys FS, path string) (string, error) {
	for n := 0; ; n++ {
		dst := fmt.Sprintf("%s.quarantine-%d", path, n)
		_, err := fsys.Stat(dst)
		if err == nil {
			continue
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return "", fmt.Errorf("quarantine %s: %w", path, err)
		}
		if err := fsys.Rename(path, dst); err != nil {
			return "", fmt.Errorf("quarantine %s: %w", path, err)
		}
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return "", fmt.Errorf("quarantine %s: %w", path, err)
		}
		return dst, nil
	}
}
