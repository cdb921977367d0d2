package fault

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// Injected fault sentinels. Callers classify with errors.Is; every injected
// error chain ends in one of these.
var (
	// ErrCrashed — the simulated process died at the planned operation.
	// Every operation at and after the crash point fails with it, modelling
	// a process that no longer exists: the test harness treats the first
	// ErrCrashed as the kill and re-runs against a clean FS to model the
	// restarted process.
	ErrCrashed = errors.New("fault: crashed (injected)")
	// ErrNoSpace — the planned operation failed as ENOSPC would.
	ErrNoSpace = errors.New("fault: no space left on device (injected)")
	// ErrIO — the planned operation failed as EIO would.
	ErrIO = errors.New("fault: input/output error (injected)")
)

// Op classifies a filesystem operation for fault placement and logs.
type Op uint8

// Operation classes, one per FS/File method.
const (
	OpMkdirAll Op = iota
	OpReadFile
	OpCreateTemp
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpRemoveAll
	OpReadDir
	OpStat
	OpSyncDir
)

var opNames = [...]string{
	"mkdirall", "readfile", "createtemp", "write", "sync",
	"close", "rename", "remove", "removeall", "readdir", "stat", "syncdir",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind is an injected fault kind.
type Kind uint8

const (
	// KindNone — count operations without injecting (the census pass a
	// sweep uses to learn the operation sequence length).
	KindNone Kind = iota
	// KindCrash — the planned operation has no effect and fails with
	// ErrCrashed, as do all later operations: the process died immediately
	// before the operation committed. Crash *after* operation K is the same
	// machine state as crash before K+1, so a sweep over every K covers
	// both sides of every operation.
	KindCrash
	// KindTorn — like KindCrash, but a File.Write first commits a
	// seed-chosen strict prefix of its data: the torn-write window of a
	// crash mid-write. On other operations it degenerates to KindCrash.
	KindTorn
	// KindENOSPC — the planned operation fails with ErrNoSpace; the process
	// lives on and later operations succeed (space was freed).
	KindENOSPC
	// KindEIO — the planned operation fails with ErrIO; the process lives
	// on.
	KindEIO
	// KindBitFlip — the planned *read* (Op counts only ReadFile calls for
	// this kind) succeeds but returns data with one seed-chosen bit
	// flipped: silent media corruption, the case integrity hashes exist
	// for.
	KindBitFlip
)

var kindNames = [...]string{"none", "crash", "torn", "enospc", "eio", "bitflip"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Plan places one fault: fault Kind fires at the Op-th counted operation
// (1-based; for KindBitFlip only ReadFile operations count). Seed picks the
// torn-write length or the flipped bit deterministically. Op 0 (or
// KindNone) never fires — the census configuration.
type Plan struct {
	Op   int64
	Kind Kind
	Seed uint64
}

// Injector wraps an FS, counts every operation, and injects the planned
// fault at its exact operation index. All decisions are pure functions of
// (Plan, operation sequence), so a run against a deterministic workload is
// bit-reproducible. An Injector is safe for concurrent use; operation
// indices are then scheduling-dependent, so deterministic sweeps should
// drive it from one goroutine (the checkpoint store does).
type Injector struct {
	fs   FS
	plan Plan

	mu      sync.Mutex
	n       int64 // all operations
	reads   int64 // ReadFile operations (KindBitFlip's counter)
	crashed bool
	fired   bool
	// Log, when non-nil, observes every operation (before fault
	// evaluation). Set it before use; it must not call back into the
	// Injector.
	Log func(n int64, op Op, path string)
}

// NewInjector wraps fsys with the planned fault.
func NewInjector(fsys FS, plan Plan) *Injector {
	return &Injector{fs: fsys, plan: plan}
}

// Ops reports the number of operations counted so far — a census run's
// result sizes a sweep.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// Reads reports the number of ReadFile operations counted so far (the
// KindBitFlip sweep axis).
func (in *Injector) Reads() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.reads
}

// Fired reports whether the planned fault has been injected.
func (in *Injector) Fired() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// op counts one operation and decides the fault. It returns (inject, err):
// err non-nil fails the operation; inject true with nil err asks the caller
// to apply a data-mangling fault (torn write, bit flip) itself.
func (in *Injector) op(op Op, path string) (inject bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return false, fmt.Errorf("fault: %s %s: %w", op, path, ErrCrashed)
	}
	in.n++
	if op == OpReadFile {
		in.reads++
	}
	if in.Log != nil {
		in.Log(in.n, op, path)
	}
	at := in.n
	if in.plan.Kind == KindBitFlip {
		at = in.reads
		if op != OpReadFile {
			return false, nil
		}
	}
	if in.plan.Op == 0 || at != in.plan.Op || in.fired {
		return false, nil
	}
	switch in.plan.Kind {
	case KindCrash:
		in.fired, in.crashed = true, true
		return false, fmt.Errorf("fault: %s %s: %w", op, path, ErrCrashed)
	case KindTorn:
		in.fired, in.crashed = true, true
		if op == OpWrite {
			return true, nil // caller writes the torn prefix, then crashes
		}
		return false, fmt.Errorf("fault: %s %s: %w", op, path, ErrCrashed)
	case KindENOSPC:
		in.fired = true
		return false, fmt.Errorf("fault: %s %s: %w", op, path, ErrNoSpace)
	case KindEIO:
		in.fired = true
		return false, fmt.Errorf("fault: %s %s: %w", op, path, ErrIO)
	case KindBitFlip:
		in.fired = true
		return true, nil
	}
	return false, nil
}

// tornLen picks the committed prefix length for a torn write: a strict
// prefix (possibly empty), never the full write.
func (in *Injector) tornLen(n int) int {
	if n == 0 {
		return 0
	}
	return int(in.plan.Seed % uint64(n))
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if _, err := in.op(OpMkdirAll, path); err != nil {
		return err
	}
	return in.fs.MkdirAll(path, perm)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	flip, err := in.op(OpReadFile, path)
	if err != nil {
		return nil, err
	}
	data, err := in.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if flip && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[in.plan.Seed%uint64(len(data))] ^= 1 << ((in.plan.Seed >> 32) % 8)
	}
	return data, nil
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if _, err := in.op(OpCreateTemp, dir); err != nil {
		return nil, err
	}
	f, err := in.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if _, err := in.op(OpRename, oldpath); err != nil {
		return err
	}
	return in.fs.Rename(oldpath, newpath)
}

func (in *Injector) Remove(path string) error {
	if _, err := in.op(OpRemove, path); err != nil {
		return err
	}
	return in.fs.Remove(path)
}

func (in *Injector) RemoveAll(path string) error {
	if _, err := in.op(OpRemoveAll, path); err != nil {
		return err
	}
	return in.fs.RemoveAll(path)
}

func (in *Injector) ReadDir(path string) ([]fs.DirEntry, error) {
	if _, err := in.op(OpReadDir, path); err != nil {
		return nil, err
	}
	return in.fs.ReadDir(path)
}

func (in *Injector) Stat(path string) (fs.FileInfo, error) {
	if _, err := in.op(OpStat, path); err != nil {
		return nil, err
	}
	return in.fs.Stat(path)
}

func (in *Injector) SyncDir(dir string) error {
	if _, err := in.op(OpSyncDir, dir); err != nil {
		return err
	}
	return in.fs.SyncDir(dir)
}

// injFile threads a temp file's write/sync/close operations through the
// injector, so the torn-temp-write and crash-before-fsync windows are
// sweepable like any other operation.
type injFile struct {
	in *Injector
	f  File
}

func (w *injFile) Write(p []byte) (int, error) {
	torn, err := w.in.op(OpWrite, w.f.Name())
	if err != nil {
		return 0, err
	}
	if torn {
		n := w.in.tornLen(len(p))
		_, _ = w.f.Write(p[:n])
		return n, fmt.Errorf("fault: torn write %s: %w", w.f.Name(), ErrCrashed)
	}
	return w.f.Write(p)
}

func (w *injFile) Sync() error {
	if _, err := w.in.op(OpSync, w.f.Name()); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *injFile) Close() error {
	if _, err := w.in.op(OpClose, w.f.Name()); err != nil {
		// A crashed process's open files are gone; close the real handle so
		// sweeps don't leak file descriptors.
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

func (w *injFile) Name() string { return w.f.Name() }
