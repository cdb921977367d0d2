package fault

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fsys := OS{}
	path := filepath.Join(dir, "sub", "file.json")
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(fsys, path, []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil || string(data) != "payload" {
		t.Fatalf("read back %q, %v", data, err)
	}
	if _, err := fsys.Stat(path); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir(filepath.Dir(path))
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	if err := fsys.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := fsys.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}

// TestInjectorCensusDeterminism: the same operation sequence counts the same
// ops twice, and a census injector (zero plan) never faults.
func TestInjectorCensusDeterminism(t *testing.T) {
	counts := make([]int64, 2)
	for trial := range counts {
		dir := t.TempDir()
		in := NewInjector(OS{}, Plan{})
		for i := 0; i < 3; i++ {
			if err := WriteAtomic(in, filepath.Join(dir, "f.json"), bytes.Repeat([]byte("a"), 64), false); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := in.ReadFile(filepath.Join(dir, "f.json")); err != nil {
			t.Fatal(err)
		}
		counts[trial] = in.Ops()
		if in.Fired() {
			t.Fatal("census injector fired")
		}
	}
	if counts[0] != counts[1] || counts[0] == 0 {
		t.Fatalf("census not deterministic: %v", counts)
	}
}

// TestInjectorCrashSweep: crashing at every op index K of an atomic write
// leaves the destination either absent or holding exactly a previously
// committed value — never a torn file — and all later ops fail ErrCrashed.
func TestInjectorCrashSweep(t *testing.T) {
	// Census pass over one full write to size the sweep.
	census := NewInjector(OS{}, Plan{})
	dir := t.TempDir()
	if err := WriteAtomic(census, filepath.Join(dir, "g.json"), []byte("new"), false); err != nil {
		t.Fatal(err)
	}
	total := census.Ops()
	if total < 5 {
		t.Fatalf("atomic write counted only %d ops", total)
	}

	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "g.json")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		in := NewInjector(OS{}, Plan{Op: k, Kind: KindCrash})
		err := WriteAtomic(in, path, []byte("new"), false)
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at op %d: err = %v", k, err)
		}
		if !in.Fired() {
			t.Fatalf("crash at op %d never fired", k)
		}
		// Post-crash ops on the same injector keep failing.
		if _, err := in.ReadFile(path); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash read: %v", err)
		}
		// The destination is never torn: the rename either committed or not.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("crash at op %d: destination unreadable: %v", k, err)
		}
		if s := string(data); s != "old" && s != "new" {
			t.Fatalf("crash at op %d: destination torn: %q", k, s)
		}
	}
}

// TestInjectorTornWrite: the torn kind commits a strict, seed-deterministic
// prefix of the faulted write.
func TestInjectorTornWrite(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("0123456789"), 10)
	in := NewInjector(OS{}, Plan{Op: 2, Kind: KindTorn, Seed: 37})
	f, err := in.CreateTemp(dir, "t.bin.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(payload)
	f.Close()
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: %v", err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := int(37 % uint64(len(payload)))
	if len(data) != want || !bytes.Equal(data, payload[:want]) {
		t.Fatalf("torn prefix = %d bytes, want %d", len(data), want)
	}
}

// TestInjectorTransientFaults: ENOSPC and EIO fail exactly one op and the
// process lives on.
func TestInjectorTransientFaults(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want error
	}{{KindENOSPC, ErrNoSpace}, {KindEIO, ErrIO}} {
		dir := t.TempDir()
		path := filepath.Join(dir, "sub")
		in := NewInjector(OS{}, Plan{Op: 1, Kind: tc.kind})
		if err := in.MkdirAll(path, 0o755); !errors.Is(err, tc.want) {
			t.Fatalf("%v: first op err = %v", tc.kind, err)
		}
		if err := in.MkdirAll(path, 0o755); err != nil {
			t.Fatalf("%v: op after transient fault failed: %v", tc.kind, err)
		}
	}
}

// TestInjectorBitFlip: the planned read returns data off by exactly one bit,
// deterministically in the seed, and only ReadFile ops count for the plan.
func TestInjectorBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	payload := bytes.Repeat([]byte{0xAA}, 32)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(OS{}, Plan{Op: 2, Kind: KindBitFlip, Seed: 7<<32 | 13})
	// Non-read ops must not consume the bit-flip counter.
	if _, err := in.Stat(path); err != nil {
		t.Fatal(err)
	}
	first, err := in.ReadFile(path)
	if err != nil || !bytes.Equal(first, payload) {
		t.Fatalf("read 1 should be clean: %v", err)
	}
	second, err := in.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range second {
		if second[i] != payload[i] {
			diff++
			if second[i]^payload[i] != 1<<7 || i != 13 {
				t.Fatalf("flip at byte %d xor %x, want bit 7 of byte 13", i, second[i]^payload[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	// The underlying file is untouched: the flip models a read-path error.
	disk, _ := os.ReadFile(path)
	if !bytes.Equal(disk, payload) {
		t.Fatal("bit flip corrupted the file on disk")
	}
	if got, err := in.ReadFile(path); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read 3 should be clean again: %v", err)
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock(time.Unix(1000, 0))
	if got := c.Now(); !got.Equal(time.Unix(1000, 0)) {
		t.Fatalf("now = %v", got)
	}
	ch := c.After(5 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired before advance")
	default:
	}
	if c.Waiters() != 1 {
		t.Fatalf("waiters = %d", c.Waiters())
	}
	c.Advance(3 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	c.Advance(2 * time.Second)
	select {
	case at := <-ch:
		if !at.Equal(time.Unix(1005, 0)) {
			t.Fatalf("fired at %v", at)
		}
	case <-time.After(time.Second):
		t.Fatal("never fired")
	}
	// Sleep synchronises with Advance from another goroutine.
	done := make(chan struct{})
	go func() {
		c.Sleep(time.Second)
		close(done)
	}()
	for c.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleep never woke")
	}
	// Non-positive durations fire immediately.
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}
