package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"creditbus/internal/fault"
)

// snapshot returns an aggregate's canonical persistence bytes for
// exact-state comparison.
func snapshot(t *testing.T, a *Agg) []byte {
	t.Helper()
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// crashStates builds the two successive checkpoint states the crash sweep
// arbitrates between: A after the first chunk, B after the second.
func crashStates(t *testing.T, c *Campaign) (a, b *Agg, aBytes, bBytes []byte) {
	t.Helper()
	r := &Runner{Campaign: c, Workers: 1}
	p, err := r.newPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	agg, err := NewAgg(0, c.Block())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.runChunk(context.Background(), p, agg, 15); err != nil {
		t.Fatal(err)
	}
	aBytes = snapshot(t, agg)
	a = new(Agg)
	if err := json.Unmarshal(aBytes, a); err != nil {
		t.Fatal(err)
	}
	if err := r.runChunk(context.Background(), p, agg, 15); err != nil {
		t.Fatal(err)
	}
	return a, agg, aBytes, snapshot(t, agg)
}

// seedCommitted creates a store directory whose shard 0 holds committed
// state A.
func seedCommitted(t *testing.T, c *Campaign, a *Agg) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ckpt")
	st, err := Open(dir, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveShard(0, a); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStoreCrashPointSweep crashes (and tears) the [open + SaveShard(B)]
// sequence at every filesystem operation, over a store already holding
// committed state A, and asserts recovery loads exactly the last committed
// state: A for every crash up to and including the commit rename, B for
// every crash after it. This is the satellite crash-sweep for the atomic
// temp+fsync+rotate+rename store: crash after temp write, before rename,
// after rename — every window, mechanically.
func TestStoreCrashPointSweep(t *testing.T) {
	c := testCampaign(t, 30, 1, 5)
	_, b, aBytes, bBytes := crashStates(t, c)

	// Census pass: count the ops of open + second save, and find the commit
	// point — the last rename in the sequence (temp → primary).
	census := fault.NewInjector(fault.OS{}, fault.Plan{})
	var commit int64
	census.Log = func(n int64, op fault.Op, path string) {
		if op == fault.OpRename && strings.Contains(path, ".tmp-") {
			commit = n
		}
	}
	{
		dir := seedCommitted(t, c, mustUnmarshalAgg(t, aBytes))
		st, err := OpenWith(dir, c.Manifest(), StoreOptions{FS: census})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveShard(0, b); err != nil {
			t.Fatal(err)
		}
	}
	total := census.Ops()
	if total < 8 || commit == 0 {
		t.Fatalf("census: %d ops, commit at %d", total, commit)
	}

	for _, kind := range []fault.Kind{fault.KindCrash, fault.KindTorn} {
		for k := int64(1); k <= total; k++ {
			dir := seedCommitted(t, c, mustUnmarshalAgg(t, aBytes))
			in := fault.NewInjector(fault.OS{}, fault.Plan{Op: k, Kind: kind, Seed: uint64(k) * 0x9e3779b9})
			st, err := OpenWith(dir, c.Manifest(), StoreOptions{FS: in})
			if err == nil {
				err = st.SaveShard(0, b)
			}
			if !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("%v at op %d: err = %v", kind, k, err)
			}
			// Recovery: a clean re-open must load exactly the last committed
			// state — A before the commit rename executed, B after.
			rst, err := Open(dir, c.Manifest())
			if err != nil {
				t.Fatalf("%v at op %d: reopen: %v", kind, k, err)
			}
			got, ok, err := rst.LoadShard(0)
			if err != nil || !ok {
				t.Fatalf("%v at op %d: recovery load: ok=%v err=%v", kind, k, ok, err)
			}
			want := aBytes
			if k > commit {
				want = bBytes
			}
			if gotBytes := snapshot(t, got); string(gotBytes) != string(want) {
				t.Fatalf("%v at op %d (commit %d): recovered neither-old-nor-new state:\n%s", kind, k, commit, gotBytes)
			}
			// And the interrupted save must be cleanly repeatable.
			if err := rst.SaveShard(0, b); err != nil {
				t.Fatalf("%v at op %d: re-save after recovery: %v", kind, k, err)
			}
			if got, ok, err := rst.LoadShard(0); err != nil || !ok || string(snapshot(t, got)) != string(bBytes) {
				t.Fatalf("%v at op %d: re-save did not converge to B (ok=%v err=%v)", kind, k, ok, err)
			}
		}
	}
}

func mustUnmarshalAgg(t *testing.T, data []byte) *Agg {
	t.Helper()
	a := new(Agg)
	if err := json.Unmarshal(data, a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestLoadShardQuarantinesCorrupt scribbles over a committed checkpoint and
// asserts the store detects it, renames it aside, reports it, and never
// returns the corrupt state.
func TestLoadShardQuarantinesCorrupt(t *testing.T) {
	c := testCampaign(t, 30, 1, 5)
	_, b, _, bBytes := crashStates(t, c)
	dir := seedCommitted(t, c, b)
	path := filepath.Join(dir, "shard-0000.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var quars []string
	st, err := OpenWith(dir, c.Manifest(), StoreOptions{
		OnQuarantine: func(p, reason string) { quars = append(quars, p+": "+reason) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LoadShard(0); ok || err != nil {
		t.Fatalf("corrupt shard with no backup: ok=%v err=%v", ok, err)
	}
	if len(quars) != 1 || !strings.Contains(quars[0], path) {
		t.Fatalf("quarantine observer saw %v", quars)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	if _, err := os.Stat(path + ".quarantine-0"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The slot is reusable and a second corruption gets the next index.
	if err := st.SaveShard(0, b); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.LoadShard(0); err != nil || !ok || string(snapshot(t, got)) != string(bBytes) {
		t.Fatalf("save after quarantine: ok=%v err=%v", ok, err)
	}
}

// TestLoadShardVersionMismatch rewrites a valid checkpoint's payload with a
// foreign schema version (sum recomputed, so integrity passes) and asserts
// the typed ErrCheckpointVersion — with the file left in place for
// migration, not quarantined, and never merged as a zero value.
func TestLoadShardVersionMismatch(t *testing.T) {
	c := testCampaign(t, 30, 1, 5)
	_, b, _, _ := crashStates(t, c)
	dir := seedCommitted(t, c, b)
	path := filepath.Join(dir, "shard-0000.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := unseal("checkpoint", checkpointSumDomain, data)
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Version = CheckpointVersion + 1
	payload, err = json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	out, err := seal("checkpoint", checkpointSumDomain, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := st.LoadShard(0)
	if ok || !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("future-version checkpoint: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("version-mismatched file must stay in place: %v", err)
	}
}

// TestOldFormatCheckpointNotMerged plants a PR-8-era checkpoint (raw
// aggregate JSON, no envelope) and asserts it is treated as corrupt —
// quarantined, never merged — rather than parsed as a zero-value envelope.
func TestOldFormatCheckpointNotMerged(t *testing.T) {
	c := testCampaign(t, 30, 1, 5)
	_, b, _, _ := crashStates(t, c)
	dir := filepath.Join(t.TempDir(), "ckpt")
	st, err := Open(dir, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-0000.json")
	if err := os.WriteFile(path, snapshot(t, b), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LoadShard(0); ok || err != nil {
		t.Fatalf("old-format checkpoint: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(path + ".quarantine-0"); err != nil {
		t.Fatalf("old-format file not quarantined: %v", err)
	}
}

// TestOpenQuarantinesCorruptManifest corrupts manifest.json and asserts
// OpenWith quarantines it and re-initialises, leaving the store usable.
func TestOpenQuarantinesCorruptManifest(t *testing.T) {
	c := testCampaign(t, 30, 1, 5)
	_, b, _, bBytes := crashStates(t, c)
	dir := seedCommitted(t, c, b)
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var quars int
	st, err := OpenWith(dir, c.Manifest(), StoreOptions{
		OnQuarantine: func(string, string) { quars++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if quars != 1 {
		t.Fatalf("quarantines = %d", quars)
	}
	if _, err := os.Stat(path + ".quarantine-0"); err != nil {
		t.Fatalf("quarantined manifest missing: %v", err)
	}
	// The rebuilt manifest verifies, and the shard checkpoint (which carries
	// its own campaign identity) is still loadable.
	if got, ok, err := st.LoadShard(0); err != nil || !ok || string(snapshot(t, got)) != string(bBytes) {
		t.Fatalf("after manifest rebuild: ok=%v err=%v", ok, err)
	}
	if _, err := Open(dir, c.Manifest()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRefusesForeignCampaign copies a valid checkpoint file into
// another campaign's store directory and asserts the campaign-identity
// field blocks the merge.
func TestCheckpointRefusesForeignCampaign(t *testing.T) {
	c1 := testCampaign(t, 30, 1, 5)
	_, b, _, _ := crashStates(t, c1)
	src := seedCommitted(t, c1, b)

	c2 := testCampaign(t, 35, 1, 5)
	dir := filepath.Join(t.TempDir(), "ckpt2")
	st, err := Open(dir, c2.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, "shard-0000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LoadShard(0); ok || err != nil {
		t.Fatalf("foreign checkpoint: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.json.quarantine-0")); err != nil {
		t.Fatalf("foreign checkpoint not quarantined: %v", err)
	}
}
