package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"creditbus/internal/scenario"
	"creditbus/internal/sim"
)

// fastSpec is a minimal-cost scenario (two cores, isolation, a tiny
// traced workload) so differential suites can afford thousands of units.
func fastSpec(name string, runs int) scenario.Spec {
	return scenario.Spec{
		Name:      name,
		Cores:     2,
		Run:       scenario.RunIsolation,
		Workloads: []scenario.Workload{{Core: 0, Name: "canrdr", Ops: 8}},
		Seeds:     scenario.Seeds{Base: 1, Runs: runs},
	}
}

// testCampaign builds a two-scenario campaign with deliberately unequal
// seed schedules, so the cumulative unit mapping is exercised.
func testCampaign(t *testing.T, units int64, shards, block int) *Campaign {
	t.Helper()
	a := int(units) * 2 / 3
	spec := CampaignSpec{
		Name:      "shard-test",
		Scenarios: []scenario.Spec{fastSpec("shard-a", a), fastSpec("shard-b", int(units)-a)},
		Shards:    shards,
		Block:     block,
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Units() != units {
		t.Fatalf("campaign has %d units, want %d", c.Units(), units)
	}
	return c
}

func TestPlanRanges(t *testing.T) {
	for _, tc := range []struct {
		units  int64
		shards int
	}{
		{0, 1}, {1, 1}, {10, 1}, {10, 2}, {10, 3}, {10, 8}, {3, 8}, {1000003, 7},
	} {
		p, err := NewPlan(tc.units, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		var prev int64
		for i := 0; i < tc.shards; i++ {
			lo, hi, err := p.Range(i)
			if err != nil {
				t.Fatal(err)
			}
			if lo != prev || hi < lo {
				t.Fatalf("plan %+v: shard %d = [%d,%d) does not tile (prev end %d)", p, i, lo, hi, prev)
			}
			if size := hi - lo; size < tc.units/int64(tc.shards) || size > tc.units/int64(tc.shards)+1 {
				t.Fatalf("plan %+v: shard %d size %d is unbalanced", p, i, size)
			}
			prev = hi
		}
		if prev != tc.units {
			t.Fatalf("plan %+v: shards end at %d, want %d", p, prev, tc.units)
		}
	}
	if _, err := NewPlan(-1, 2); err == nil {
		t.Fatal("negative units must fail")
	}
	if _, err := NewPlan(10, 0); err == nil {
		t.Fatal("zero shards must fail")
	}
	p, _ := NewPlan(10, 2)
	if _, _, err := p.Range(2); err == nil {
		t.Fatal("out-of-range shard must fail")
	}
}

func TestCampaignUnitMapping(t *testing.T) {
	c := testCampaign(t, 30, 1, 5)
	// Scenario a holds units [0,20), scenario b [20,30).
	for _, tc := range []struct {
		u    int64
		scen int
		seed uint64
	}{
		{0, 0, c.Scenarios[0].Seeds[0]},
		{19, 0, c.Scenarios[0].Seeds[19]},
		{20, 1, c.Scenarios[1].Seeds[0]},
		{29, 1, c.Scenarios[1].Seeds[9]},
	} {
		scen, seed, err := c.Unit(tc.u)
		if err != nil {
			t.Fatal(err)
		}
		if scen != tc.scen || seed != tc.seed {
			t.Fatalf("Unit(%d) = (%d, %d), want (%d, %d)", tc.u, scen, seed, tc.scen, tc.seed)
		}
	}
	if _, _, err := c.Unit(30); err == nil {
		t.Fatal("out-of-range unit must fail")
	}
	if _, _, err := c.Unit(-1); err == nil {
		t.Fatal("negative unit must fail")
	}
}

// TestDigestIdentity: the digest covers the computation (scenarios, seeds,
// block) and nothing else (name, shard count) — the property that lets
// K ∈ {1, 2, 8} share one checkpoint identity.
func TestDigestIdentity(t *testing.T) {
	base := CampaignSpec{Name: "x", Scenarios: []scenario.Spec{fastSpec("s", 10)}}
	d0, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	relabeled := base
	relabeled.Name = "y"
	relabeled.Shards = 8
	if d, _ := relabeled.Digest(); d != d0 {
		t.Fatal("name/shards must not enter the digest")
	}
	blocked := base
	blocked.Block = 7
	if d, _ := blocked.Digest(); d == d0 {
		t.Fatal("block size must enter the digest")
	}
	reseeded := base
	reseeded.Seeds = &scenario.Seeds{Base: 2, Runs: 10}
	if d, _ := reseeded.Digest(); d == d0 {
		t.Fatal("seed override must enter the digest")
	}
	grown := base
	grown.Scenarios = []scenario.Spec{fastSpec("s", 11)}
	if d, _ := grown.Digest(); d == d0 {
		t.Fatal("scenario set must enter the digest")
	}
}

func TestCompileRejections(t *testing.T) {
	if _, err := (CampaignSpec{}).Compile(); err == nil {
		t.Fatal("empty campaign must fail")
	}
	dup := CampaignSpec{Scenarios: []scenario.Spec{fastSpec("s", 2), fastSpec("s", 3)}}
	if _, err := dup.Compile(); err == nil {
		t.Fatal("duplicate scenario names must fail")
	}
	bad := CampaignSpec{Scenarios: []scenario.Spec{{Name: "bad", Run: "nope"}}}
	if _, err := bad.Compile(); err == nil {
		t.Fatal("invalid scenario must fail")
	}
}

// referenceBytes runs the single-process reference and returns the
// canonical report bytes every sharded path must reproduce.
func referenceBytes(t *testing.T, c *Campaign) []byte {
	t.Helper()
	rep, err := Reference(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardedByteIdentity is the tentpole differential: K ∈ {1, 2, 8}
// shards, each executed by its own Runner against a shared checkpoint
// store (as K separate processes would), merge to the byte-identical
// report of the single-process reference.
func TestShardedByteIdentity(t *testing.T) {
	const units = 600
	want := referenceBytes(t, testCampaign(t, units, 1, 20))
	for _, k := range []int{1, 2, 8} {
		c := testCampaign(t, units, k, 20)
		st, err := Open(filepath.Join(t.TempDir(), "ckpt"), c.Manifest())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			// A fresh Runner per shard, as a separate worker process would be.
			r := &Runner{Campaign: c, Store: st, Workers: 2, CheckpointEvery: 64}
			agg, complete, err := r.RunShard(i)
			if err != nil {
				t.Fatalf("K=%d shard %d: %v", k, i, err)
			}
			if !complete {
				t.Fatalf("K=%d shard %d incomplete without a budget", k, i)
			}
			lo, hi, _ := c.Plan.Range(i)
			if agg.Lo != lo || agg.N != hi-lo {
				t.Fatalf("K=%d shard %d covers [%d,+%d), want [%d,%d)", k, i, agg.Lo, agg.N, lo, hi)
			}
		}
		rep, err := MergeStore(c, st)
		if err != nil {
			t.Fatalf("K=%d merge: %v", k, err)
		}
		got, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("K=%d merged report diverges from the single-process reference:\n%s\nvs\n%s", k, got, want)
		}
	}
}

// TestKillAndResume stops a shard mid-range (budgeted stop — the in-process
// stand-in for SIGKILL between checkpoints; the CLI suite kills real
// processes), restarts it from the checkpoint, and demands the merged
// report stay byte-identical to the reference.
func TestKillAndResume(t *testing.T) {
	const units = 600
	want := referenceBytes(t, testCampaign(t, units, 1, 20))
	c := testCampaign(t, units, 2, 20)
	st, err := Open(filepath.Join(t.TempDir(), "ckpt"), c.Manifest())
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0 "dies" after 128 of its 300 units (two checkpoints in).
	r := &Runner{Campaign: c, Store: st, Workers: 2, CheckpointEvery: 64, MaxUnits: 128}
	agg, complete, err := r.RunShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if complete || agg.N != 128 {
		t.Fatalf("budgeted shard: complete=%v after %d units, want incomplete at 128", complete, agg.N)
	}
	if _, err := MergeStore(c, st); err == nil {
		t.Fatal("merge must refuse an incomplete campaign")
	}

	// Restart: a fresh Runner (fresh process) resumes from the checkpoint
	// and a progress observer must see it continue past 128, not restart.
	var first int64 = -1
	r2 := &Runner{Campaign: c, Store: st, Workers: 2, CheckpointEvery: 64,
		Progress: func(done, total int64) {
			if first < 0 {
				first = done
			}
		}}
	if _, complete, err = r2.RunShard(0); err != nil || !complete {
		t.Fatalf("resume: complete=%v err=%v", complete, err)
	}
	if first <= 128 {
		t.Fatalf("resume re-ran units: first progress report at %d", first)
	}
	if _, complete, err = (&Runner{Campaign: c, Store: st, Workers: 2}).RunShard(1); err != nil || !complete {
		t.Fatalf("shard 1: complete=%v err=%v", complete, err)
	}

	rep, err := MergeStore(c, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("kill-and-resume report diverges from the reference:\n%s\nvs\n%s", got, want)
	}
}

// TestAggMergeRandomPartitions is merge ≡ collect-then-fit at the aggregate
// level: record one campaign's per-unit results, then fold them under
// random contiguous partitions with random merge bracketing and demand the
// exact state (and therefore the report) of the sequential fold.
func TestAggMergeRandomPartitions(t *testing.T) {
	c := testCampaign(t, 90, 1, 7)
	results := make([]sim.Result, c.Units())
	ref, err := NewAgg(0, c.Block())
	if err != nil {
		t.Fatal(err)
	}
	var w scenario.Worker
	for u := int64(0); u < c.Units(); u++ {
		scen, seed, err := c.Unit(u)
		if err != nil {
			t.Fatal(err)
		}
		if results[u], err = c.Scenarios[scen].RunOn(&w, seed, "", nil); err != nil {
			t.Fatal(err)
		}
		ref.Add(results[u])
	}

	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		k := 1 + r.Intn(9)
		cuts := map[int64]bool{}
		for len(cuts) < k-1 {
			cuts[1+int64(r.Intn(int(c.Units())-1))] = true
		}
		bounds := []int64{0}
		for b := int64(1); b < c.Units(); b++ {
			if cuts[b] {
				bounds = append(bounds, b)
			}
		}
		bounds = append(bounds, c.Units())
		parts := make([]*Agg, 0, k)
		for i := 0; i+1 < len(bounds); i++ {
			a, err := NewAgg(bounds[i], c.Block())
			if err != nil {
				t.Fatal(err)
			}
			for u := bounds[i]; u < bounds[i+1]; u++ {
				a.Add(results[u])
			}
			parts = append(parts, a)
		}
		for len(parts) > 1 { // random bracketing of adjacent merges
			i := r.Intn(len(parts) - 1)
			if err := parts[i].Merge(parts[i+1]); err != nil {
				t.Fatal(err)
			}
			parts = append(parts[:i+1], parts[i+2:]...)
		}
		got := parts[0]
		if got.N != ref.N || got.TaskCycles != ref.TaskCycles || got.WallCycles != ref.WallCycles ||
			got.BusHeld != ref.BusHeld || got.BusWait != ref.BusWait ||
			!bytes.Equal(got.Digests, ref.Digests) ||
			!reflect.DeepEqual(got.Max.Maxima, ref.Max.Maxima) {
			t.Fatalf("trial %d (k=%d): merged aggregate diverges from sequential fold", trial, k)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	c := testCampaign(t, 30, 2, 5)
	dir := filepath.Join(t.TempDir(), "ckpt")
	st, err := Open(dir, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LoadShard(0); ok || err != nil {
		t.Fatalf("fresh store: ok=%v err=%v", ok, err)
	}
	agg, _, err := (&Runner{Campaign: c, Store: st, Workers: 1}).RunShard(0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok, err := st.LoadShard(0)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	// Equality up to JSON canonical form: a non-nil empty Tail marshals
	// the same as nil, and the persistence contract is the encoded state.
	la, _ := json.Marshal(loaded)
	aa, _ := json.Marshal(agg)
	if !bytes.Equal(la, aa) {
		t.Fatalf("checkpoint round-trip diverges:\n%s\nvs\n%s", la, aa)
	}
	// Re-open with the same manifest succeeds; a different campaign fails.
	if _, err := Open(dir, c.Manifest()); err != nil {
		t.Fatal(err)
	}
	other := c.Manifest()
	other.Campaign = "deadbeef"
	if _, err := Open(dir, other); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("manifest mismatch must fail with ErrManifestMismatch, got %v", err)
	}
	if err := st.SaveShard(5, agg); err == nil {
		t.Fatal("out-of-range save must fail")
	}
	if _, _, err := st.LoadShard(-1); err == nil {
		t.Fatal("out-of-range load must fail")
	}
}

// TestResultDigestSensitivity flips every field of a result and demands the
// digest move — the blindness bound of the byte-identity gate.
func TestResultDigestSensitivity(t *testing.T) {
	c := testCampaign(t, 3, 1, 1)
	scen, seed, _ := c.Unit(0)
	base, err := c.Scenarios[scen].RunOn(new(scenario.Worker), seed, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	d0 := ResultDigest(base)
	if ResultDigest(base) != d0 {
		t.Fatal("digest is not deterministic")
	}
	mutations := []func(*sim.Result){
		func(r *sim.Result) { r.TaskCycles++ },
		func(r *sim.Result) { r.WallCycles++ },
		func(r *sim.Result) { r.CPU.StallCycles++ },
		func(r *sim.Result) { r.Bus.MaxWait++ },
		func(r *sim.Result) { r.Utilisation += 1e-9 },
		func(r *sim.Result) { r.L2HitRate += 1e-9 },
		func(r *sim.Result) {
			for k := range r.MemCounts {
				r.MemCounts[k]++
				break
			}
		},
	}
	for i, mutate := range mutations {
		cp := base
		mutate(&cp)
		if ResultDigest(cp) == d0 {
			t.Fatalf("mutation %d did not move the digest", i)
		}
	}
}
