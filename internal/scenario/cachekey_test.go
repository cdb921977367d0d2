package scenario

import (
	"reflect"
	"testing"

	"creditbus/internal/sim"
)

// TestCacheKeySemantics: the key is blind to labels and the seed schedule
// but sensitive to every compiled-config field — the soundness condition for
// using it as a content address.
func TestCacheKeySemantics(t *testing.T) {
	base := validSpec()
	key, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 64 {
		t.Fatalf("key %q is not hex SHA-256", key)
	}

	// Label-only changes keep the key: renaming or re-describing a scenario
	// must hit the same cached results.
	same := []func(*Spec){
		func(s *Spec) { s.Name = "renamed-scenario" },
		func(s *Spec) { s.Description = "entirely new words" },
		func(s *Spec) { s.Seeds = Seeds{List: []uint64{99, 100}} },
		func(s *Spec) { s.Seeds = Seeds{Base: 1, Runs: 7} },
	}
	for i, mut := range same {
		s := validSpec()
		mut(&s)
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if k != key {
			t.Fatalf("label/schedule mutation %d changed the cache key", i)
		}
	}

	// Every semantic change must move the key.
	diff := []func(*Spec){
		func(s *Spec) { s.Cores = 8 },
		func(s *Spec) { s.Policy = "FIFO" },
		func(s *Spec) { s.Credit = &Credit{Kind: "cba"} },
		func(s *Spec) { s.Run = RunIsolation },
		func(s *Spec) { s.Engine = EnginePerCycle },
		func(s *Spec) { s.TuA = intp(0) },
		func(s *Spec) { s.Platform = &Platform{MemLatency: 40} },
		func(s *Spec) { s.Workloads[0].Name = "canrdr" },
		func(s *Spec) { s.Workloads[0].Ops = 100 },
		func(s *Spec) { s.Workloads[0].Seed = 9 },
	}
	seen := map[string]int{key: -1}
	for i, mut := range diff {
		s := validSpec()
		mut(&s)
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("semantic mutations %d and %d share a cache key", j, i)
		}
		seen[k] = i
	}
}

// TestRunSeedRunnerMatchesFresh: executing a compiled scenario on an
// external recycled Runner (Compiled.RunOn) — the service-worker path — is bit-identical to
// the fresh-machine reference, including when one Runner serves different
// scenarios back to back.
func TestRunSeedRunnerMatchesFresh(t *testing.T) {
	a := validSpec()
	b := validSpec()
	b.Run = RunWorkloads
	b.Workloads = []Workload{
		{Core: 0, Name: "matrix", Ops: 200, Criticality: CritHigh},
		{Core: 1, Name: "stream", Loop: true},
	}
	ca, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}

	var rn sim.Runner
	// Interleave the two scenarios on one runner; every run must equal the
	// fresh-machine result regardless of what the runner served before.
	for i, step := range []struct {
		c    *Compiled
		seed uint64
	}{
		{ca, 3}, {cb, 3}, {ca, 4}, {ca, 3}, {cb, 5},
	} {
		pooled, err := step.c.RunOn(&rn, step.seed, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := step.c.RunSeed(step.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("step %d: runner result diverges from fresh machine", i)
		}
	}
}
