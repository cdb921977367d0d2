package scenario

import (
	"reflect"
	"testing"

	"creditbus/internal/sim"
)

// TestReuseDifferential is the corpus-wide proof of the machine-pooling
// layer: for every curated scenario, every seed of its schedule and BOTH
// engines, a run on a pooled, recycled machine (a Worker — one worker
// shared across the whole scenario, and across engines, so consecutive
// runs genuinely reuse a dirty machine) must produce a Result
// field-for-field identical to the fresh-machine reference. The worker is
// additionally driven through the corpus's structural variety — core
// counts, policies, credit kinds, platform overrides, run kinds — because
// the same worker serves each scenario's full schedule.
func TestReuseDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide reuse sweep runs every scenario on both engines")
	}
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < corpusFloor {
		t.Fatalf("corpus has %d scenarios, the curated floor is %d", len(specs), corpusFloor)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			c, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			var w Worker
			for _, engine := range []string{EngineFast, EnginePerCycle} {
				for _, seed := range c.Seeds {
					fresh, err := c.RunOn(new(Worker), seed, engine, nil)
					if err != nil {
						t.Fatalf("seed %d %s (fresh): %v", seed, engine, err)
					}
					reused, err := c.RunOn(&w, seed, engine, nil)
					if err != nil {
						t.Fatalf("seed %d %s (reused): %v", seed, engine, err)
					}
					if !reflect.DeepEqual(fresh, reused) {
						t.Errorf("seed %d %s: reused machine diverges from fresh:\nreused: %+v\nfresh:  %+v",
							seed, engine, reused, fresh)
					}
				}
			}
		})
	}
}

// TestReuseDifferentialAcrossScenarios walks the whole corpus — every
// scenario × seed × both engines — serially on ONE Worker, so the worker
// crosses a scenario boundary (re-cloning its programs, and rebuilding
// whatever of its machine the new configuration invalidates) before every
// scenario. Each run must equal a run on a fresh Worker at the same engine.
func TestReuseDifferentialAcrossScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide reuse sweep runs every scenario on both engines")
	}
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var w Worker
	for _, spec := range specs {
		c, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range c.Seeds {
			for _, engine := range []string{EngineFast, EnginePerCycle} {
				fresh, err := c.RunOn(new(Worker), seed, engine, nil)
				if err != nil {
					t.Fatalf("%s seed %d %s (fresh): %v", spec.Name, seed, engine, err)
				}
				reused, err := c.RunOn(&w, seed, engine, nil)
				if err != nil {
					t.Fatalf("%s seed %d %s (reused): %v", spec.Name, seed, engine, err)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s seed %d %s: shared worker diverges from fresh:\nreused: %+v\nfresh:  %+v",
						spec.Name, seed, engine, reused, fresh)
				}
			}
		}
	}
}

// TestReuseConsecutiveCycles pins the two-cycle property at the scenario
// level: two consecutive runs of the same seed on one worker equal each
// other and the fresh reference (the machine must not remember its
// previous run in any observable way).
func TestReuseConsecutiveCycles(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	// One spec per run kind is enough here; the corpus-wide sweep above
	// covers the space.
	picked := map[string]Spec{}
	for _, sp := range specs {
		if _, ok := picked[sp.Run]; !ok {
			picked[sp.Run] = sp
		}
	}
	for kind, sp := range picked {
		c, err := sp.Compile()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		seed := c.Seeds[0]
		fresh, err := c.RunSeed(seed)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var w Worker
		for pass := 0; pass < 2; pass++ {
			got, err := c.RunOn(&w, seed, "", nil)
			if err != nil {
				t.Fatalf("%s pass %d: %v", kind, pass, err)
			}
			if !reflect.DeepEqual(fresh, got) {
				t.Errorf("%s (%s) pass %d diverges from fresh reference", sp.Name, kind, pass)
			}
		}
	}
}

// TestResultsPooledMatchesSerial: the pooled campaign path must yield the
// schedule the unpooled per-seed loop yields, at any worker count.
func TestResultsPooledMatchesSerial(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var multi *Spec
	for i := range specs {
		if len(specs[i].Seeds.Expand()) > 1 {
			multi = &specs[i]
			break
		}
	}
	if multi == nil {
		t.Fatal("corpus has no multi-seed scenario")
	}
	c, err := multi.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]sim.Result, len(c.Seeds))
	for i, seed := range c.Seeds {
		if want[i], err = c.RunSeed(seed); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 3} {
		got, err := c.Results(workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: pooled campaign diverges from per-seed loop", workers)
		}
	}
}
