package sim

import (
	"reflect"
	"testing"

	"creditbus/internal/bus"
	"creditbus/internal/cpu"
)

// TestWorkloadsObserved pins the grant-observer plumbing down on three
// properties, per policy of the fairness zoo:
//
//   - observing a run must not perturb it — the Result equals the
//     unobserved run's bit for bit;
//   - the grant stream is engine-independent — fast and per-cycle emit
//     exactly the same events in the same order;
//   - the stream reconciles with the simulation — every master's hold
//     cycles are positive, starts are non-decreasing, and occupancies
//     never overlap (the bus is non-split).
func TestWorkloadsObserved(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyPropFair, PolicyGWF, PolicyMTS} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Policy = policy
			cfg.Weights = []int64{3, 1, 1, 2}

			programs := func() []cpu.Program {
				ps := make([]cpu.Program, cfg.Cores)
				ps[cfg.TuA] = diffPrograms(t, "cacheb")
				for i := range ps {
					if i != cfg.TuA {
						ps[i] = diffCoRunner()
					}
				}
				return ps
			}

			collect := func(c Config) ([]bus.GrantEvent, Result) {
				var rn Runner
				var events []bus.GrantEvent
				res, err := rn.Run(c, RunSpec{Kind: KindWorkloads, Programs: programs(), Seed: 99, OnGrant: func(ev bus.GrantEvent) {
					events = append(events, ev)
				}})
				if err != nil {
					t.Fatalf("observed run: %v", err)
				}
				return events, res
			}

			fastEvents, fastRes := collect(cfg)
			slow := cfg
			slow.ForcePerCycle = true
			slowEvents, slowRes := collect(slow)

			var rn Runner
			plain, err := rn.Run(cfg, RunSpec{Kind: KindWorkloads, Programs: programs(), Seed: 99})
			if err != nil {
				t.Fatalf("unobserved run: %v", err)
			}
			if !reflect.DeepEqual(plain, fastRes) || !reflect.DeepEqual(plain, slowRes) {
				t.Fatalf("observing perturbed the run:\n plain: %+v\n fast:  %+v\n slow:  %+v",
					plain, fastRes, slowRes)
			}
			if len(fastEvents) == 0 {
				t.Fatal("observed no grants")
			}
			if !reflect.DeepEqual(fastEvents, slowEvents) {
				t.Fatalf("grant streams diverged between engines: %d fast vs %d per-cycle events",
					len(fastEvents), len(slowEvents))
			}
			end := int64(0)
			for i, ev := range fastEvents {
				if ev.Master < 0 || ev.Master >= cfg.Cores {
					t.Fatalf("event %d: master %d out of range", i, ev.Master)
				}
				if ev.Hold < 1 {
					t.Fatalf("event %d: hold %d", i, ev.Hold)
				}
				if ev.Cycle < end {
					t.Fatalf("event %d: grant at %d overlaps previous occupancy ending %d", i, ev.Cycle, end)
				}
				end = ev.Cycle + ev.Hold
			}

			// The observer detaches after the run: a later run on the same
			// Runner must not fire the old callback.
			var rn2 Runner
			fired := 0
			if _, err := rn2.Run(cfg, RunSpec{Kind: KindWorkloads, Programs: programs(), Seed: 7, OnGrant: func(bus.GrantEvent) { fired++ }}); err != nil {
				t.Fatalf("runner reuse setup: %v", err)
			}
			after := fired
			if _, err := rn2.Run(cfg, RunSpec{Kind: KindWorkloads, Programs: programs(), Seed: 8}); err != nil {
				t.Fatalf("unobserved reuse run: %v", err)
			}
			if fired != after {
				t.Fatal("observer from a prior run fired on a later run")
			}
		})
	}
}
