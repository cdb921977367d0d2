package sim

import (
	"reflect"
	"testing"

	"creditbus/internal/cpu"
	"creditbus/internal/workload"
)

// The differential suite is the correctness proof of the event-horizon
// stepping engine: for every arbitration policy × CBA variant × analysis
// mode × workload × seed it runs the same scenario under the per-cycle
// reference engine (ForcePerCycle) and under event stepping, and requires
// the full Result — execution time, wall cycles, CPU/bus/cache statistics,
// per-kind traffic — to be identical field for field. Any divergence in
// arbitration order, rng draw order, budget arithmetic or counter
// accounting shows up here as a mismatch.

// diffWorkload builds a fresh, truncated instance of a bundled workload.
// Fresh per run: machines consume the program cursor.
func diffWorkload(t testing.TB, name string, ops int) cpu.Program {
	t.Helper()
	tr, err := workload.Build(name, 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// diffMixed is a synthetic workload exercising the paths the bundled
// kernels rarely hit together: atomics (the 56-cycle worst case), store
// bursts deep enough to fill the store buffer, and back-to-back loads.
func diffMixed() cpu.Program {
	var ops []cpu.Op
	addr := uint64(0x0500_0000)
	for i := 0; i < 120; i++ {
		ops = append(ops,
			cpu.Op{Kind: cpu.OpLoad, Addr: addr + uint64(i)*0x1000},
			cpu.Op{Kind: cpu.OpALU, Cycles: 7},
			cpu.Op{Kind: cpu.OpStore, Addr: addr + uint64(i)*0x1000},
			cpu.Op{Kind: cpu.OpStore, Addr: addr + uint64(i)*0x2000 + 64},
			cpu.Op{Kind: cpu.OpStore, Addr: addr + uint64(i)*0x2000 + 96},
			cpu.Op{Kind: cpu.OpStore, Addr: addr + uint64(i)*0x2000 + 128},
			cpu.Op{Kind: cpu.OpStore, Addr: addr + uint64(i)*0x2000 + 160},
			cpu.Op{Kind: cpu.OpALU, Cycles: 2},
		)
		if i%5 == 4 {
			ops = append(ops, cpu.Op{Kind: cpu.OpAtomic, Addr: addr + uint64(i)*0x4000})
		}
		if i%11 == 10 {
			ops = append(ops, cpu.Op{Kind: cpu.OpALU, Cycles: 300})
		}
	}
	return cpu.NewTrace(ops)
}

// diffPrograms returns the named differential workload, fresh each call.
func diffPrograms(t testing.TB, name string) cpu.Program {
	switch name {
	case "mixed":
		return diffMixed()
	case "matrix":
		return diffWorkload(t, "matrix", 1200)
	case "cacheb":
		return diffWorkload(t, "cacheb", 500)
	case "tblook":
		return diffWorkload(t, "tblook", 900)
	}
	t.Fatalf("unknown differential workload %q", name)
	return nil
}

// diffCoRunner is the operation-mode contention generator: a looped stream
// of memory misses with the occasional store, enough to keep the bus warm
// for the whole run.
func diffCoRunner() cpu.Program {
	var ops []cpu.Op
	base := uint64(0x0600_0000)
	for i := 0; i < 40; i++ {
		ops = append(ops,
			cpu.Op{Kind: cpu.OpLoad, Addr: base + uint64(i)*0x8000},
			cpu.Op{Kind: cpu.OpALU, Cycles: 3},
		)
		if i%7 == 6 {
			ops = append(ops, cpu.Op{Kind: cpu.OpStore, Addr: base + uint64(i)*0x8000})
		}
	}
	return NewLooped(cpu.NewTrace(ops))
}

func TestDifferentialFastVsPerCycle(t *testing.T) {
	policies := []PolicyKind{PolicyRoundRobin, PolicyFIFO, PolicyTDMA,
		PolicyLottery, PolicyRandomPerm, PolicyPriority,
		PolicyPropFair, PolicyGWF, PolicyMTS}
	credits := []CreditKind{CreditOff, CreditCBA, CreditHCBAWeights, CreditHCBACap}
	workloads := []string{"matrix", "cacheb", "tblook", "mixed"}
	seeds := []uint64{11, 1234577, 987654321}

	for _, policy := range policies {
		for _, credit := range credits {
			for _, wl := range workloads {
				for _, seed := range seeds {
					policy, credit, wl, seed := policy, credit, wl, seed
					name := string(policy) + "/" + string(credit) + "/" + wl
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						base := DefaultConfig()
						base.Policy = policy
						base.Credit.Kind = credit
						// Exercise the weighted paths of the lottery and
						// the fairness zoo.
						switch policy {
						case PolicyLottery, PolicyPropFair, PolicyGWF, PolicyMTS:
							base.Weights = []int64{5, 1, 2, 1}
						}

						// WCET-estimation mode: Table I injectors.
						slow, fast := base, base
						slow.ForcePerCycle = true
						rs, err := new(Runner).Run(slow, RunSpec{Kind: KindWCET, Program: diffPrograms(t, wl), Seed: seed})
						if err != nil {
							t.Fatalf("per-cycle con: %v", err)
						}
						rf, err := new(Runner).Run(fast, RunSpec{Kind: KindWCET, Program: diffPrograms(t, wl), Seed: seed})
						if err != nil {
							t.Fatalf("fast con: %v", err)
						}
						if !reflect.DeepEqual(rs, rf) {
							t.Errorf("con diverged (seed %d):\n per-cycle: %+v\n fast:      %+v", seed, rs, rf)
						}

						// Operation mode: real looped co-runners.
						programs := func() []cpu.Program {
							ps := make([]cpu.Program, base.Cores)
							ps[base.TuA] = diffPrograms(t, wl)
							for i := range ps {
								if i != base.TuA {
									ps[i] = diffCoRunner()
								}
							}
							return ps
						}
						rs, err = new(Runner).Run(slow, RunSpec{Kind: KindWorkloads, Programs: programs(), Seed: seed})
						if err != nil {
							t.Fatalf("per-cycle op: %v", err)
						}
						rf, err = new(Runner).Run(fast, RunSpec{Kind: KindWorkloads, Programs: programs(), Seed: seed})
						if err != nil {
							t.Fatalf("fast op: %v", err)
						}
						if !reflect.DeepEqual(rs, rf) {
							t.Errorf("op diverged (seed %d):\n per-cycle: %+v\n fast:      %+v", seed, rs, rf)
						}
					})
				}
			}
		}
	}
}

// TestDifferentialIsolation covers the contention-free corner, where the
// bus idles for long stretches and the horizon is driven by the TuA alone.
func TestDifferentialIsolation(t *testing.T) {
	for _, wl := range []string{"matrix", "cacheb", "mixed"} {
		for _, credit := range []CreditKind{CreditOff, CreditCBA} {
			cfg := DefaultConfig()
			cfg.Credit.Kind = credit
			slow := cfg
			slow.ForcePerCycle = true
			rs, err := new(Runner).Run(slow, RunSpec{Kind: KindIsolation, Program: diffPrograms(t, wl), Seed: 7})
			if err != nil {
				t.Fatalf("per-cycle iso: %v", err)
			}
			rf, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: diffPrograms(t, wl), Seed: 7})
			if err != nil {
				t.Fatalf("fast iso: %v", err)
			}
			if !reflect.DeepEqual(rs, rf) {
				t.Errorf("%s/%s iso diverged:\n per-cycle: %+v\n fast:      %+v", wl, credit, rs, rf)
			}
		}
	}
}

// TestStepOnQuiescentMachine pins Step's behaviour when no component will
// ever act again (every program finished): a bare Step loop must advance
// one cycle at a time, exactly like Tick, not bulk-jump toward the no-event
// sentinel.
func TestStepOnQuiescentMachine(t *testing.T) {
	cfg := DefaultConfig()
	programs := make([]cpu.Program, cfg.Cores)
	programs[0] = cpu.NewTrace([]cpu.Op{{Kind: cpu.OpALU, Cycles: 3}})
	m, err := NewMachine(cfg, programs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		m.Step()
	}
	doneAt := m.Cycle()
	for i := 0; i < 5; i++ {
		m.Step()
	}
	if got := m.Cycle(); got != doneAt+5 {
		t.Fatalf("5 quiescent Steps advanced %d cycles, want 5", got-doneAt)
	}
	if idle := m.Bus().IdleCycles(); idle != m.Cycle() {
		t.Fatalf("idle bus accounting diverged: %d idle of %d cycles", idle, m.Cycle())
	}
}

// TestDifferentialLimitGuard pins that both engines trip Runner.Run's
// deadlock guard at the same cycle: event stepping parks at the limit
// instead of executing an event beyond it.
func TestDifferentialLimitGuard(t *testing.T) {
	// A TuA that never finishes: a looped all-ALU program keeps the machine
	// alive with no bus traffic at all.
	build := func() []cpu.Program {
		ps := make([]cpu.Program, 4)
		ps[0] = NewLooped(cpu.NewTrace([]cpu.Op{{Kind: cpu.OpALU, Cycles: 9}}))
		return ps
	}
	for _, force := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.ForcePerCycle = force
		m, err := NewMachine(cfg, build(), 3)
		if err != nil {
			t.Fatal(err)
		}
		const limit = 10_000
		err = m.runTuA(limit, nil)
		if err == nil {
			t.Fatalf("force=%v: expected limit error", force)
		}
		if at := m.Cycle(); at != limit {
			t.Errorf("force=%v: limit tripped at %d, want %d", force, at, limit)
		}
		if got := m.Core(0).Stats().Cycles; got != limit {
			t.Errorf("force=%v: TuA cycles %d at limit, want %d", force, got, limit)
		}
	}
}
