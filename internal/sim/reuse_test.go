package sim

import (
	"reflect"
	"testing"
	"testing/quick"

	"creditbus/internal/cpu"
)

// The reuse-differential suite is the correctness proof of the machine
// pooling layer: a Runner that recycles one Machine across runs must
// produce Results field-for-field identical to fresh machines, across
// policies, credit variants, run kinds, engines and structural
// configuration changes (which exercise the rebuild paths of Reuse).

// reuseConfigs is a grid that crosses every policy with every credit kind
// and a couple of structural variations, so consecutive runs on one Runner
// flip between reusing components and rebuilding them.
func reuseConfigs() []Config {
	var out []Config
	for _, pol := range []PolicyKind{PolicyRoundRobin, PolicyFIFO, PolicyTDMA, PolicyLottery, PolicyRandomPerm, PolicyPriority, PolicyPropFair, PolicyGWF, PolicyMTS} {
		for _, credit := range []CreditKind{CreditOff, CreditCBA, CreditHCBAWeights, CreditHCBACap} {
			cfg := DefaultConfig()
			cfg.Policy = pol
			cfg.Credit.Kind = credit
			out = append(out, cfg)
		}
	}
	// Structural variations: core count, cache geometry, latency model,
	// lottery weights — each forces the matching rebuild path mid-sequence.
	small := DefaultConfig()
	small.Cores = 2
	small.L1Sets, small.L2Sets = 16, 64
	out = append(out, small)
	slow := DefaultConfig()
	slow.Latency.Mem = 40
	slow.Credit.Kind = CreditCBA
	out = append(out, slow)
	weighted := DefaultConfig()
	weighted.Policy = PolicyLottery
	weighted.Weights = []int64{5, 1, 1, 1}
	out = append(out, weighted)
	// Weighted fairness-zoo variants with non-default knobs: each flips the
	// matching policyShapeEqual branch (weights, EWMA shift, timescales).
	wpf := DefaultConfig()
	wpf.Policy = PolicyPropFair
	wpf.Weights = []int64{4, 2, 1, 1}
	wpf.PFAvgShift = 3
	out = append(out, wpf)
	wgwf := DefaultConfig()
	wgwf.Policy = PolicyGWF
	wgwf.Weights = []int64{1, 6, 1, 1}
	out = append(out, wgwf)
	wmts := DefaultConfig()
	wmts.Policy = PolicyMTS
	wmts.Weights = []int64{2, 1, 1, 2}
	wmts.MTSTimescales = []Timescale{{Num: 1, Den: 32, Depth: 3}, {Num: 1, Den: 256, Depth: 20}}
	out = append(out, wmts)
	return out
}

// TestReuseDifferentialSim drives one Runner across the whole grid — wcet,
// isolation and workloads runs, both engines, two seeds each — and
// compares every Result against a fresh machine's.
func TestReuseDifferentialSim(t *testing.T) {
	var rn Runner
	for _, base := range reuseConfigs() {
		for _, perCycle := range []bool{false, true} {
			cfg := base
			cfg.ForcePerCycle = perCycle
			for _, seed := range []uint64{3, 0x9e3779b97f4a7c15} {
				prog := func() cpu.Program { return diffPrograms(t, "cacheb") }

				fresh, ferr := new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: prog(), Seed: seed})
				reused, rerr := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: prog(), Seed: seed})
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s/%s wcet: fresh err %v, reused err %v", cfg.Policy, cfg.Credit.Kind, ferr, rerr)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%s percycle=%v seed=%d wcet: reused diverges: %+v vs %+v",
						cfg.Policy, cfg.Credit.Kind, perCycle, seed, reused, fresh)
				}

				fresh, ferr = new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: prog(), Seed: seed})
				reused, rerr = rn.Run(cfg, RunSpec{Kind: KindIsolation, Program: prog(), Seed: seed})
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s/%s iso: fresh err %v, reused err %v", cfg.Policy, cfg.Credit.Kind, ferr, rerr)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%s percycle=%v seed=%d iso: reused diverges", cfg.Policy, cfg.Credit.Kind, perCycle, seed)
				}

				workloads := func() []cpu.Program {
					ps := make([]cpu.Program, cfg.Cores)
					ps[cfg.TuA] = prog()
					for i := range ps {
						if i != cfg.TuA {
							ps[i] = diffCoRunner()
						}
					}
					return ps
				}
				fresh, ferr = new(Runner).Run(cfg, RunSpec{Kind: KindWorkloads, Programs: workloads(), Seed: seed})
				reused, rerr = rn.Run(cfg, RunSpec{Kind: KindWorkloads, Programs: workloads(), Seed: seed})
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s/%s workloads: fresh err %v, reused err %v", cfg.Policy, cfg.Credit.Kind, ferr, rerr)
				}
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%s percycle=%v seed=%d workloads: reused diverges", cfg.Policy, cfg.Credit.Kind, perCycle, seed)
				}
			}
		}
	}
}

// TestReuseQuickProperty is the testing/quick property of the issue: two
// consecutive Reuse+Run cycles on one machine equal two fresh runs, for
// randomly drawn (policy, credit, seeds, engine) combinations.
func TestReuseQuickProperty(t *testing.T) {
	policies := []PolicyKind{PolicyRoundRobin, PolicyFIFO, PolicyTDMA, PolicyLottery, PolicyRandomPerm, PolicyPriority, PolicyPropFair, PolicyGWF, PolicyMTS}
	credits := []CreditKind{CreditOff, CreditCBA, CreditHCBAWeights, CreditHCBACap}
	prop := func(polIdx, creditIdx uint8, seed1, seed2 uint64, perCycle bool) bool {
		cfg := DefaultConfig()
		cfg.Policy = policies[int(polIdx)%len(policies)]
		cfg.Credit.Kind = credits[int(creditIdx)%len(credits)]
		cfg.ForcePerCycle = perCycle

		fresh1, err1 := new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: seed1})
		fresh2, err2 := new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: seed2})

		var rn Runner
		reused1, rerr1 := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: seed1})
		reused2, rerr2 := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: seed2})

		return (err1 == nil) == (rerr1 == nil) && (err2 == nil) == (rerr2 == nil) &&
			reflect.DeepEqual(fresh1, reused1) && reflect.DeepEqual(fresh2, reused2)
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReuseErrorDiscardsMachine: after a failed Reuse the runner must
// rebuild rather than run a partially reinitialised machine.
func TestReuseErrorDiscardsMachine(t *testing.T) {
	var rn Runner
	cfg := DefaultConfig()
	if _, err := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Credit = CreditSpec{Kind: CreditHCBAWeights, Num: 9, Den: 2} // share ≥ 1 is rejected
	if _, err := rn.Run(bad, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: 1}); err == nil {
		t.Fatal("invalid credit spec must fail")
	}
	got, err := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: diffPrograms(t, "matrix"), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-error runner diverges: %+v vs %+v", got, want)
	}
}

// TestReuseSteadyStateAllocs pins the tentpole: a steady-state campaign
// run on a warm Runner performs (almost) no allocations. The residual
// budget covers the per-run program clone — everything platform-sized
// (machine, caches, bus, arbiter) must be recycled, and the Result's
// traffic counts are a fixed array.
func TestReuseSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Credit.Kind = CreditCBA
	proto := diffPrograms(t, "matrix")
	var rn Runner
	if _, err := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: proto, Seed: 1}); err != nil { // warm-up
		t.Fatal(err)
	}
	seed := uint64(2)
	avg := testing.AllocsPerRun(8, func() {
		prog, _ := cpu.TryClone(proto)
		if _, err := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: prog, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	// A fresh 4-core machine costs hundreds of allocations (caches alone
	// are 16k+ lines); the warm path must be down to single digits.
	if avg > 12 {
		t.Fatalf("steady-state campaign run allocates %.0f objects; want ≤ 12", avg)
	}
}
