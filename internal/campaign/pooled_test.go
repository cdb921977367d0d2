package campaign

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"creditbus/internal/cpu"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// TestRunPooledStatePerWorker: every Do worker gets exactly one state, the
// serial path exactly one in total, and results stay index-ordered.
func TestRunPooledStatePerWorker(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var states atomic.Int64
		out, err := Do(Options[*int64]{
			Workers:        workers,
			PerWorkerState: func() *int64 { states.Add(1); n := int64(0); return &n },
		}, 32, func(st *int64, run int) (int, error) {
			*st++ // per-worker mutation must be race-free
			return run * run, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		max := int64(workers)
		if got := states.Load(); got < 1 || got > max {
			t.Errorf("workers=%d: %d states built, want 1..%d", workers, got, max)
		}
	}
}

// TestRunPooledValidation covers Do's error paths with per-worker state.
func TestRunPooledValidation(t *testing.T) {
	zero := Options[int]{Workers: 1, PerWorkerState: func() int { return 0 }}
	if _, err := Do(zero, -1, func(int, int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative runs must fail")
	}
	if _, err := Do[int, int](zero, 1, nil); err == nil {
		t.Error("nil run function must fail")
	}
	boom := errors.New("boom")
	if _, err := Do(Options[int]{Workers: 2, PerWorkerState: func() int { return 0 }}, 4, func(_ int, r int) (int, error) {
		if r >= 2 {
			return 0, boom
		}
		return r, nil
	}); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

// TestPooledSpecMatchesFreshScenario: pooled campaigns (Do over per-worker
// Runners for isolation and full results) must reproduce the fresh-machine
// serial loop bit for bit at any worker count — machine reuse may not leak
// one run into the next.
func TestPooledSpecMatchesFreshScenario(t *testing.T) {
	spec, ok := workload.ByName("matrix")
	if !ok {
		t.Fatal("missing workload matrix")
	}
	base := spec.Build(1)
	trimmed := cpu.NewTrace(base.Ops()[:600])

	cfg := sim.DefaultConfig()
	cfg.Credit.Kind = sim.CreditCBA
	const runs = 6

	wantIso := make([]float64, runs)
	wantRes := make([]sim.Result, runs)
	run := func(rn *sim.Runner, kind sim.Kind, r int) (sim.Result, error) {
		return rn.Run(cfg, sim.RunSpec{Kind: kind, Program: trimmed.Clone(), Seed: 42 + uint64(r)*SeedStride})
	}
	for r := 0; r < runs; r++ {
		res, err := run(new(sim.Runner), sim.KindWCET, r)
		if err != nil {
			t.Fatal(err)
		}
		wantRes[r] = res
		iso, err := run(new(sim.Runner), sim.KindIsolation, r)
		if err != nil {
			t.Fatal(err)
		}
		wantIso[r] = float64(iso.TaskCycles)
	}

	for _, workers := range []int{1, 3} {
		pooled := Options[*sim.Runner]{Workers: workers, PerWorkerState: func() *sim.Runner { return new(sim.Runner) }}
		iso, err := Do(pooled, runs, func(rn *sim.Runner, r int) (float64, error) {
			res, err := run(rn, sim.KindIsolation, r)
			return float64(res.TaskCycles), err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantIso, iso) {
			t.Errorf("workers=%d: pooled isolation diverges from fresh loop", workers)
		}
		res, err := Do(pooled, runs, func(rn *sim.Runner, r int) (sim.Result, error) {
			return run(rn, sim.KindWCET, r)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantRes, res) {
			t.Errorf("workers=%d: pooled full results diverge from fresh loop", workers)
		}
	}
}

// testTrace is a small memory-heavy program: enough bus traffic that runs
// under contention have seed-dependent execution times.
func testTrace() *cpu.Trace {
	ops := make([]cpu.Op, 0, 900)
	for i := 0; i < 300; i++ {
		ops = append(ops,
			cpu.Op{Kind: cpu.OpLoad, Addr: uint64(i*8) % 16384},
			cpu.Op{Kind: cpu.OpALU, Cycles: 2},
			cpu.Op{Kind: cpu.OpStore, Addr: uint64(i*32+8) % 32768},
		)
	}
	return cpu.NewTrace(ops)
}

// TestSpecParallelMatchesSerialLoop is the engine's core guarantee: a
// parallel max-contention campaign (Do over per-worker Runners, one cloned
// program and seed seed + r·SeedStride per run) yields a sample vector
// byte-identical to the serial protocol it replaces.
func TestSpecParallelMatchesSerialLoop(t *testing.T) {
	base := testTrace()
	cfg := sim.DefaultConfig()
	cfg.Credit.Kind = sim.CreditCBA
	const runs = 24
	const seed = 20170327

	// The historical serial protocol: one shared program, Reset per run,
	// golden-ratio seed stride.
	want := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		base.Reset()
		res, err := new(sim.Runner).Run(cfg, sim.RunSpec{Kind: sim.KindWCET, Program: base, Seed: seed + uint64(r)*SeedStride})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, float64(res.TaskCycles))
	}

	for _, workers := range []int{1, 4} {
		got, err := Do(Options[*sim.Runner]{
			Workers:        workers,
			PerWorkerState: func() *sim.Runner { return new(sim.Runner) },
		}, runs, func(rn *sim.Runner, r int) (float64, error) {
			res, err := rn.Run(cfg, sim.RunSpec{Kind: sim.KindWCET, Program: base.Clone(), Seed: seed + uint64(r)*SeedStride})
			return float64(res.TaskCycles), err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != runs {
			t.Fatalf("workers=%d: %d samples", workers, len(got))
		}
		for r := range got {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("workers=%d: run %d = %v, serial loop %v", workers, r, got[r], want[r])
			}
		}
	}

	// The samples must actually vary with the seed, or the test is vacuous.
	varied := false
	for r := 1; r < runs; r++ {
		if want[r] != want[0] {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("all runs identical: contention randomness not exercised")
	}
}
