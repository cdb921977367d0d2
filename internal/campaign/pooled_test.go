package campaign

import (
	"errors"
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

// TestPooledSpecMatchesFreshScenario: pooled campaigns (Spec.MaxContention,
// and Do over per-worker Runners for isolation and full results) must
// reproduce the fresh-machine serial loop bit for bit at any worker count —
// machine reuse may not leak one run into the next.
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
	s := Spec{
		Config:   cfg,
		Build:    func(int) cpu.Program { return trimmed.Clone() },
		Runs:     runs,
		BaseSeed: 42,
	}

	wantMax := make([]float64, runs)
	wantIso := make([]float64, runs)
	wantRes := make([]sim.Result, runs)
	run := func(rn *sim.Runner, kind sim.Kind, r int) (sim.Result, error) {
		return rn.Run(cfg, sim.RunSpec{Kind: kind, Program: trimmed.Clone(), Seed: s.seed(r)})
	}
	for r := 0; r < runs; r++ {
		res, err := run(new(sim.Runner), sim.KindWCET, r)
		if err != nil {
			t.Fatal(err)
		}
		wantMax[r] = float64(res.TaskCycles)
		wantRes[r] = res
		iso, err := run(new(sim.Runner), sim.KindIsolation, r)
		if err != nil {
			t.Fatal(err)
		}
		wantIso[r] = float64(iso.TaskCycles)
	}

	for _, workers := range []int{1, 3} {
		s.Workers = workers
		got, err := s.MaxContention()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantMax, got) {
			t.Errorf("workers=%d: pooled MaxContention diverges from fresh loop:\n got %v\nwant %v", workers, got, wantMax)
		}
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
