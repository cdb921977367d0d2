package campaign

import (
	"math"
	"testing"

	"creditbus/internal/cpu"
	"creditbus/internal/sim"
)

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
// parallel campaign's sample vector is byte-identical to the serial
// protocol it replaces.
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
		got, err := Spec{
			Config:   cfg,
			Build:    func(int) cpu.Program { return base.Clone() },
			Runs:     runs,
			BaseSeed: seed,
			Workers:  workers,
		}.MaxContention()
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

// TestSpecCustomSeedSchedule: a Seed function replaces the stride schedule
// — run r's sample is the fresh run at seed 100+r.
func TestSpecCustomSeedSchedule(t *testing.T) {
	base := testTrace()
	cfg := sim.DefaultConfig()
	got, err := Spec{
		Config:  cfg,
		Build:   func(int) cpu.Program { return base.Clone() },
		Runs:    5,
		Seed:    func(r int) uint64 { return uint64(100 + r) },
		Workers: 2,
	}.MaxContention()
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range got {
		want, err := new(sim.Runner).Run(cfg, sim.RunSpec{Kind: sim.KindWCET, Program: base.Clone(), Seed: uint64(100 + r)})
		if err != nil {
			t.Fatal(err)
		}
		if v != float64(want.TaskCycles) {
			t.Fatalf("run %d = %v cycles, the run at seed %d %d", r, v, 100+r, want.TaskCycles)
		}
	}
	if got[0] == got[1] && got[1] == got[2] {
		t.Fatal("samples do not vary with the seed: the schedule is not exercised")
	}
}
