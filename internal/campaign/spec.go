package campaign

import (
	"fmt"

	"creditbus/internal/cpu"
	"creditbus/internal/sim"
)

// Spec describes a maximum-contention measurement campaign: a platform
// configuration, a program factory, a seed schedule and a size. The
// factory is the crux of parallel correctness — each run receives its own
// program instance, so no trace state is shared between concurrently
// executing machines. For replayable traces the factory is typically a
// cheap Clone (the operation slice is shared read-only; only the cursor is
// fresh).
type Spec struct {
	// Config is the platform; it is passed by value to every run.
	Config sim.Config
	// Build returns run r's program. It is called at dispatch time from
	// worker goroutines and must return an instance not shared with any
	// other run. Deterministic factories (same run ⇒ same program) keep
	// campaigns reproducible.
	Build func(run int) cpu.Program
	// Runs is the campaign size (the paper uses 1,000).
	Runs int
	// Seed returns run r's platform seed. Nil means BaseSeed +
	// r·SeedStride, the measurement protocol's historical schedule.
	Seed func(run int) uint64
	// BaseSeed anchors the default seed schedule when Seed is nil.
	BaseSeed uint64
	// Workers sizes the pool; 0 means DefaultWorkers, 1 forces the serial
	// path.
	Workers int
	// Progress, when non-nil, observes run completion.
	Progress Progress
}

func (s Spec) seed(run int) uint64 {
	if s.Seed != nil {
		return s.Seed(run)
	}
	return s.BaseSeed + uint64(run)*SeedStride
}

func (s Spec) validate() error {
	if s.Runs <= 0 {
		return fmt.Errorf("campaign: Runs = %d", s.Runs)
	}
	if s.Build == nil {
		return fmt.Errorf("campaign: Spec needs a program factory")
	}
	return nil
}

// MaxContention collects execution times under the paper's WCET-estimation
// scenario (§III.B's measurement protocol) — the sample vector the MBPTA
// pipeline fits — each worker recycling one machine across its run slice.
func (s Spec) MaxContention() ([]float64, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return Do(Options[*sim.Runner]{
		Workers:        s.Workers,
		Progress:       s.Progress,
		PerWorkerState: func() *sim.Runner { return new(sim.Runner) },
	}, s.Runs, func(rn *sim.Runner, r int) (float64, error) {
		res, err := rn.Run(s.Config, sim.RunSpec{Kind: sim.KindWCET, Program: s.Build(r), Seed: s.seed(r)})
		if err != nil {
			return 0, err
		}
		return float64(res.TaskCycles), nil
	})
}
