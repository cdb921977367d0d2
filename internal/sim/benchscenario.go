package sim

import (
	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/workload"
)

// NewEngineBenchMachine builds the canonical engine-benchmark platform: the
// paper's measurement scenario — WCET-estimation mode, a looped canrdr
// kernel as the task under analysis against Table I contention injectors,
// homogeneous CBA in front of random-permutations arbitration. The machine
// never finishes, so either stepping engine can be driven indefinitely and
// their cost per simulated cycle compared directly. It is the single
// definition shared by BenchmarkMachineStep{Slow,Fast} and cmd/simbench, so
// BENCH_sim.json and the in-tree benchmarks always measure the same thing.
func NewEngineBenchMachine() (*Machine, error) {
	return NewScalingBenchMachine(DefaultConfig().Cores)
}

// NewScalingBenchMachine is NewEngineBenchMachine generalised to an arbitrary
// core count: the same contended WCET scenario (looped canrdr TuA, cores-1
// Table I injectors, homogeneous CBA over random permutations, seed 1) at any
// population up to MaxCores. It is the measurement platform behind the
// core_scaling section of BENCH_sim.json: the scenario keeps the bus
// saturated at every population, so cycles/sec across core counts isolates
// the per-decision arbitration and state-walk cost that the scale-out
// refactor flattens.
func NewScalingBenchMachine(cores int) (*Machine, error) {
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.Credit.Kind = CreditCBA
	cfg.Mode = core.WCETMode
	tr, err := workload.Build("canrdr", 1, 0)
	if err != nil {
		return nil, err
	}
	programs := make([]cpu.Program, cfg.Cores)
	programs[cfg.TuA] = NewLooped(tr)
	return NewMachine(cfg, programs, 1)
}
