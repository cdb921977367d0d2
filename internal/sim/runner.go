package sim

import (
	"fmt"

	"creditbus/internal/cpu"
)

// Runner owns one reusable Machine plus the scratch state a measurement
// worker needs between runs: the per-core program vector behind
// RunSpec.Program. A campaign worker keeps one Runner for its whole run
// slice; every run (re)initialises the machine in place (Machine.Reuse), so
// the steady-state hot path allocates nothing.
//
// A reused runner's results are bit-identical to a fresh runner's, which
// the reuse-differential suite asserts over the corpus and the randomized
// scenario space: a fresh Runner is the unpooled reference.
//
// A Runner is a single-goroutine object, exactly like the Machine it owns.
// The zero value is ready to use.
type Runner struct {
	m        *Machine
	programs []cpu.Program // scratch per-core vector for RunSpec.Program
}

// Run executes one simulation on the runner's recycled machine, until the
// TuA's program finishes, and returns the result for cfg.TuA. It is the one
// way to run a simulation: every scenario, campaign, experiment and service
// path ends here. The kind forces cfg.Mode; the configuration and the
// programs are checked before the machine is built or reused.
func (r *Runner) Run(cfg Config, s RunSpec) (Result, error) {
	mode, err := s.Kind.mode()
	if err != nil {
		return Result{}, err
	}
	cfg.Mode = mode
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	programs, err := r.programVector(cfg, s)
	if err != nil {
		return Result{}, err
	}
	m, err := r.machine(cfg, programs, s.Seed)
	if err != nil {
		return Result{}, err
	}
	if s.OnGrant != nil {
		m.SetGrantObserver(s.OnGrant)
		defer m.SetGrantObserver(nil)
	}
	if err := m.runTuA(DefaultLimit, s.Probe); err != nil {
		return Result{}, err
	}
	return m.result(cfg.TuA), nil
}

// programVector resolves s to one program per core of the validated cfg
// and checks it: a TuA program, co-runners only on workloads runs, no
// empty program. The emptiness probe leaves every program rewound.
func (r *Runner) programVector(cfg Config, s RunSpec) ([]cpu.Program, error) {
	programs := s.Programs
	if programs == nil {
		programs = r.scratch(cfg.Cores)
		programs[cfg.TuA] = s.Program
	} else if s.Program != nil {
		return nil, fmt.Errorf("sim: RunSpec sets both Program and Programs")
	}
	if len(programs) != cfg.Cores {
		return nil, fmt.Errorf("sim: %s run needs %d programs, got %d", s.Kind, cfg.Cores, len(programs))
	}
	if programs[cfg.TuA] == nil {
		return nil, fmt.Errorf("sim: %s run needs a program on the TuA core %d", s.Kind, cfg.TuA)
	}
	for i, p := range programs {
		switch {
		case p == nil:
		case i != cfg.TuA && s.Kind != KindWorkloads:
			return nil, fmt.Errorf("sim: %s run: core %d has a program, only the TuA core %d may", s.Kind, i, cfg.TuA)
		case emptyProgram(p):
			return nil, fmt.Errorf("sim: %s run: program on core %d is empty", s.Kind, i)
		}
	}
	return programs, nil
}

// machine returns the runner's machine (re)initialised for (cfg, programs,
// seed). On error the machine is discarded: a partially reinitialised
// platform must never run.
func (r *Runner) machine(cfg Config, programs []cpu.Program, seed uint64) (*Machine, error) {
	if r.m == nil {
		r.m = new(Machine)
	}
	if err := r.m.Reuse(cfg, programs, seed); err != nil {
		r.m = nil
		return nil, err
	}
	return r.m, nil
}

// scratch returns the runner's per-core program vector, cleared and sized
// to cores.
func (r *Runner) scratch(cores int) []cpu.Program {
	if cap(r.programs) < cores {
		r.programs = make([]cpu.Program, cores)
	}
	p := r.programs[:cores]
	for i := range p {
		p[i] = nil
	}
	return p
}

// IsolationProbed is Run with KindIsolation and a lone TuA program. Nothing
// in this module calls it; it remains because the perfbench module calls
// it, as it does MaxContentionProbed and WorkloadsProbed. New code calls
// Run.
func (r *Runner) IsolationProbed(cfg Config, prog cpu.Program, seed uint64, probe Probe) (Result, error) {
	return r.Run(cfg, RunSpec{Kind: KindIsolation, Program: prog, Seed: seed, Probe: probe})
}

// MaxContentionProbed is Run with KindWCET and a lone TuA program. It
// remains for the perfbench module only; see IsolationProbed.
func (r *Runner) MaxContentionProbed(cfg Config, prog cpu.Program, seed uint64, probe Probe) (Result, error) {
	return r.Run(cfg, RunSpec{Kind: KindWCET, Program: prog, Seed: seed, Probe: probe})
}

// WorkloadsProbed is Run with KindWorkloads. It remains for the perfbench
// module only; see IsolationProbed.
func (r *Runner) WorkloadsProbed(cfg Config, programs []cpu.Program, seed uint64, probe Probe) (Result, error) {
	return r.Run(cfg, RunSpec{Kind: KindWorkloads, Programs: programs, Seed: seed, Probe: probe})
}
