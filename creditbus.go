// Package creditbus is a cycle-accurate reproduction of "Design and
// Implementation of a Fair Credit-Based Bandwidth Sharing Scheme for Buses"
// (Slijepcevic, Hernandez, Abella, Cazorla — DATE 2017).
//
// It provides:
//
//   - Credit-Based Arbitration (CBA): a filter in front of any slot-fair bus
//     arbitration policy that makes bandwidth sharing fair in cycles of bus
//     occupancy instead of granted slots, including both heterogeneous
//     variants of §III.A;
//   - the paper's full evaluation platform as a simulator: in-order cores,
//     randomised (MBPTA-friendly) L1/L2 caches, a non-split shared bus with
//     round-robin/FIFO/TDMA/lottery/random-permutations arbitration, and a
//     fixed-latency memory controller;
//   - EEMBC-Autobench-like workloads, the paper's WCET-estimation mode
//     (Table I) and an MBPTA/EVT pipeline for pWCET estimation;
//   - a deterministic parallel campaign engine: multi-run measurement
//     protocols (CollectMaxContention, the experiments in cmd/experiments)
//     fan independent runs out across CPUs and return sample vectors
//     bit-identical to their serial equivalents;
//   - an event-horizon stepping engine (the default): components report the
//     next cycle at which their visible state can change and the machine
//     advances the uneventful cycles in between in closed form — proven
//     bit-identical to per-cycle simulation by a differential suite and ≥5×
//     faster per run (Config.ForcePerCycle selects the reference engine).
//
// The quickest start:
//
//	cfg := creditbus.DefaultConfig()
//	cfg.Credit.Kind = creditbus.CreditCBA
//	prog, _ := creditbus.BuildWorkload("matrix", 1)
//	res, _ := creditbus.RunMaxContention(cfg, prog, 42)
//	fmt.Println(res.TaskCycles)
//
// See the examples directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology and measured results.
package creditbus

import (
	"fmt"

	"creditbus/internal/arbiter"
	"creditbus/internal/campaign"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/mbpta"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// Config describes the simulated platform: core count, cache geometry,
// transaction latencies, arbitration policy, CBA variant and analysis mode.
type Config = sim.Config

// CreditSpec selects and parameterises the CBA variant.
type CreditSpec = sim.CreditSpec

// Result carries the observables of one run.
type Result = sim.Result

// Program is a workload running on a simulated core.
type Program = cpu.Program

// Op is one program operation (ALU work, load, store or atomic).
type Op = cpu.Op

// The operation kinds of Program traces.
const (
	OpALU    = cpu.OpALU
	OpLoad   = cpu.OpLoad
	OpStore  = cpu.OpStore
	OpAtomic = cpu.OpAtomic
)

// NewTrace builds a replayable Program from explicit operations, for
// user-defined workloads.
func NewTrace(ops []Op) Program { return cpu.NewTrace(ops) }

// Arbitration policies for Config.Policy.
const (
	PolicyRoundRobin = sim.PolicyRoundRobin
	PolicyFIFO       = sim.PolicyFIFO
	PolicyTDMA       = sim.PolicyTDMA
	// PolicyLottery takes its per-core tickets from Config.Weights.
	PolicyLottery    = sim.PolicyLottery
	PolicyRandomPerm = sim.PolicyRandomPerm
	PolicyPriority   = sim.PolicyPriority
	// The fairness-policy zoo: proportional fair (EWMA rate averaging),
	// general weighted fairness (start-time fair queueing) and the
	// multi-timescale token-bucket profile. All three accept per-core
	// Config.Weights; PF also honours Config.PFAvgShift and MTS honours
	// Config.MTSTimescales.
	PolicyPropFair = sim.PolicyPropFair
	PolicyGWF      = sim.PolicyGWF
	PolicyMTS      = sim.PolicyMTS
)

// MaxWeight bounds per-core arbitration weights (Config.Weights entries:
// lottery tickets and the fairness zoo's entitlements).
const MaxWeight = sim.MaxWeight

// Timescale is one token bucket of an MTS bandwidth profile
// (Config.MTSTimescales).
type Timescale = arbiter.Timescale

// DefaultTimescales is the MTS policy's built-in two-timescale profile.
func DefaultTimescales() []Timescale { return arbiter.DefaultTimescales() }

// CBA variants for Config.Credit.Kind.
const (
	// CreditOff disables credit-based arbitration.
	CreditOff = sim.CreditOff
	// CreditCBA is homogeneous CBA (every core refills 1/N per cycle).
	CreditCBA = sim.CreditCBA
	// CreditHCBAWeights is H-CBA via heterogeneous refill weights
	// (§III.A variant 2; the paper's 1/2-vs-1/6 evaluation setting).
	CreditHCBAWeights = sim.CreditHCBAWeights
	// CreditHCBACap is H-CBA via a raised budget cap (§III.A variant 1).
	CreditHCBACap = sim.CreditHCBACap
)

// DefaultConfig returns the paper's platform: a 4-core LEON3-like multicore
// with 4 KiB L1 data caches, 32 KiB L2 partitions, 5/28-cycle transaction
// latencies (MaxL = 56) and random-permutations arbitration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// RunIsolation executes prog alone on the platform (the paper's ISO
// scenario) and returns its execution time and diagnostics.
func RunIsolation(cfg Config, prog Program, seed uint64) (Result, error) {
	return new(sim.Runner).Run(cfg, sim.RunSpec{Kind: sim.KindIsolation, Program: prog, Seed: seed})
}

// RunMaxContention executes prog against the paper's Table I contention
// injectors (WCET-estimation mode): every other core constantly requests
// maximum-length transactions, gated by the COMP latches when CBA is on.
func RunMaxContention(cfg Config, prog Program, seed uint64) (Result, error) {
	return new(sim.Runner).Run(cfg, sim.RunSpec{Kind: sim.KindWCET, Program: prog, Seed: seed})
}

// RunWorkloads executes one program per core (operation-mode contention)
// and reports the result of the task on cfg.TuA.
func RunWorkloads(cfg Config, programs []Program, seed uint64) (Result, error) {
	return new(sim.Runner).Run(cfg, sim.RunSpec{Kind: sim.KindWorkloads, Programs: programs, Seed: seed})
}

// Loop wraps a program so it restarts forever — for co-runner tasks that
// must generate contention for a whole run.
func Loop(p Program) Program { return sim.NewLooped(p) }

// Workloads lists the bundled benchmark generators (EEMBC-Autobench-like
// kernels plus synthetic stressors).
func Workloads() []string { return workload.Names() }

// WorkloadDescription returns the documentation line of a bundled workload.
func WorkloadDescription(name string) (string, error) {
	s, ok := workload.ByName(name)
	if !ok {
		return "", fmt.Errorf("creditbus: unknown workload %q", name)
	}
	return s.Description, nil
}

// BuildWorkload instantiates a bundled workload. The seed fixes the
// program's own randomness (its "binary"); run-to-run variability comes
// from the run seed passed to the Run functions.
func BuildWorkload(name string, seed uint64) (Program, error) {
	tr, err := workload.Build(name, seed, 0)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// PWCET is a fitted MBPTA analysis: Gumbel tail model, i.i.d. diagnostics
// and pWCET quantiles.
type PWCET = mbpta.Analysis

// AnalyzeWCET fits the MBPTA pipeline (block maxima + Gumbel) to a set of
// execution-time measurements. Block 20 is customary for ~1000-run
// campaigns; use Runs/20 for smaller ones.
func AnalyzeWCET(samples []float64, block int) (PWCET, error) {
	return mbpta.Analyze(samples, block)
}

// Campaign tunes multi-run measurement collection. The zero value runs
// with one worker per schedulable CPU and no progress reporting.
type Campaign struct {
	// Workers is the number of simulations in flight; 0 means GOMAXPROCS,
	// 1 forces the serial path. Parallel campaigns produce bit-identical
	// sample vectors to serial ones: every run derives its own seed and
	// builds its own platform, and results are ordered by run index.
	Workers int
	// Progress, when non-nil, is called after each completed run with
	// (done, total), serialised and with done strictly increasing.
	Progress func(done, total int)
}

// CollectMaxContention runs a workload under maximum contention `runs`
// times with derived per-run seeds and returns the execution times in run
// order — the measurement protocol of §III.B, fanned out over c.Workers.
//
// When prog supports cloning (every Program built by this package does),
// each run executes an independent instance and runs proceed in parallel;
// a non-cloneable user Program degrades to the serial Reset-per-run loop,
// which yields the same samples.
func (c Campaign) CollectMaxContention(cfg Config, prog Program, runs int, seed uint64) ([]float64, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("creditbus: runs = %d", runs)
	}
	opts := campaign.Options[*sim.Runner]{
		Workers:        c.Workers,
		Progress:       c.Progress,
		PerWorkerState: func() *sim.Runner { return new(sim.Runner) },
	}
	instance := func() Program { p, _ := cpu.TryClone(prog); return p }
	if _, ok := cpu.TryClone(prog); !ok {
		// No independent instances available: run serially on the shared
		// program, which Runner.Run rewinds before every run — the
		// historical loop.
		opts.Workers = 1
		instance = func() Program { return prog }
	}
	return campaign.Do(opts, runs, func(rn *sim.Runner, r int) (float64, error) {
		res, err := rn.Run(cfg, sim.RunSpec{Kind: sim.KindWCET, Program: instance(), Seed: seed + uint64(r)*campaign.SeedStride})
		if err != nil {
			return 0, err
		}
		return float64(res.TaskCycles), nil
	})
}

// CollectMaxContention runs a workload under maximum contention `runs`
// times with derived per-run seeds and returns the execution times — the
// measurement protocol of §III.B. It parallelises across GOMAXPROCS
// workers; use a Campaign to control worker count or observe progress.
func CollectMaxContention(cfg Config, prog Program, runs int, seed uint64) ([]float64, error) {
	return Campaign{}.CollectMaxContention(cfg, prog, runs, seed)
}

// CreditArbiter exposes the raw CBA filter for users embedding it in their
// own interconnect models: budgets, eligibility, analytic share and
// starvation bounds.
type CreditArbiter = core.Arbiter

// CreditConfig configures a raw CreditArbiter.
type CreditConfig = core.Config

// NewCreditArbiter builds a raw CBA filter. HomogeneousCredit,
// core-weighted and cap-raised configurations are available through
// CreditConfig (see the core package documentation mirrored on the type).
func NewCreditArbiter(cfg CreditConfig) (*CreditArbiter, error) { return core.New(cfg) }

// HomogeneousCredit returns the paper's base CBA configuration for n
// masters and a maximum hold time.
func HomogeneousCredit(n int, maxHold int64) CreditConfig { return core.Homogeneous(n, maxHold) }
