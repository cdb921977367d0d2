package exp

import (
	"fmt"

	"creditbus/internal/campaign"
	"creditbus/internal/mbpta"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// MBPTAResult is the §III.B experiment: pWCET estimation for a benchmark
// under maximum contention, with and without CBA. The paper's thesis is
// that CBA both reduces observed contention slowdowns and remains
// MBPTA-compatible (randomised arbitration ⇒ i.i.d.-looking execution
// times); with CBA the fitted tail should sit well below the baseline's
// for short-request workloads.
type MBPTAResult struct {
	Benchmark string
	Runs      int
	Block     int
	// RP and CBA are the fitted analyses for the baseline and CBA
	// configurations.
	RP, CBA mbpta.Analysis
	// RPCurve and CBACurve are pWCET bounds at 10^-3..10^-12 per run.
	RPCurve, CBACurve []mbpta.CurvePoint
}

// MBPTAExperiment collects opts.Runs maximum-contention execution times of
// the named benchmark under RP and RP+CBA and fits both tails.
func MBPTAExperiment(opts Options, benchmark string) (MBPTAResult, error) {
	opts = opts.withDefaults()
	trace, err := workload.Build(benchmark, 1, opts.MaxOps)
	if err != nil {
		return MBPTAResult{}, err
	}

	collect := func(withCBA bool, cfgIdx int) ([]float64, error) {
		cfg := sim.DefaultConfig()
		cfg.Policy = sim.PolicyRandomPerm
		cfg.ForcePerCycle = opts.PerCycle
		if withCBA {
			cfg.Credit.Kind = sim.CreditCBA
		}
		return campaign.Do(campaign.Options[*sim.Runner]{
			Workers:        opts.Workers,
			Progress:       opts.Progress,
			PerWorkerState: func() *sim.Runner { return new(sim.Runner) },
		}, opts.Runs, func(rn *sim.Runner, r int) (float64, error) {
			res, err := rn.Run(cfg, sim.RunSpec{Kind: sim.KindWCET, Program: trace.Clone(), Seed: opts.runSeed(1000+cfgIdx, r)})
			if err != nil {
				return 0, err
			}
			return float64(res.TaskCycles), nil
		})
	}

	rpSamples, err := collect(false, 0)
	if err != nil {
		return MBPTAResult{}, err
	}
	cbaSamples, err := collect(true, 1)
	if err != nil {
		return MBPTAResult{}, err
	}

	// Block size: the customary 20 for large campaigns, scaled down so
	// that at least 10 maxima remain for the fit.
	block := opts.Runs / 20
	if block > 20 {
		block = 20
	}
	if block < 2 {
		block = 2
	}

	rp, err := mbpta.Analyze(rpSamples, block)
	if err != nil {
		return MBPTAResult{}, fmt.Errorf("exp: RP fit: %w", err)
	}
	cba, err := mbpta.Analyze(cbaSamples, block)
	if err != nil {
		return MBPTAResult{}, fmt.Errorf("exp: CBA fit: %w", err)
	}
	return MBPTAResult{
		Benchmark: benchmark,
		Runs:      opts.Runs,
		Block:     block,
		RP:        rp,
		CBA:       cba,
		RPCurve:   rp.Curve(10),
		CBACurve:  cba.Curve(10),
	}, nil
}
