package exp

import (
	"fmt"

	"creditbus/internal/bus"
	"creditbus/internal/campaign"
	"creditbus/internal/cpu"
	"creditbus/internal/sim"
	"creditbus/internal/stats"
	"creditbus/internal/workload"
)

// FairnessPolicies lists the arbitration policies the fairness comparison
// puts side by side: the paper's slot-fair baselines (round-robin bare and
// under CBA), the weighted lottery, and the fairness zoo — proportional
// fair, general weighted fairness, and multi-timescale token buckets.
var FairnessPolicies = []string{"RR", "RR+CBA", "LOT", "PF", "GWF", "MTS"}

// FairnessWeights is the entitlement vector of the comparison scenario: the
// TuA on core 0 is entitled to half the bus (4 of 8 shares), core 3 to a
// quarter, cores 1-2 to an eighth each. The weighted policies are configured
// with exactly this vector; the slot-fair baselines ignore it, and their
// share error against it is the quantitative cost of that ignorance.
var FairnessWeights = []int64{4, 1, 1, 2}

// FairnessWindow is the observation window (in bus cycles) of the windowed
// Jain/share-error trajectories. 4096 cycles is ~tens of grants per master
// under the default 56-cycle MaxHold — long enough for shares to be
// meaningful, short enough to expose multi-timescale unfairness.
const FairnessWindow = 4096

// FairnessRow aggregates one policy's fairness metrics over opts.Runs
// randomised runs of the comparison scenario (mean over runs throughout).
type FairnessRow struct {
	Policy string
	// TaskCycles is the TuA's mean execution time — fairness is not free,
	// and this column prices it.
	TaskCycles float64
	// JainOverall is Jain's index of the run-level bandwidth shares.
	JainOverall float64
	// ShareErr is the run-level total-variation distance between observed
	// shares and the FairnessWeights entitlement, in [0, 1].
	ShareErr float64
	// MaxWindowShareErr and MeanWindowShareErr summarise the per-window
	// share-error trajectory (window = FairnessWindow cycles).
	MaxWindowShareErr  float64
	MeanWindowShareErr float64
	// MaxStarveAge is the worst grant-to-grant gap (cycles) any master
	// suffered, mean over runs.
	MaxStarveAge float64
	// TuAShare is the TuA's observed fraction of held bus cycles
	// (entitlement: 0.5).
	TuAShare float64
}

// fairnessConfig resolves one policy name of FairnessPolicies.
func fairnessConfig(name string, opts Options) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.ForcePerCycle = opts.PerCycle
	switch name {
	case "RR":
		cfg.Policy = sim.PolicyRoundRobin
	case "RR+CBA":
		cfg.Policy = sim.PolicyRoundRobin
		cfg.Credit.Kind = sim.CreditCBA
	case "LOT":
		cfg.Policy = sim.PolicyLottery
		cfg.Weights = FairnessWeights
	case "PF":
		cfg.Policy = sim.PolicyPropFair
		cfg.Weights = FairnessWeights
		// The classic β = 0.5 average forgets a grant within a couple of
		// slots — too fast to sustain a 4:1 rate split, so PF with the
		// default shift behaves near slot-fair. A slower average (β = 2⁻⁶)
		// lets the rate estimates actually separate by weight.
		cfg.PFAvgShift = 6
	case "GWF":
		cfg.Policy = sim.PolicyGWF
		cfg.Weights = FairnessWeights
	case "MTS":
		cfg.Policy = sim.PolicyMTS
		cfg.Weights = FairnessWeights
	default:
		return sim.Config{}, fmt.Errorf("exp: unknown fairness policy %q", name)
	}
	return cfg, nil
}

// fairnessPrograms builds the comparison scenario's per-core programs: four
// bus-saturating streamers (the TuA's unlooped, the co-runners looped), so no
// master's demand caps its share and the arbiter — not demand — decides
// whether each master reaches its entitlement. A demand-limited master would
// donate its unused entitlement and put a policy-independent floor under the
// share error, hiding exactly the differences this experiment measures.
func fairnessPrograms(opts Options) ([]cpu.Program, error) {
	names := []string{"stream", "stream", "stream", "stream"}
	programs := make([]cpu.Program, len(names))
	for i, n := range names {
		tr, err := workload.Build(n, 1, opts.MaxOps)
		if err != nil {
			return nil, err
		}
		var p cpu.Program = tr
		if i > 0 {
			p = sim.NewLooped(p)
		}
		programs[i] = p
	}
	return programs, nil
}

// FairnessComparison runs the comparison scenario under every
// FairnessPolicies entry, opts.Runs randomised runs each, instrumenting the
// full grant stream with stats.Fairness.
func FairnessComparison(opts Options) ([]FairnessRow, error) {
	opts = opts.withDefaults()
	nCfg, nRun := len(FairnessPolicies), opts.Runs

	cfgs := make([]sim.Config, nCfg)
	for ci, name := range FairnessPolicies {
		cfg, err := fairnessConfig(name, opts)
		if err != nil {
			return nil, err
		}
		cfgs[ci] = cfg
	}
	protos, err := fairnessPrograms(opts)
	if err != nil {
		return nil, err
	}

	type sample struct {
		task                            float64
		jain, shareErr, maxWin, meanWin float64
		maxStarve                       float64
		tuaShare                        float64
	}
	jobs := nCfg * nRun
	samples, err := campaign.Do(campaign.Options[*sim.Runner]{
		Workers:        opts.Workers,
		Progress:       opts.Progress,
		PerWorkerState: func() *sim.Runner { return new(sim.Runner) },
	}, jobs,
		func(rn *sim.Runner, j int) (sample, error) {
			ci, r := j/nRun, j%nRun
			seed := opts.runSeed(ci, r)
			programs := make([]cpu.Program, len(protos))
			for i, p := range protos {
				c, ok := cpu.TryClone(p)
				if !ok {
					return sample{}, fmt.Errorf("exp: fairness program %d does not clone", i)
				}
				programs[i] = c
			}
			mon := stats.NewFairness(cfgs[ci].Cores, FairnessWindow, FairnessWeights)
			var lastEnd int64
			res, err := rn.Run(cfgs[ci], sim.RunSpec{Kind: sim.KindWorkloads, Programs: programs, Seed: seed, OnGrant: func(ev bus.GrantEvent) {
				mon.OnGrant(ev.Master, ev.Cycle, ev.Hold)
				if end := ev.Cycle + ev.Hold; end > lastEnd {
					lastEnd = end
				}
			}})
			if err != nil {
				return sample{}, fmt.Errorf("exp: fairness %s run %d: %w", FairnessPolicies[ci], r, err)
			}
			end := res.WallCycles
			if lastEnd > end {
				end = lastEnd
			}
			rep := mon.Finish(end)
			return sample{
				task:      float64(res.TaskCycles),
				jain:      rep.JainOverall,
				shareErr:  rep.ShareErr,
				maxWin:    rep.MaxShareErr,
				meanWin:   rep.MeanShareErr,
				maxStarve: float64(rep.MaxStarveAge),
				tuaShare:  rep.Share[0],
			}, nil
		})
	if err != nil {
		return nil, err
	}

	rows := make([]FairnessRow, 0, nCfg)
	for ci, name := range FairnessPolicies {
		row := FairnessRow{Policy: name}
		for r := 0; r < nRun; r++ {
			s := samples[ci*nRun+r]
			row.TaskCycles += s.task
			row.JainOverall += s.jain
			row.ShareErr += s.shareErr
			row.MaxWindowShareErr += s.maxWin
			row.MeanWindowShareErr += s.meanWin
			row.MaxStarveAge += s.maxStarve
			row.TuAShare += s.tuaShare
		}
		n := float64(nRun)
		row.TaskCycles /= n
		row.JainOverall /= n
		row.ShareErr /= n
		row.MaxWindowShareErr /= n
		row.MeanWindowShareErr /= n
		row.MaxStarveAge /= n
		row.TuAShare /= n
		rows = append(rows, row)
	}
	return rows, nil
}
