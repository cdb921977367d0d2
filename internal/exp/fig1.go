package exp

import (
	"fmt"

	"creditbus/internal/campaign"
	"creditbus/internal/cpu"
	"creditbus/internal/sim"
	"creditbus/internal/stats"
	"creditbus/internal/workload"
)

// Fig1Configs lists the six bars of the paper's Figure 1, in the figure's
// legend order: random permutations, homogeneous CBA and heterogeneous CBA
// (TuA gets 50% bandwidth), each in isolation and under maximum contention.
var Fig1Configs = []string{"RP-ISO", "CBA-ISO", "H-CBA-ISO", "RP-CON", "CBA-CON", "H-CBA-CON"}

// Fig1Cell is one bar: mean normalised execution time and its 95% CI half
// width (in normalised units).
type Fig1Cell struct {
	Mean float64
	CI   float64
}

// Fig1Row is one benchmark's six bars, normalised to the benchmark's RP-ISO
// mean ("performance normalized to the result obtained for RP in
// isolation", §IV.B).
type Fig1Row struct {
	Benchmark   string
	RPISOCycles float64 // the normalisation baseline, in cycles
	Cells       map[string]Fig1Cell
}

// fig1Config maps a configuration name to the platform setup and run kind.
func fig1Config(name string, opts Options) (sim.Config, sim.Kind, error) {
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PolicyRandomPerm
	cfg.ForcePerCycle = opts.PerCycle
	kind := sim.KindIsolation
	switch name {
	case "RP-ISO":
	case "CBA-ISO":
		cfg.Credit.Kind = sim.CreditCBA
	case "H-CBA-ISO":
		cfg.Credit.Kind = sim.CreditHCBAWeights
	case "RP-CON":
		kind = sim.KindWCET
	case "CBA-CON":
		cfg.Credit.Kind = sim.CreditCBA
		kind = sim.KindWCET
	case "H-CBA-CON":
		cfg.Credit.Kind = sim.CreditHCBAWeights
		kind = sim.KindWCET
	default:
		return sim.Config{}, "", fmt.Errorf("exp: unknown Figure 1 configuration %q", name)
	}
	return cfg, kind, nil
}

// Fig1 reruns the paper's Figure 1 campaign: every Figure 1 benchmark under
// all six configurations, opts.Runs randomised runs each.
func Fig1(opts Options) ([]Fig1Row, error) {
	var names []string
	for _, s := range workload.FigureOneSet() {
		names = append(names, s.Name)
	}
	return fig1Campaign(opts, names)
}

// Fig1Extended runs the Figure 1 campaign over the full EEMBC-Autobench-like
// suite (ten kernels) — an extension beyond the paper's four plotted
// benchmarks, exercising the same configurations on lighter and heavier
// traffic shapes.
func Fig1Extended(opts Options) ([]Fig1Row, error) {
	return fig1Campaign(opts, []string{
		"a2time", "aifirf", "bitmnp", "cacheb", "canrdr",
		"matrix", "puwmod", "rspeed", "tblook", "ttsprk",
	})
}

func fig1Campaign(opts Options, names []string) ([]Fig1Row, error) {
	opts = opts.withDefaults()
	nCfg, nRun := len(Fig1Configs), opts.Runs

	// Resolve the six configurations and build each benchmark's trace once;
	// every run executes its own clone of the relevant base trace.
	type setup struct {
		cfg  sim.Config
		kind sim.Kind
	}
	setups := make([]setup, nCfg)
	for ci, name := range Fig1Configs {
		cfg, kind, err := fig1Config(name, opts)
		if err != nil {
			return nil, err
		}
		setups[ci] = setup{cfg: cfg, kind: kind}
	}
	bases := make([]*cpu.Trace, len(names))
	for bi, name := range names {
		tr, err := workload.Build(name, 1, opts.MaxOps)
		if err != nil {
			return nil, err
		}
		bases[bi] = tr
	}

	// One flat job grid — benchmark-major, then configuration, then run,
	// matching the historical nested loop so that seeds and aggregation
	// order (and therefore every reported digit) are unchanged. Each worker
	// recycles one machine across its slice of the grid (runs of one
	// configuration are contiguous, so the pooled machine's platform rarely
	// changes shape mid-slice).
	jobs := len(names) * nCfg * nRun
	samples, err := campaign.Do(campaign.Options[*sim.Runner]{
		Workers:        opts.Workers,
		Progress:       opts.Progress,
		PerWorkerState: func() *sim.Runner { return new(sim.Runner) },
	}, jobs,
		func(rn *sim.Runner, j int) (int64, error) {
			bi, ci, r := j/(nCfg*nRun), (j/nRun)%nCfg, j%nRun
			seed := opts.runSeed(bi*nCfg+ci, r)
			res, err := rn.Run(setups[ci].cfg, sim.RunSpec{Kind: setups[ci].kind, Program: bases[bi].Clone(), Seed: seed})
			if err != nil {
				return 0, fmt.Errorf("exp: %s/%s run %d: %w", names[bi], Fig1Configs[ci], r, err)
			}
			return res.TaskCycles, nil
		})
	if err != nil {
		return nil, err
	}

	rows := make([]Fig1Row, 0, len(names))
	for bi, name := range names {
		means := map[string]*stats.Exact{}
		for ci, cfgName := range Fig1Configs {
			acc := &stats.Exact{}
			for r := 0; r < nRun; r++ {
				acc.Add(samples[(bi*nCfg+ci)*nRun+r])
			}
			means[cfgName] = acc
		}

		base := means["RP-ISO"].Mean()
		row := Fig1Row{Benchmark: name, RPISOCycles: base, Cells: map[string]Fig1Cell{}}
		for _, cfgName := range Fig1Configs {
			acc := means[cfgName]
			row.Cells[cfgName] = Fig1Cell{
				Mean: acc.Mean() / base,
				CI:   acc.CI95HalfWidth() / base,
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig1Summary extracts the headline numbers the paper quotes from the
// figure: the worst contention slowdown without and with CBA, and the
// average isolation overhead of CBA.
type Fig1Summary struct {
	// MaxRPCon is the worst RP-CON slowdown (paper: 3.34×, matrix).
	MaxRPCon float64
	// MaxRPConBench names the benchmark attaining it.
	MaxRPConBench string
	// MaxCBACon is the worst CBA-CON slowdown (paper: 2.34×).
	MaxCBACon float64
	// MaxCBAConBench names the benchmark attaining it.
	MaxCBAConBench string
	// MaxHCBACon is the worst H-CBA-CON slowdown (paper: below CBA-CON).
	MaxHCBACon float64
	// AvgCBAIso is the average CBA-ISO overhead (paper: ~1.03×).
	AvgCBAIso float64
	// AvgHCBAIso is the average H-CBA-ISO overhead (paper: ≈1.00×).
	AvgHCBAIso float64
}

// Summarise computes the headline numbers from Figure 1 rows.
func Summarise(rows []Fig1Row) Fig1Summary {
	var s Fig1Summary
	var cbaIso, hcbaIso float64
	for _, row := range rows {
		if v := row.Cells["RP-CON"].Mean; v > s.MaxRPCon {
			s.MaxRPCon, s.MaxRPConBench = v, row.Benchmark
		}
		if v := row.Cells["CBA-CON"].Mean; v > s.MaxCBACon {
			s.MaxCBACon, s.MaxCBAConBench = v, row.Benchmark
		}
		if v := row.Cells["H-CBA-CON"].Mean; v > s.MaxHCBACon {
			s.MaxHCBACon = v
		}
		cbaIso += row.Cells["CBA-ISO"].Mean
		hcbaIso += row.Cells["H-CBA-ISO"].Mean
	}
	if n := float64(len(rows)); n > 0 {
		s.AvgCBAIso = cbaIso / n
		s.AvgHCBAIso = hcbaIso / n
	}
	return s
}
