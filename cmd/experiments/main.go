// Command experiments regenerates every quantitative artefact of the paper
// and prints the same rows/series the paper reports, side by side with the
// paper's quoted values. See DESIGN.md §5 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	experiments                  # run everything with default settings
//	experiments -exp fig1 -runs 100
//	experiments -exp ill,sweep
//	experiments -scenario s.json # run one declarative scenario instead
//
// Campaigns run on the event-horizon stepping engine (DESIGN.md §6),
// bit-identical to per-cycle simulation; -fast=false forces the per-cycle
// reference engine, -parallel N sizes the worker pool. -scenario runs a
// declarative scenario file (internal/scenario, DESIGN.md §7) through the
// same campaign machinery and prints its per-seed results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"creditbus/internal/exp"
	"creditbus/internal/report"
	"creditbus/internal/scenario"
	"creditbus/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		which    = fs.String("exp", "all", "comma-separated: ill,table1,fig1,fig1x,sweep,overhead,mbpta,hcba,fairness or all (fig1x = full 10-kernel suite, not in all)")
		runs     = fs.Int("runs", 30, "randomised runs per configuration (the paper uses 1000)")
		seed     = fs.Uint64("seed", 0, "base seed (0 = default)")
		bench    = fs.String("mbpta-bench", "matrix", "benchmark for the MBPTA experiment")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "simulation runs in flight (campaign workers; 1 = serial, results are identical at any setting)")
		progress = fs.Bool("progress", false, "report campaign progress on stderr")
		fast     = fs.Bool("fast", true, "event-horizon stepping (bit-identical to per-cycle; -fast=false forces the per-cycle reference engine)")
		scen     = fs.String("scenario", "", "run this declarative scenario JSON instead of the named experiments (DESIGN.md §7)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	emit := func(t *report.Table) error {
		var err error
		if *csv {
			err = t.WriteCSV(stdout)
		} else {
			err = t.Fprint(stdout)
		}
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout)
		return err
	}

	if *scen != "" {
		// The scenario file defines the experiment; flags that would
		// silently lose to it are conflicts, not overrides (matching
		// cbasim). -csv/-parallel/-progress/-fast remain applicable.
		conflicting := map[string]bool{"exp": true, "runs": true, "seed": true, "mbpta-bench": true}
		conflicts, fastSet := scenario.ScanFlags(fs, conflicting)
		if len(conflicts) > 0 {
			return fmt.Errorf("-scenario %s conflicts with %s: the file defines the experiment", *scen, strings.Join(conflicts, ", "))
		}
		return runScenario(*scen, *parallel, fastSet, *fast, *progress, stderr, emit)
	}

	opts := exp.Options{Runs: *runs, Seed: *seed, Workers: *parallel, PerCycle: !*fast}
	if *progress {
		opts.Progress = progressLine(stderr)
	}
	known := map[string]bool{
		"all": true, "ill": true, "table1": true, "fig1": true, "fig1x": true,
		"sweep": true, "overhead": true, "mbpta": true, "hcba": true,
		"fairness": true,
	}
	selected := map[string]bool{}
	for _, s := range strings.Split(*which, ",") {
		name := strings.TrimSpace(s)
		if name == "" {
			continue
		}
		if !known[name] {
			return fmt.Errorf("unknown experiment %q (have ill,table1,fig1,fig1x,sweep,overhead,mbpta,hcba,fairness or all)", name)
		}
		selected[name] = true
	}
	all := selected["all"]

	if all || selected["ill"] {
		if err := runIllustrative(emit); err != nil {
			return err
		}
	}
	if all || selected["table1"] {
		if err := runTable1(emit); err != nil {
			return err
		}
	}
	if all || selected["fig1"] {
		if err := runFig1(opts, emit); err != nil {
			return err
		}
	}
	if selected["fig1x"] {
		if err := runFig1Extended(opts, emit); err != nil {
			return err
		}
	}
	if all || selected["sweep"] {
		if err := runSweep(opts, emit); err != nil {
			return err
		}
	}
	if all || selected["overhead"] {
		if err := runOverhead(emit); err != nil {
			return err
		}
	}
	if all || selected["mbpta"] {
		if err := runMBPTA(opts, *bench, emit); err != nil {
			return err
		}
	}
	if all || selected["hcba"] {
		if err := runHCBA(opts, emit); err != nil {
			return err
		}
	}
	if all || selected["fairness"] {
		if err := runFairness(opts, emit); err != nil {
			return err
		}
	}
	return nil
}

// progressLine writes \r-updating campaign progress to w.
func progressLine(w io.Writer) func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(w, "\rcampaign: %d/%d runs", done, total)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}

// runScenario executes one declarative scenario through the campaign
// engine and prints its per-seed results plus summary statistics.
func runScenario(path string, parallel int, fastSet, fast, progress bool, stderr io.Writer, emit func(*report.Table) error) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if fastSet {
		spec.Engine = scenario.EngineForFast(fast)
	}
	compiled, err := spec.Compile()
	if err != nil {
		return err
	}
	var prog func(done, total int)
	if progress {
		prog = progressLine(stderr)
	}
	results, err := compiled.Results(parallel, prog)
	if err != nil {
		return err
	}

	title := fmt.Sprintf("EXP-SCN — scenario %s (%s run, TuA core %d)", spec.Name, spec.Run, compiled.TuA())
	t := report.NewTable(title, "seed", "task cycles", "wall cycles", "bus util", "l1 hit", "l2 hit", "max wait")
	var acc stats.Exact
	for i, r := range results {
		acc.Add(r.TaskCycles)
		t.AddRow(
			fmt.Sprint(compiled.Seeds[i]),
			fmt.Sprint(r.TaskCycles),
			fmt.Sprint(r.WallCycles),
			fmt.Sprintf("%.3f", r.Utilisation),
			fmt.Sprintf("%.3f", r.L1HitRate),
			fmt.Sprintf("%.3f", r.L2HitRate),
			fmt.Sprint(r.Bus.MaxWait),
		)
	}
	if err := emit(t); err != nil {
		return err
	}
	s := report.NewTable("EXP-SCN — summary", "quantity", "value")
	s.AddRowf("runs", len(results))
	s.AddRowf("mean task cycles", fmt.Sprintf("%.0f", acc.Mean()))
	s.AddRowf("95% CI half-width", fmt.Sprintf("%.0f", acc.CI95HalfWidth()))
	s.AddRowf("min", fmt.Sprint(acc.Min()))
	s.AddRowf("max", fmt.Sprint(acc.Max()))
	return emit(s)
}

func runIllustrative(emit func(*report.Table) error) error {
	r := exp.Illustrative()
	t := report.NewTable(
		"EXP-ILL — §II illustrative example (TuA: 1000×6-cycle requests, 3 streaming 28-cycle contenders)",
		"quantity", "paper", "measured")
	t.AddRowf("isolation cycles", 10000, r.IsoCycles)
	t.AddRowf("round-robin contention cycles", "94000 (arithmetic)", r.RRCycles)
	t.AddRowf("round-robin slowdown", exp.PaperRRSlowdown, r.RRSlowdown)
	t.AddRowf("CBA contention cycles", "28000 (fluid limit)", r.CBACycles)
	t.AddRowf("CBA slowdown", exp.PaperCBASlowdown, r.CBASlowdown)
	return emit(t)
}

func runTable1(emit func(*report.Table) error) error {
	// Table I itself is a signal inventory; its semantics are verified by
	// `go test ./internal/core -run 'TestTableI|TestBudget'`. Here we print
	// the inventory with the implementation's values.
	t := report.NewTable("EXP-T1 — Table I signal inventory (verified by internal/core tests)",
		"signal", "every cycle", "when using bus", "wcet mode", "operation mode")
	t.AddRow("BUDG_i", "min(BUDG_i+1, 224¹)", "BUDG_i − 4", "TuA starts at 0", "starts full")
	t.AddRow("COMP_1", "—", "—", "— (always competes)", "1")
	t.AddRow("COMP_{2,3,4}", "latch: BUDG_i==cap ∧ REQ_1", "reset on grant", "as latched", "1")
	t.AddRow("REQ_1", "", "", "when request ready", "when request ready")
	t.AddRow("REQ_{2,3,4}", "", "", "1 (56-cycle holds)", "when request ready")
	t.AddRow("¹ paper prints 228 '(56x4)'; 56×4 = 224 — see DESIGN.md", "", "", "", "")
	return emit(t)
}

func runFig1(opts exp.Options, emit func(*report.Table) error) error {
	rows, err := exp.Fig1(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("EXP-F1 — Figure 1: normalised average execution time (%d runs/bar, paper: 1000)", opts.Runs),
		append([]string{"benchmark"}, exp.Fig1Configs...)...)
	for _, row := range rows {
		cells := []string{row.Benchmark}
		for _, cfg := range exp.Fig1Configs {
			c := row.Cells[cfg]
			cells = append(cells, fmt.Sprintf("%.2f±%.2f", c.Mean, c.CI))
		}
		t.AddRow(cells...)
	}
	if err := emit(t); err != nil {
		return err
	}

	s := exp.Summarise(rows)
	t2 := report.NewTable("EXP-F1 — headline numbers", "quantity", "paper", "measured")
	t2.AddRowf("worst RP-CON slowdown", "3.34 (matrix)", fmt.Sprintf("%.2f (%s)", s.MaxRPCon, s.MaxRPConBench))
	t2.AddRowf("worst CBA-CON slowdown", "2.34", fmt.Sprintf("%.2f (%s)", s.MaxCBACon, s.MaxCBAConBench))
	t2.AddRowf("worst H-CBA-CON slowdown", "< CBA-CON", fmt.Sprintf("%.2f", s.MaxHCBACon))
	t2.AddRowf("average CBA-ISO overhead", "1.03", fmt.Sprintf("%.3f", s.AvgCBAIso))
	t2.AddRowf("average H-CBA-ISO overhead", "≈1.00", fmt.Sprintf("%.3f", s.AvgHCBAIso))
	return emit(t2)
}

func runFig1Extended(opts exp.Options, emit func(*report.Table) error) error {
	rows, err := exp.Fig1Extended(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("EXP-F1X — extension: Figure 1 configurations over the full kernel suite (%d runs/bar)", opts.Runs),
		append([]string{"benchmark"}, exp.Fig1Configs...)...)
	for _, row := range rows {
		cells := []string{row.Benchmark}
		for _, cfg := range exp.Fig1Configs {
			c := row.Cells[cfg]
			cells = append(cells, fmt.Sprintf("%.2f±%.2f", c.Mean, c.CI))
		}
		t.AddRow(cells...)
	}
	return emit(t)
}

func runSweep(opts exp.Options, emit func(*report.Table) error) error {
	pts := exp.Sweep(opts)
	t := report.NewTable(
		"EXP-SWEEP — TuA slowdown vs contender request length (§I: slot-fair slowdown is 'virtually unbounded')",
		append([]string{"contender hold"}, exp.SweepPolicies...)...)
	for _, pt := range pts {
		cells := []string{fmt.Sprint(pt.ContenderHold)}
		for _, p := range exp.SweepPolicies {
			cells = append(cells, fmt.Sprintf("%.2f", pt.Slowdown[p]))
		}
		t.AddRow(cells...)
	}
	return emit(t)
}

func runOverhead(emit func(*report.Table) error) error {
	r := exp.Overhead()
	t := report.NewTable(
		"EXP-OVH — implementation overheads (substitute for the paper's FPGA synthesis, see DESIGN.md §2)",
		"quantity", "paper", "measured")
	t.AddRowf("CBA state per core", "8-bit counter + COMP bit", fmt.Sprintf("%d bits", r.StateBitsPerCore))
	t.AddRowf("CBA state total (4 cores)", "—", fmt.Sprintf("%d bits", r.StateBitsTotal))
	t.AddRowf("FPGA occupancy growth", "< 0.1%", "n/a (simulator)")
	t.AddRowf("bus cycle cost, RP", "—", fmt.Sprintf("%.1f ns", r.NsPerDecision["RP"]))
	t.AddRowf("bus cycle cost, RP+CBA", "fmax kept at 100 MHz", fmt.Sprintf("%.1f ns", r.NsPerDecision["RP+CBA"]))
	return emit(t)
}

func runMBPTA(opts exp.Options, bench string, emit func(*report.Table) error) error {
	mopts := opts
	if mopts.Runs < 100 {
		mopts.Runs = 100 // EVT needs a real campaign
	}
	r, err := exp.MBPTAExperiment(mopts, bench)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("EXP-MBPTA — pWCET for %s under maximum contention (%d runs, block %d)",
			r.Benchmark, r.Runs, r.Block),
		"exceedance prob/run", "RP pWCET", "RP+CBA pWCET")
	for i := range r.RPCurve {
		t.AddRow(
			fmt.Sprintf("1e-%d", i+3),
			fmt.Sprintf("%.0f", r.RPCurve[i].WCET),
			fmt.Sprintf("%.0f", r.CBACurve[i].WCET),
		)
	}
	if err := emit(t); err != nil {
		return err
	}
	t2 := report.NewTable("EXP-MBPTA — diagnostics", "quantity", "RP", "RP+CBA")
	t2.AddRowf("i.i.d. checks pass", r.RP.IID.Pass(), r.CBA.IID.Pass())
	t2.AddRowf("lag-1 autocorrelation", r.RP.IID.Lag1, r.CBA.IID.Lag1)
	t2.AddRowf("KS half-split statistic", r.RP.IID.KS, r.CBA.IID.KS)
	t2.AddRowf("Gumbel location μ", r.RP.Fit.Mu, r.CBA.Fit.Mu)
	t2.AddRowf("Gumbel scale σ", r.RP.Fit.Sigma, r.CBA.Fit.Sigma)
	return emit(t2)
}

func runFairness(opts exp.Options, emit func(*report.Table) error) error {
	rows, err := exp.FairnessComparison(opts)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("EXP-FAIR — fairness zoo vs slot-fair baselines (entitlement %v, window %d cy, %d runs/policy)",
			exp.FairnessWeights, exp.FairnessWindow, opts.Runs),
		"policy", "TuA cycles", "TuA share (ent 0.500)", "Jain", "share err", "win err max", "win err mean", "max starve (cy)")
	for _, r := range rows {
		t.AddRow(r.Policy,
			fmt.Sprintf("%.0f", r.TaskCycles),
			fmt.Sprintf("%.3f", r.TuAShare),
			fmt.Sprintf("%.3f", r.JainOverall),
			fmt.Sprintf("%.3f", r.ShareErr),
			fmt.Sprintf("%.3f", r.MaxWindowShareErr),
			fmt.Sprintf("%.3f", r.MeanWindowShareErr),
			fmt.Sprintf("%.0f", r.MaxStarveAge),
		)
	}
	return emit(t)
}

func runHCBA(opts exp.Options, emit func(*report.Table) error) error {
	results := exp.HCBAAblation(opts)
	t := report.NewTable(
		"EXP-HCBA — §III.A heterogeneous allocation variants (bursty privileged task vs 3 streamers)",
		"variant", "burst latency (cy)", "back-to-back grants", "longest TuA occupancy run", "contender share")
	for _, r := range results {
		t.AddRow(r.Variant,
			fmt.Sprintf("%.0f", r.BurstLatency),
			fmt.Sprint(r.TuABackToBack),
			fmt.Sprint(r.TuAMaxRun),
			fmt.Sprintf("%.3f", r.ContenderShare),
		)
	}
	return emit(t)
}
