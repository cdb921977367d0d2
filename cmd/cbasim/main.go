// Command cbasim runs a single simulation configuration and prints its
// statistics: execution time, bus shares and traffic mix. It is the
// low-level companion to cmd/experiments.
//
// The configuration is a declarative scenario (internal/scenario, DESIGN.md
// §7): either loaded from a JSON file, or assembled in memory from the
// classic flags — which are just spellings of the same spec.
//
// Usage:
//
//	cbasim -workload matrix -policy RP -credit cba -scenario con -runs 10
//	cbasim -scenario internal/scenario/testdata/corpus/hcba-weights-half.json
//
// Simulations use the event-horizon stepping engine (DESIGN.md §6),
// bit-identical to per-cycle simulation and ≥5× faster; pass -fast=false
// to force the per-cycle reference engine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"creditbus"
	"creditbus/internal/mem"
	"creditbus/internal/report"
	"creditbus/internal/scenario"
	"creditbus/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cbasim:", err)
		os.Exit(1)
	}
}

// scenarioFlags are the flags that describe the in-memory scenario; they
// conflict with loading one from a file.
var scenarioFlags = map[string]bool{
	"workload": true, "policy": true, "credit": true,
	"runs": true, "seed": true, "cores": true,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cbasim", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "matrix", "benchmark to run (see -list)")
		list         = fs.Bool("list", false, "list available workloads and exit")
		policy       = fs.String("policy", "RP", "arbitration policy: RR, FIFO, TDMA, LOT, RP, PRI, PF, GWF, MTS")
		credit       = fs.String("credit", "off", "CBA variant: off, cba, hcba-weights, hcba-cap")
		scen         = fs.String("scenario", "iso", "iso (isolation), con (maximum contention), or a path to a scenario JSON (DESIGN.md §7)")
		runs         = fs.Int("runs", 10, "randomised runs")
		seed         = fs.Uint64("seed", 20170327, "base seed")
		cores        = fs.Int("cores", 4, "number of cores")
		parallel     = fs.Int("parallel", runtime.GOMAXPROCS(0), "runs in flight (1 = serial; results are identical at any setting)")
		fast         = fs.Bool("fast", true, "event-horizon stepping (bit-identical to per-cycle; -fast=false forces the per-cycle reference engine)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	if *list {
		tbl := report.NewTable("Available workloads", "name", "description")
		for _, n := range creditbus.Workloads() {
			d, _ := creditbus.WorkloadDescription(n)
			tbl.AddRow(n, d)
		}
		return tbl.Fprint(stdout)
	}

	var spec scenario.Spec
	fromFile := strings.HasSuffix(*scen, ".json")
	conflicts, fastExplicit := scenario.ScanFlags(fs, scenarioFlags)
	if fromFile {
		// The file is the whole configuration; flags that would silently
		// lose to it are conflicts, not overrides.
		if len(conflicts) > 0 {
			return fmt.Errorf("-scenario %s conflicts with %s: the file defines the scenario", *scen, strings.Join(conflicts, ", "))
		}
		var err error
		spec, err = scenario.Load(*scen)
		if err != nil {
			return err
		}
	} else {
		runKind, ok := map[string]string{
			"iso": scenario.RunIsolation,
			"con": scenario.RunWCET,
		}[*scen]
		if !ok {
			return fmt.Errorf("unknown scenario %q (iso, con, or a *.json spec)", *scen)
		}
		if *runs <= 0 {
			// Seeds.Expand would quietly clamp this to one run; keep the
			// historical contract that -runs 0 is an error.
			return fmt.Errorf("-runs %d, need > 0", *runs)
		}
		if *cores <= 0 {
			// Spec.cores would quietly fall back to the default platform.
			return fmt.Errorf("-cores %d, need > 0", *cores)
		}
		spec = scenario.Spec{
			Name:   "cli",
			Cores:  *cores,
			Policy: *policy,
			Credit: &scenario.Credit{Kind: *credit},
			Run:    runKind,
			Workloads: []scenario.Workload{
				{Core: 0, Name: *workloadName},
			},
			Seeds: scenario.Seeds{Base: *seed, Runs: *runs},
		}
	}
	// -fast is an engine override, honoured for file scenarios only when
	// explicitly set on the command line.
	if fastExplicit || !fromFile {
		spec.Engine = scenario.EngineForFast(*fast)
	}

	compiled, err := spec.Compile()
	if err != nil {
		return err
	}
	results, err := compiled.Results(*parallel, nil)
	if err != nil {
		return err
	}

	var acc stats.Exact
	for _, res := range results {
		acc.Add(res.TaskCycles)
	}
	last := results[len(results)-1]

	creditName := "off"
	if spec.Credit != nil {
		creditName = spec.Credit.Kind
	}
	policyName := spec.Policy
	if policyName == "" {
		policyName = "RP"
	}
	fmt.Fprintf(stdout, "scenario=%s run=%s policy=%s credit=%s tua-workload=%s runs=%d\n",
		spec.Name, spec.Run, policyName, creditName, tuaWorkload(spec, compiled.TuA()), len(results))
	fmt.Fprintf(stdout, "execution time: mean=%.0f ±%.0f (95%% CI)  min=%d max=%d cycles\n",
		acc.Mean(), acc.CI95HalfWidth(), acc.Min(), acc.Max())
	fmt.Fprintf(stdout, "last run: util=%.3f l1=%.3f l2=%.3f bus-requests=%d max-wait=%d\n",
		last.Utilisation, last.L1HitRate, last.L2HitRate, last.Bus.Requests, last.Bus.MaxWait)
	tbl := report.NewTable("Bus traffic by kind (last run)", "kind", "count")
	for k, n := range last.MemCounts {
		tbl.AddRowf(mem.Kind(k).String(), n)
	}
	return tbl.Fprint(stdout)
}

// tuaWorkload names the program on the task-under-analysis core.
func tuaWorkload(spec scenario.Spec, tua int) string {
	for _, w := range spec.Workloads {
		if w.Core == tua {
			return w.Name
		}
	}
	return "?"
}
