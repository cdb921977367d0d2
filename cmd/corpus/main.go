// Command corpus runs the declarative scenario corpus — every *.json spec
// under a directory — in parallel through the campaign engine, and
// optionally verifies each scenario's results byte for byte against its
// golden snapshot (the same files internal/scenario's TestCorpusGolden
// pins; regenerate them with `go test ./internal/scenario -update`).
//
// Usage:
//
//	corpus                   # run the bundled corpus, print a summary
//	corpus -verify           # additionally diff against golden snapshots
//	corpus -engines both     # run fast AND per-cycle, assert equality
//	corpus -run hcba         # only scenarios whose name contains "hcba"
//
// With -campaign the command switches to sharded-campaign mode over a
// campaign spec file (internal/shard): each invocation is a shard worker,
// the merge coordinator, or the single-process reference, and workers
// checkpoint into a shared store so a killed worker resumes from its last
// complete chunk:
//
//	corpus -campaign sweep.json -shards 4 -shard 2 -checkpoint ck/
//	corpus -campaign sweep.json -shards 4 -merge -checkpoint ck/ -report out.json
//	corpus -campaign sweep.json -reference -report ref.json
//
// The merged report is byte-identical for any shard count and any
// kill/resume history, and equal to the -reference output.
//
// Exit status is non-zero on any load, run, equivalence or verification
// failure, which is what makes it a CI gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"

	"creditbus/internal/campaign"
	"creditbus/internal/report"
	"creditbus/internal/scenario"
	"creditbus/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		os.Exit(1)
	}
}

// job is one (scenario, seed) simulation in the flattened corpus campaign.
type job struct {
	spec *scenario.Compiled
	seed uint64
	// engine overrides the spec's own engine choice (scenario.EngineFast
	// or EnginePerCycle); empty honours the spec (-engines spec).
	engine string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("corpus", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", filepath.Join("internal", "scenario", "testdata", "corpus"), "scenario corpus directory")
		golden   = fs.String("golden", filepath.Join("internal", "scenario", "testdata", "golden"), "golden snapshot directory (-verify)")
		verify   = fs.Bool("verify", false, "diff results against the golden snapshots")
		engines  = fs.String("engines", "spec", "spec (each scenario's own engine), fast, per-cycle, or both (both asserts engine equality per seed)")
		filter   = fs.String("run", "", "only scenarios whose name contains this substring")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "simulations in flight across the whole corpus")
	)
	var cf campaignFlags
	registerCampaignFlags(fs, &cf)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if cf.file != "" {
		cf.parallel = *parallel
		return runCampaign(cf, stdout)
	}
	switch *engines {
	case "spec", "fast", "per-cycle", "both":
	default:
		return fmt.Errorf("-engines %q: need spec, fast, per-cycle or both", *engines)
	}

	specs, err := scenario.LoadDir(*dir)
	if err != nil {
		return err
	}
	compiled := make([]*scenario.Compiled, 0, len(specs))
	for _, s := range specs {
		if *filter != "" && !strings.Contains(s.Name, *filter) {
			continue
		}
		c, err := s.Compile()
		if err != nil {
			return err
		}
		compiled = append(compiled, c)
	}
	if len(compiled) == 0 {
		return fmt.Errorf("no scenarios match -run %q under %s", *filter, *dir)
	}

	// Flatten the corpus into one (scenario, seed, engine) job list so the
	// worker pool load-balances across scenarios of very different cost.
	var jobs []job
	for _, c := range compiled {
		for _, seed := range c.Seeds {
			switch *engines {
			case "spec":
				jobs = append(jobs, job{spec: c, seed: seed})
			case "fast":
				jobs = append(jobs, job{spec: c, seed: seed, engine: scenario.EngineFast})
			case "per-cycle":
				jobs = append(jobs, job{spec: c, seed: seed, engine: scenario.EnginePerCycle})
			case "both":
				jobs = append(jobs,
					job{spec: c, seed: seed, engine: scenario.EngineFast},
					job{spec: c, seed: seed, engine: scenario.EnginePerCycle})
			}
		}
	}
	results, err := campaign.Do(campaign.Options[struct{}]{Workers: *parallel},
		len(jobs), func(_ struct{}, i int) (sim.Result, error) {
			j := jobs[i]
			return j.spec.RunOn(new(sim.Runner), j.seed, j.engine, nil)
		})
	if err != nil {
		return err
	}

	// Re-group the flat result vector per scenario (jobs preserve corpus
	// order) and check engine equality when both engines ran. Failures are
	// tallied through the shared scenario.Failures protocol, so this gate
	// and cmd/scenfuzz print and exit identically.
	perScenario := map[string][]sim.Result{}
	fails := scenario.NewFailures(stdout)
	for i, j := range jobs {
		if *engines == "both" && j.engine == scenario.EnginePerCycle {
			fast := results[i-1] // the paired fast run precedes it
			if !reflect.DeepEqual(fast, results[i]) {
				fails.Failf("%s seed %d: fast engine diverges from per-cycle reference", j.spec.Spec.Name, j.seed)
			}
			continue
		}
		perScenario[j.spec.Spec.Name] = append(perScenario[j.spec.Spec.Name], results[i])
	}

	tbl := report.NewTable("Scenario corpus", "scenario", "seeds", "task cycles (per seed)", "status")
	for _, c := range compiled {
		name := c.Spec.Name
		rs := perScenario[name]
		status := "ok"
		if *verify {
			if err := verifySnapshot(c, rs, *golden); err != nil {
				status = err.Error()
				fails.Failf("%s: %s", name, status)
			} else {
				status = "golden ok"
			}
		}
		cycles := make([]string, len(rs))
		for i, r := range rs {
			cycles[i] = fmt.Sprint(r.TaskCycles)
		}
		tbl.AddRow(name, fmt.Sprint(len(c.Seeds)), strings.Join(cycles, " "), status)
	}
	if err := tbl.Fprint(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d scenarios, %d simulations, engines=%s\n", len(compiled), len(jobs), *engines)
	return fails.Err()
}

// verifySnapshot diffs a scenario's results against its golden file.
func verifySnapshot(c *scenario.Compiled, results []sim.Result, goldenDir string) error {
	snap, err := c.Snapshot(results)
	if err != nil {
		return err
	}
	got, err := snap.Encode()
	if err != nil {
		return err
	}
	path := filepath.Join(goldenDir, c.Spec.Name+".json")
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden missing")
	}
	if string(got) != string(want) {
		return fmt.Errorf("golden mismatch")
	}
	return nil
}
