// Command simbench measures the simulator's hot paths — the per-cycle
// reference engine vs the event-horizon stepping engine, single-run and at
// the measurement-campaign level, the allocation profile and parallel
// throughput of the pooled campaign engine, and the fast engine's
// core-count scaling curve (cycles/sec at 4–1024 requestors) — and writes
// the results to BENCH_sim.json. The file is committed so the performance trajectory is
// tracked across PRs; regenerate it on a quiet machine with
//
//	go run ./cmd/simbench
//
// CI runs the regression gate instead:
//
//	go run ./cmd/simbench -check -baseline BENCH_sim.json
//
// which re-measures and fails (non-zero exit, nothing written) if the fast
// engine's speedups drop below -threshold (default 0.85×) of the recorded
// baseline, if the pooled campaign path's allocations per run grow beyond
// 1/threshold of the baseline, if the parallel campaign's scaling over
// serial falls below threshold × the baseline's (skipped with a notice
// when worker counts differ — absolute runs/sec are machine-dependent,
// scaling ratios are not), or if the 1024-vs-64-core throughput
// degradation grows beyond the baseline's ratio or the absolute 16× cap. A missing or malformed baseline, or one written
// by a different schema version, is an error, never a reason to rewrite.
//
// Profiling hooks for optimisation work: -cpuprofile / -memprofile write
// pprof profiles of the measurement suite.
//
// The scenario is the paper's measurement protocol: canrdr under maximum
// contention (WCET-estimation mode, Table I injectors) with homogeneous CBA
// in front of random-permutations arbitration. The engine comparison pins
// campaign workers to 1 so the numbers isolate the stepping engine from the
// worker pool; the parallel-campaign section measures the pool itself at
// GOMAXPROCS workers, and records both counts so the provenance of every
// number is in the file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"creditbus"
	"creditbus/internal/cpu"
	"creditbus/internal/sim"
)

// SchemaVersion identifies the BENCH_sim.json layout. Bump it whenever the
// Report struct changes shape so the gate fails with a clear
// regenerate-the-baseline message instead of comparing zero values.
const SchemaVersion = 3

// maxCoreDegradation is the absolute scale-out bar, independent of any
// baseline: stepping a 1024-core machine must keep more than 1/16 of the
// 64-core machine's sim-cycles/sec. The eligibility bitsets and flat
// per-core state exist to hold this; a linear-in-cores decision loop
// busts it immediately.
const maxCoreDegradation = 16.0

// scalingCores are the sample points on the core-scaling curve: the
// paper's evaluated platforms (4, 16) plus the scale-out targets.
var scalingCores = []int{4, 16, 64, 256, 1024}

// Engine is one stepping engine's cost in a benchmark scenario.
type Engine struct {
	NsPerOp        float64 `json:"ns_per_op"`
	SimCyclesPerOp float64 `json:"sim_cycles_per_op"`
	SimCyclesPerS  float64 `json:"sim_cycles_per_sec"`
}

// CorePoint is one core-count sample on the scaling curve.
type CorePoint struct {
	Cores          int     `json:"cores"`
	NsPerOp        float64 `json:"ns_per_op"`
	SimCyclesPerOp float64 `json:"sim_cycles_per_op"`
	SimCyclesPerS  float64 `json:"sim_cycles_per_sec"`
}

// Alloc is the allocation profile of one full simulation run.
type Alloc struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the BENCH_sim.json schema (version SchemaVersion).
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	// CPUs is the physical CPU count, GOMAXPROCS the scheduler's view —
	// the worker count DefaultWorkers derives from. Both are provenance:
	// a baseline measured at GOMAXPROCS 1 must not gate a 16-way box's
	// parallel scaling.
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`

	// MachineStep drives one never-finishing max-contention machine:
	// ns_per_op is the cost of one Tick (per-cycle) or one Step (fast);
	// sim_cycles_per_sec is the headline throughput.
	MachineStep struct {
		PerCycle Engine  `json:"per_cycle"`
		Fast     Engine  `json:"fast"`
		Speedup  float64 `json:"speedup"`
	} `json:"machine_step"`

	// CoreScaling sweeps the fast engine's stepping cost across core
	// counts on the max-contention scenario. degradation_1024_vs_64 is
	// the 64-core sim-cycles/sec over the 1024-core rate — the number the
	// scale-out refactor is accountable for. It gates both relatively
	// (against the baseline's ratio) and absolutely (< 16×).
	CoreScaling struct {
		Scenario    string      `json:"scenario"`
		Points      []CorePoint `json:"points"`
		Degradation float64     `json:"degradation_1024_vs_64"`
	} `json:"core_scaling"`

	// CollectMaxContention is the §III.B measurement campaign (canrdr, CBA):
	// ns_per_op is the cost of one full run. Workers is pinned to 1 here so
	// the speedup isolates the stepping engine.
	CollectMaxContention struct {
		Workload string  `json:"workload"`
		Runs     int     `json:"runs"`
		Workers  int     `json:"workers"`
		PerCycle Engine  `json:"per_cycle"`
		Fast     Engine  `json:"fast"`
		Speedup  float64 `json:"speedup"`
	} `json:"collect_max_contention"`

	// Allocations profiles one steady-state campaign run: a fresh machine
	// per run (the pre-pooling protocol) vs a warm reused machine (the
	// pooled hot path). alloc_reduction is 1 − reused/fresh allocs.
	Allocations struct {
		Workload       string  `json:"workload"`
		FreshRun       Alloc   `json:"fresh_machine_run"`
		ReusedRun      Alloc   `json:"reused_machine_run"`
		AllocReduction float64 `json:"alloc_reduction"`
	} `json:"allocations"`

	// ParallelCampaign measures the pooled worker pool itself: a full
	// CollectMaxContention campaign at 1 worker and at GOMAXPROCS workers.
	// runs_per_sec are machine-dependent; scaling (parallel over serial
	// throughput) is the machine-portable number the gate compares.
	// allocs_per_run and bytes_per_run are read from the 1-worker
	// campaign, so they do not depend on the host's worker count.
	ParallelCampaign struct {
		Workload           string  `json:"workload"`
		Runs               int     `json:"runs"`
		Workers            int     `json:"workers"`
		SerialRunsPerSec   float64 `json:"serial_runs_per_sec"`
		ParallelRunsPerSec float64 `json:"parallel_runs_per_sec"`
		Scaling            float64 `json:"scaling"`
		AllocsPerRun       int64   `json:"allocs_per_run"`
		BytesPerRun        int64   `json:"bytes_per_run"`
	} `json:"parallel_campaign"`
}

func measureStep(fast bool) (Engine, error) {
	var cycles int64
	var buildErr error
	r := testing.Benchmark(func(b *testing.B) {
		m, err := sim.NewEngineBenchMachine()
		if err != nil {
			buildErr = err
			b.SkipNow()
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fast {
				m.Step()
			} else {
				m.Tick()
			}
		}
		cycles = m.Cycle()
	})
	if buildErr != nil {
		return Engine{}, buildErr
	}
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	perOp := float64(cycles) / float64(r.N)
	return Engine{
		NsPerOp:        ns,
		SimCyclesPerOp: perOp,
		SimCyclesPerS:  perOp / ns * 1e9,
	}, nil
}

// measureScaling times the fast engine's Step on the max-contention
// scenario widened to the given core count.
func measureScaling(cores int) (CorePoint, error) {
	var cycles int64
	var buildErr error
	r := testing.Benchmark(func(b *testing.B) {
		m, err := sim.NewScalingBenchMachine(cores)
		if err != nil {
			buildErr = err
			b.SkipNow()
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step()
		}
		cycles = m.Cycle()
	})
	if buildErr != nil {
		return CorePoint{}, buildErr
	}
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	perOp := float64(cycles) / float64(r.N)
	return CorePoint{
		Cores:          cores,
		NsPerOp:        ns,
		SimCyclesPerOp: perOp,
		SimCyclesPerS:  perOp / ns * 1e9,
	}, nil
}

// scalePoint returns the recorded sample for the given core count, or a
// zero point when the sweep did not include it.
func scalePoint(rep Report, cores int) CorePoint {
	for _, p := range rep.CoreScaling.Points {
		if p.Cores == cores {
			return p
		}
	}
	return CorePoint{}
}

// benchConfig is the shared campaign scenario: canrdr under maximum
// contention with homogeneous CBA (the paper's measurement protocol).
func benchConfig(perCycle bool) (creditbus.Config, creditbus.Program, error) {
	cfg := creditbus.DefaultConfig()
	cfg.Credit.Kind = creditbus.CreditCBA
	cfg.ForcePerCycle = perCycle
	prog, err := creditbus.BuildWorkload("canrdr", 1)
	return cfg, prog, err
}

func measureCollect(runs int, perCycle bool) (Engine, error) {
	cfg, prog, err := benchConfig(perCycle)
	if err != nil {
		return Engine{}, err
	}
	var simCycles float64
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		c := creditbus.Campaign{Workers: 1}
		simCycles = 0
		for i := 0; i < b.N; i++ {
			samples, err := c.CollectMaxContention(cfg, prog, runs, 1)
			if err != nil {
				runErr = err
				b.SkipNow()
				return
			}
			// Max-contention runs end when the TuA finishes, so the task's
			// execution time is the run's wall-cycle count.
			for _, s := range samples {
				simCycles += s
			}
		}
	})
	if runErr != nil {
		return Engine{}, runErr
	}
	nsPerRun := float64(r.T.Nanoseconds()) / float64(r.N) / float64(runs)
	cyclesPerRun := simCycles / float64(r.N) / float64(runs)
	return Engine{
		NsPerOp:        nsPerRun,
		SimCyclesPerOp: cyclesPerRun,
		SimCyclesPerS:  cyclesPerRun / nsPerRun * 1e9,
	}, nil
}

// measureAlloc profiles one steady-state max-contention run. With reuse
// the runner (and its machine) persists across iterations — the pooled
// campaign hot path; without it every iteration builds a fresh machine.
func measureAlloc(reuse bool) (Alloc, error) {
	cfg, prog, err := benchConfig(false)
	if err != nil {
		return Alloc{}, err
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		var rn sim.Runner
		if reuse {
			// Warm-up outside the measurement: the first run builds the
			// machine the steady state recycles.
			if _, err := rn.Run(cfg, sim.RunSpec{Kind: sim.KindWCET, Program: prog}); err != nil {
				runErr = err
				b.SkipNow()
				return
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _ := cpu.TryClone(prog)
			spec := sim.RunSpec{Kind: sim.KindWCET, Program: p, Seed: uint64(i)}
			var err error
			if reuse {
				_, err = rn.Run(cfg, spec)
			} else {
				_, err = new(sim.Runner).Run(cfg, spec)
			}
			if err != nil {
				runErr = err
				b.SkipNow()
				return
			}
		}
	})
	if runErr != nil {
		return Alloc{}, runErr
	}
	return Alloc{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}, nil
}

// measureCampaign times a full pooled CollectMaxContention campaign at the
// given worker count and returns runs/sec plus per-run allocation costs.
func measureCampaign(runs, workers int) (runsPerSec float64, allocsPerRun, bytesPerRun int64, err error) {
	cfg, prog, berr := benchConfig(false)
	if berr != nil {
		return 0, 0, 0, berr
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		c := creditbus.Campaign{Workers: workers}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.CollectMaxContention(cfg, prog, runs, uint64(i)); err != nil {
				runErr = err
				b.SkipNow()
				return
			}
		}
	})
	if runErr != nil {
		return 0, 0, 0, runErr
	}
	nsPerCampaign := float64(r.T.Nanoseconds()) / float64(r.N)
	return float64(runs) / (nsPerCampaign / 1e9),
		r.AllocsPerOp() / int64(runs),
		r.AllocedBytesPerOp() / int64(runs),
		nil
}

// measureAll runs the full benchmark suite. Swappable so tests can exercise
// the gate logic without minutes of benchmarking.
var measureAll = func(runs int, log io.Writer) (Report, error) {
	var rep Report
	rep.SchemaVersion = SchemaVersion
	rep.GoVersion = runtime.Version()
	rep.GOOS = runtime.GOOS
	rep.GOARCH = runtime.GOARCH
	rep.CPUs = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)

	fmt.Fprintln(log, "simbench: machine step (per-cycle)...")
	var err error
	if rep.MachineStep.PerCycle, err = measureStep(false); err != nil {
		return Report{}, err
	}
	fmt.Fprintln(log, "simbench: machine step (fast)...")
	if rep.MachineStep.Fast, err = measureStep(true); err != nil {
		return Report{}, err
	}
	rep.MachineStep.Speedup = rep.MachineStep.Fast.SimCyclesPerS / rep.MachineStep.PerCycle.SimCyclesPerS

	rep.CoreScaling.Scenario = "canrdr max contention (WCET mode, CBA)"
	for _, n := range scalingCores {
		fmt.Fprintf(log, "simbench: core scaling (%d cores)...\n", n)
		p, err := measureScaling(n)
		if err != nil {
			return Report{}, err
		}
		rep.CoreScaling.Points = append(rep.CoreScaling.Points, p)
	}
	if p64, p1024 := scalePoint(rep, 64), scalePoint(rep, 1024); p1024.SimCyclesPerS > 0 {
		rep.CoreScaling.Degradation = p64.SimCyclesPerS / p1024.SimCyclesPerS
	}

	fmt.Fprintln(log, "simbench: CollectMaxContention (per-cycle)...")
	rep.CollectMaxContention.Workload = "canrdr"
	rep.CollectMaxContention.Runs = runs
	rep.CollectMaxContention.Workers = 1
	if rep.CollectMaxContention.PerCycle, err = measureCollect(runs, true); err != nil {
		return Report{}, err
	}
	fmt.Fprintln(log, "simbench: CollectMaxContention (fast)...")
	if rep.CollectMaxContention.Fast, err = measureCollect(runs, false); err != nil {
		return Report{}, err
	}
	rep.CollectMaxContention.Speedup =
		rep.CollectMaxContention.PerCycle.NsPerOp / rep.CollectMaxContention.Fast.NsPerOp

	fmt.Fprintln(log, "simbench: allocations (fresh machine per run)...")
	rep.Allocations.Workload = "canrdr"
	if rep.Allocations.FreshRun, err = measureAlloc(false); err != nil {
		return Report{}, err
	}
	fmt.Fprintln(log, "simbench: allocations (reused machine)...")
	if rep.Allocations.ReusedRun, err = measureAlloc(true); err != nil {
		return Report{}, err
	}
	if f := rep.Allocations.FreshRun.AllocsPerOp; f > 0 {
		rep.Allocations.AllocReduction = 1 - float64(rep.Allocations.ReusedRun.AllocsPerOp)/float64(f)
	}

	workers := runtime.GOMAXPROCS(0)
	fmt.Fprintf(log, "simbench: parallel campaign (1 vs %d workers)...\n", workers)
	rep.ParallelCampaign.Workload = "canrdr"
	rep.ParallelCampaign.Runs = runs
	rep.ParallelCampaign.Workers = workers
	// Per-run allocations come from the 1-worker campaign: each worker's
	// set-up is spread over its share of the runs, so the count measured
	// at GOMAXPROCS workers grows with the host's CPU count and could not
	// be gated against a baseline recorded elsewhere.
	serial, allocs, bytesPer, err := measureCampaign(runs, 1)
	if err != nil {
		return Report{}, err
	}
	parallel, _, _, err := measureCampaign(runs, workers)
	if err != nil {
		return Report{}, err
	}
	rep.ParallelCampaign.SerialRunsPerSec = serial
	rep.ParallelCampaign.ParallelRunsPerSec = parallel
	rep.ParallelCampaign.Scaling = parallel / serial
	rep.ParallelCampaign.AllocsPerRun = allocs
	rep.ParallelCampaign.BytesPerRun = bytesPer
	return rep, nil
}

// loadBaseline reads and strictly decodes a committed BENCH_sim.json. Any
// problem — missing file, syntax error, unknown field, schema version
// mismatch, non-positive speedups — is a hard error: the historical failure
// mode was silently regenerating the baseline, which turns the regression
// gate into a no-op.
func loadBaseline(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("baseline %s: %w (regenerate deliberately with `go run ./cmd/simbench`)", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("baseline %s is malformed: %w", path, err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return Report{}, fmt.Errorf(
			"baseline %s has schema version %d, this binary writes version %d: regenerate it deliberately with `go run ./cmd/simbench` (a version mismatch must never silently gate on zero values)",
			path, rep.SchemaVersion, SchemaVersion)
	}
	if rep.MachineStep.Speedup <= 0 || rep.CollectMaxContention.Speedup <= 0 {
		return Report{}, fmt.Errorf("baseline %s is malformed: non-positive speedups (%v, %v)",
			path, rep.MachineStep.Speedup, rep.CollectMaxContention.Speedup)
	}
	if rep.CoreScaling.Degradation <= 0 {
		return Report{}, fmt.Errorf("baseline %s is malformed: non-positive core-scaling degradation (%v)",
			path, rep.CoreScaling.Degradation)
	}
	return rep, nil
}

// checkAgainst gates the measured report on the baseline: the fast-engine
// speedups and the parallel scaling must stay at or above threshold × their
// recorded values, and the pooled path's allocations per run must not grow
// beyond baseline/threshold.
func checkAgainst(baseline, measured Report, threshold float64, stdout io.Writer) error {
	type gate struct {
		name      string
		base, cur float64
		// lower: the measurement regresses by dropping (speedups);
		// otherwise it regresses by growing (allocations).
		lower bool
		unit  string
	}
	gates := []gate{
		{"machine step speedup", baseline.MachineStep.Speedup, measured.MachineStep.Speedup, true, "x"},
		{"CollectMaxContention speedup", baseline.CollectMaxContention.Speedup, measured.CollectMaxContention.Speedup, true, "x"},
		{"reused-run allocs/op", float64(baseline.Allocations.ReusedRun.AllocsPerOp), float64(measured.Allocations.ReusedRun.AllocsPerOp), false, ""},
		{"campaign allocs/run", float64(baseline.ParallelCampaign.AllocsPerRun), float64(measured.ParallelCampaign.AllocsPerRun), false, ""},
		{"1024v64-core degradation", baseline.CoreScaling.Degradation, measured.CoreScaling.Degradation, false, "x"},
	}
	if baseline.ParallelCampaign.Workers == measured.ParallelCampaign.Workers &&
		baseline.ParallelCampaign.Workers > 1 {
		gates = append(gates, gate{"parallel campaign scaling", baseline.ParallelCampaign.Scaling, measured.ParallelCampaign.Scaling, true, "x"})
	} else {
		fmt.Fprintf(stdout, "parallel scaling gate skipped: baseline measured at %d worker(s), this machine runs %d — regenerate BENCH_sim.json on a multi-core host with matching GOMAXPROCS to arm it\n",
			baseline.ParallelCampaign.Workers, measured.ParallelCampaign.Workers)
	}
	failed := 0
	for _, g := range gates {
		var floor float64
		var bad bool
		if g.lower {
			floor = g.base * threshold
			bad = g.cur < floor
		} else {
			floor = g.base / threshold
			bad = g.cur > floor
		}
		status := "ok"
		if bad {
			status = "REGRESSION"
			failed++
		}
		fmt.Fprintf(stdout, "%-30s baseline %.2f%s  measured %.2f%s  limit %.2f%s  %s\n",
			g.name, g.base, g.unit, g.cur, g.unit, floor, g.unit, status)
	}
	// The scale-out bar is also absolute, not just relative to the
	// baseline: a baseline regenerated on a degraded build must not
	// grandfather a >16× cliff past the gate.
	absStatus := "ok"
	if measured.CoreScaling.Degradation >= maxCoreDegradation {
		absStatus = "REGRESSION"
		failed++
	}
	fmt.Fprintf(stdout, "%-30s cap %.2fx  measured %.2fx  %s\n",
		"core degradation (absolute)", maxCoreDegradation, measured.CoreScaling.Degradation, absStatus)
	if failed > 0 {
		return fmt.Errorf("%d perf gate(s) outside %.2fx of baseline", failed, threshold)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	var (
		out        = fs.String("out", "BENCH_sim.json", "output file (write mode)")
		runs       = fs.Int("runs", 16, "campaign runs per CollectMaxContention iteration")
		check      = fs.Bool("check", false, "regression gate: compare against -baseline instead of writing")
		baseline   = fs.String("baseline", "BENCH_sim.json", "committed baseline to check against (-check)")
		threshold  = fs.Float64("threshold", 0.85, "minimum acceptable fraction of the baseline numbers (-check)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the measurement suite")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile after the measurement suite")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	if *check && (*threshold <= 0 || *threshold > 1) {
		return fmt.Errorf("-threshold %v out of range (0, 1]", *threshold)
	}

	var base Report
	if *check {
		// Load the baseline before measuring: a broken baseline must fail
		// in milliseconds, not after a minute of benchmarking.
		var err error
		if base, err = loadBaseline(*baseline); err != nil {
			return err
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	measured, err := measureAll(*runs, stderr)
	if err != nil {
		return err
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *check {
		return checkAgainst(base, measured, *threshold, stdout)
	}

	data, err := json.MarshalIndent(measured, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "machine step: %.1fx (%.0f vs %.0f sim-cycles/s)\n",
		measured.MachineStep.Speedup, measured.MachineStep.Fast.SimCyclesPerS, measured.MachineStep.PerCycle.SimCyclesPerS)
	if p64, p1024 := scalePoint(measured, 64), scalePoint(measured, 1024); p1024.Cores != 0 {
		fmt.Fprintf(stdout, "core scaling: %.0f sim-cycles/s at 64 cores vs %.0f at 1024 (%.1fx degradation, cap %.0fx)\n",
			p64.SimCyclesPerS, p1024.SimCyclesPerS, measured.CoreScaling.Degradation, maxCoreDegradation)
	}
	fmt.Fprintf(stdout, "CollectMaxContention: %.1fx (%.2fms vs %.2fms per run)\n",
		measured.CollectMaxContention.Speedup,
		measured.CollectMaxContention.Fast.NsPerOp/1e6, measured.CollectMaxContention.PerCycle.NsPerOp/1e6)
	fmt.Fprintf(stdout, "allocations: %d allocs/run fresh vs %d reused (%.1f%% reduction)\n",
		measured.Allocations.FreshRun.AllocsPerOp, measured.Allocations.ReusedRun.AllocsPerOp,
		measured.Allocations.AllocReduction*100)
	fmt.Fprintf(stdout, "parallel campaign: %.0f runs/s at %d workers vs %.0f serial (%.2fx scaling)\n",
		measured.ParallelCampaign.ParallelRunsPerSec, measured.ParallelCampaign.Workers,
		measured.ParallelCampaign.SerialRunsPerSec, measured.ParallelCampaign.Scaling)
	fmt.Fprintln(stdout, "wrote", *out)
	return nil
}
