// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time, checks that every output is
// correct, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it from
// the checkout's sources into the build directory:
//
//	bash perfbench/run.sh --workload mbpta-canrdr --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json, measured untraced. With --trace 1 the invocation instead
// runs the traced suite and reports the per-layer metrics; --spans then
// writes the recorded spans to a JSON file. --workload all runs every
// workload in turn, each in its own child process so that memory is
// measured per workload.
//
// The command exits non-zero when any output fails its check. README.md has
// the metric glossary, the reasons behind each workload and the layer to
// end-to-end table.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times each run builds its workload; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 9

// maxParallel caps the simulation and service pool workers and the load
// generator's connections. The harness never uses more than nproc of either.
const maxParallel = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// set records a metric. JSON has no infinity, so a percentile that lands
// on a failed request (+Inf) is written as the largest float64.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	if math.IsNaN(v) || math.IsInf(v, -1) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// sizes fixes how much work one job of each workload does. Production runs
// use defaultSizes; tests shrink everything so a smoke run of every workload
// takes seconds. There is deliberately no flag for it: the benchmark's
// run length is part of its definition.
type sizes struct {
	mbptaRuns     int     // runs per MBPTA campaign (one job)
	arbRuns       int     // runs per arb-1024 job, rotating through arbPolicies
	hotSpecs      int     // distinct serve-hot specs
	hotOps        int     // TuA operations in a serve-hot spec
	coldOps       int     // TuA operations in a serve-cold spec
	openLoopN     int     // at most this many requests at the fixed rate (the budget binds first)
	rate          float64 // the fixed open-loop rate, requests per second
	capacityFrac  float64 // share of the serving budget spent at saturation
	shardUnits    int64   // units per shard-campaign job
	traceRequests int     // requests in each traced serving slice
	miniRequests  int     // requests in the service path of a non-serving workload
	miniUnits     int     // units per spec in the shard path of a non-shard workload
	verifyMin     int     // runs or responses re-checked, at least
	ledgerTime    time.Duration
}

var defaultSizes = sizes{
	mbptaRuns:     1000,
	arbRuns:       112,
	hotSpecs:      16,
	hotOps:        200,
	coldOps:       2000,
	openLoopN:     800,
	rate:          40,
	capacityFrac:  0.25,
	shardUnits:    1_000_000,
	traceRequests: 160,
	miniRequests:  24,
	miniUnits:     32,
	verifyMin:     5,
	ledgerTime:    8 * time.Millisecond,
}

// env is what every workload runs with.
type env struct {
	seed    uint64
	workers int    // simulation / service pool workers
	conns   int    // load-generator connections
	tmp     string // temporary directory for checkpoint stores
	size    sizes
	log     io.Writer
}

// workload names one benchmark workload and opens it (one set-up).
type workload struct {
	name string
	open func(e *env) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// measure runs the timed phase for about budget.
	measure(budget time.Duration) (sample, error)
	// verify re-checks the timed phase's outputs, untimed, and returns how
	// many of them failed.
	verify() (int, error)
	// digest is the hex SHA-256 of the canonical outputs of the
	// workload's first job; it is the same for a traced run.
	digest() (string, error)
	// trace runs the traced suite: it records spans in tr, fills the
	// per-layer metrics and returns the digest the traced path produced.
	trace(tr *tracer, out metrics) (string, error)
	close()
}

// sample is what a timed phase measured.
type sample struct {
	attempted, failed int64
	rates             []float64   // units per second, one per job or window
	windows           [][]float64 // latencies in ms by job or window; +Inf for a failure
}

var workloads = []workload{
	{"mbpta-canrdr", openMBPTA},
	{"arb-1024", openArb},
	{"serve-hot", func(e *env) (instance, error) { return openServe(e, true) }},
	{"serve-cold", func(e *env) (instance, error) { return openServe(e, false) }},
	{"shard-campaign", openShard},
}

func main() {
	ok, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run parses the flags and runs one workload (or all of them); ok is false
// when an output failed its check.
func run(args []string, stdout, stderr io.Writer) (ok bool, err error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run, or all")
		seed    = fs.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = fs.Float64("seconds", 20, "length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced suite and reports per-layer metrics")
		spans   = fs.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 {
		return false, fmt.Errorf("--seconds %v must be positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	if *spans != "" && *trace == 0 {
		return false, fmt.Errorf("--spans needs --trace 1")
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *spans, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return false, fmt.Errorf("unknown --workload %q (have %s, all)", *name, strings.Join(workloadNames(), ", "))
	}
	h := probeHost()
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: *seed, workers: h.Workers, conns: h.Conns, tmp: tmp, size: defaultSizes, log: stdout}
	fmt.Fprintf(stdout, "host: %s\n", h)
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = runTraced(*w, e, *spans)
	} else {
		res, err = runTimed(*w, e, budget)
	}
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runTimed sets the workload up, runs the timed phase on the last set-up,
// checks its outputs, then sets the workload up again. A virtual machine's
// speed drifts over seconds, so the set-ups are split before and after the
// timed phase, and setup_s, their median, samples the host at both ends of
// the run rather than at one moment.
func runTimed(w workload, e *env, budget time.Duration) (result, error) {
	var setups []float64
	open := func() (instance, error) {
		t0 := time.Now()
		in, err := w.open(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return in, nil
	}
	var inst instance
	for len(setups) < setupReps/2+1 {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = open(); err != nil {
			return result{}, err
		}
	}
	// Collect the earlier set-ups' garbage now rather than inside the timed
	// phase, where it would land in whichever window it happened to hit.
	runtime.GC()
	rss := sampleRSS()
	s, err := inst.measure(budget)
	rssMiB := rss.stop()
	if err != nil {
		inst.close()
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	bad, err := inst.verify()
	if err != nil {
		inst.close()
		return result{}, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	bad += checkDigest(w.name, e, inst, "")
	inst.close()
	for len(setups) < setupReps {
		in, err := open()
		if err != nil {
			return result{}, err
		}
		in.close()
	}
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("units_per_s", median(s.rates), "1/s")
	m.set("p50_ms", windowed(s.windows, 0.50), "ms")
	m.set("rss_mb", rssMiB, "MiB")
	fmt.Fprintf(e.log, "%s: %d attempted, %d failed, %d rate windows, %d latency windows, %d failed checks\n",
		w.name, s.attempted, s.failed, len(s.rates), len(s.windows), bad)
	// The tail is printed, not gated: see README.md, "Why no tail metric".
	all := flatten(s.windows)
	fmt.Fprintf(e.log, "  tail over %d samples (not gated):", len(all))
	for _, p := range []float64{0.95, 0.99} {
		if tailSupported(len(all), p) {
			fmt.Fprintf(e.log, " p%.0f %.6g ms", 100*p, pct(all, p))
		}
	}
	fmt.Fprintln(e.log)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(e.log, "  %-14s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{
		Correct:   bad == 0 && s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed + int64(bad),
		Metrics:   m,
	}, nil
}

// runTraced sets the workload up once and runs its traced suite.
func runTraced(w workload, e *env, spansPath string) (result, error) {
	inst, err := w.open(e)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	tr := newTracer()
	m := metrics{}
	got, err := inst.trace(tr, m)
	if err != nil {
		return result{}, fmt.Errorf("%s: trace: %w", w.name, err)
	}
	bad := checkDigest(w.name, e, inst, got)
	if spansPath != "" {
		if err := tr.write(spansPath, w.name, e.seed); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(e.log, "%s traced: %d spans, %d failed checks\n", w.name, tr.len(), bad)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(e.log, "  %-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	// The traced suite is one attempt; its checks are the digests.
	return result{Correct: bad == 0, Attempted: 1, Failed: int64(bad), Metrics: m}, nil
}

// checkDigest compares the workload's untimed digest with the one pinned for
// seed 1 and, for a traced run, with the digest the traced path produced.
// It returns the number of mismatches.
func checkDigest(name string, e *env, inst instance, traced string) int {
	d, err := inst.digest()
	if err != nil {
		fmt.Fprintf(e.log, "FAIL %s digest: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(e.log, "digest %s seed %d: %s\n", name, e.seed, d)
	bad := 0
	if traced != "" && traced != d {
		fmt.Fprintf(e.log, "FAIL %s: traced digest %s differs from untraced %s\n", name, traced, d)
		bad++
	}
	if want, ok := pinnedDigests[name]; ok && e.seed == 1 && e.size == defaultSizes && want != d {
		fmt.Fprintf(e.log, "FAIL %s: digest %s differs from the pinned %s\n", name, d, want)
		bad++
	}
	return bad
}

// runAll runs every workload in its own child process, relaying each
// child's output, and prints one combined result whose metric names are
// prefixed with the workload.
func runAll(seed uint64, seconds float64, trace int, spans string, stdout, stderr io.Writer) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	all := result{Correct: true, Metrics: metrics{}}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
		if spans != "" {
			args = append(args, "--spans", strings.TrimSuffix(spans, ".json")+"-"+w.name+".json")
		}
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return false, fmt.Errorf("%s: no result (%v, exit %v)", w.name, err, runErr)
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return all.Correct, nil
}

// host is the provenance printed with every run.
type host struct {
	NProc, GOMAXPROCS int
	CPU, Go           string
	Workers, Conns    int
}

func probeHost() host {
	n := runtime.NumCPU()
	h := host{
		NProc:      n,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Workers:    min(maxParallel, n),
		Conns:      min(maxParallel, n),
	}
	return h
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s workers=%d conns=%d",
		h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Workers, h.Conns)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssSampler reads the process's resident set every 50 ms until stopped.
// The median of the samples is the memory metric: the peak (VmHWM) of a
// garbage-collected server depends on when collections happen to run and
// moved by a quarter from run to run of the same inputs.
type rssSampler struct {
	quit chan struct{}
	done chan struct{}
	mib  []float64
}

func sampleRSS() *rssSampler {
	r := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := rssMiB(); v > 0 {
				r.mib = append(r.mib, v)
			}
			select {
			case <-r.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stop ends the sampling and returns the median resident set in MiB.
func (r *rssSampler) stop() float64 {
	close(r.quit)
	<-r.done
	return median(r.mib)
}

// rssMiB is the current resident set from /proc/self/statm, or 0 where
// /proc is unavailable.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
