package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// tinySizes shrinks every workload so a smoke run of all five, timed and
// traced, takes seconds. It exists only here: the benchmark's run length is
// part of its definition and has no flag.
var tinySizes = sizes{
	mbptaRuns:     20,
	arbRuns:       7,
	hotSpecs:      4,
	hotOps:        50,
	coldOps:       50,
	openLoopN:     12,
	rate:          200,
	capacityFrac:  0.3,
	shardUnits:    300,
	traceRequests: 8,
	miniRequests:  4,
	miniUnits:     2,
	verifyMin:     1,
	ledgerTime:    200 * time.Microsecond,
}

func tinyEnv(t *testing.T) *env {
	return &env{seed: 7, workers: 2, conns: 2, tmp: t.TempDir(), size: tinySizes, log: io.Discard}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkSpec
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// namesUnits flattens reported metrics to "name unit" strings, sorted.
func namesUnits(m metrics) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v.Unit)
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkload runs every workload timed and traced at tiny
// sizes: both must be correct, the traced digest must equal the untraced
// one, and the metrics printed must be exactly those BENCHMARK.json lists.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	var wantE2E, wantLayer, wantWorkloads []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name+" "+m.Unit)
	}
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	if got := workloadNames(); !equal(got, wantWorkloads) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, wantWorkloads)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTimed(w, tinyEnv(t), 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("timed run: %+v", res)
			}
			if got := namesUnits(res.Metrics); !equal(got, wantE2E) {
				t.Fatalf("end-to-end metrics %v, want %v", got, wantE2E)
			}
			for k, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics must never be 0", k, v.Value)
				}
			}
			res, err = runTraced(w, tinyEnv(t), "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run: %+v", res)
			}
			if got := namesUnits(res.Metrics); !equal(got, wantLayer) {
				t.Fatalf("per-layer metrics\n got %v\nwant %v", got, wantLayer)
			}
		})
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOpenLoopTimesFromDue stalls the first request in the handler while
// the rest fall due: with one connection every later request waits behind
// it, and its latency must count from when it was due, not from when it
// could be sent; the requests still waiting when the last one fell due
// are the backlog. A refused request is a failure.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			time.Sleep(stall)
		case 5:
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	const n = 20
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
	times := openLoop(n, 200, 1, rng(), func(int) bool {
		resp, err := client.Get(ts.URL)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	start := times[0].due
	if last := times[n-1].due.Sub(start); last >= stall/2 {
		t.Fatalf("the seeded schedule ends %v after the first request; the test needs it inside the stall", last)
	}
	stallEnd := times[0].done
	for i, rt := range times[1:] {
		if rt.sent.Before(stallEnd) {
			t.Errorf("request %d sent at %v, before the stalled request returned at %v", i+1, rt.sent.Sub(start), stallEnd.Sub(start))
		}
	}
	st := summarize(times)
	if st.backlog != n-1 {
		t.Errorf("backlog %d, want %d: every request after the first was due and unsent when the last fell due", st.backlog, n-1)
	}
	if st.failed != 1 {
		t.Errorf("%d failed, want 1", st.failed)
	}
	for i := 1; i < n; i++ {
		if i == 4 {
			if !math.IsInf(st.latMS[i], 1) {
				t.Errorf("refused request latency %v, want +Inf", st.latMS[i])
			}
			continue
		}
		if min := ms(stallEnd.Sub(times[i].due)); st.latMS[i] < min {
			t.Errorf("request %d latency %.1f ms, but it waited %.1f ms from its due time for the stall", i, st.latMS[i], min)
		}
	}
	if len(st.lagMS) != 1 {
		t.Errorf("%d lag samples, want 1: only the first request found its sender idle", len(st.lagMS))
	}
}

func TestPercentileRules(t *testing.T) {
	if !tailSupported(1000, 0.99) || tailSupported(999, 0.99) {
		t.Error("p99 needs at least 1,000 samples to have ten beyond it")
	}
	if !tailSupported(10, 0) || tailSupported(100, 0.95) {
		t.Error("tailSupported miscounts the samples beyond a quantile")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := pct(xs, 0.5); p != 50.5 {
		t.Errorf("p50 of 1..100 = %v, want 50.5 (type-7)", p)
	}
	xs[99] = math.Inf(1) // one failed request among 100
	if p := pct(xs, 0.99); !math.IsInf(p, 1) {
		t.Errorf("p99 reaching a failure = %v, want +Inf", p)
	}
	if p := pct(xs, 0.5); p != 50.5 {
		t.Errorf("p50 with one failure = %v, want 50.5", p)
	}
	m := metrics{}
	m.set("p99_ms", math.Inf(1), "ms")
	if _, err := json.Marshal(m); err != nil || m["p99_ms"].Value != math.MaxFloat64 {
		t.Errorf("+Inf must encode as the largest float: %v, %v", m["p99_ms"].Value, err)
	}
	if pct(nil, 0.5) != 0 {
		t.Error("no samples must read 0")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
	root := tr.add("service.replay", -1, "req-0", at(0), at(10_000))
	tr.add("scenario.parse", root, "req-0", at(0), at(1_000))
	tr.add("scenario.compile", root, "req-0", at(1_000), at(4_000))
	tr.add("scenario.cachekey", root, "req-0", at(4_000), at(5_000))
	tr.add("service.handler", root, "req-0", at(5_000), at(12_000))
	tr.add("http.request", -1, "req-0", at(20_000), at(30_000))
	m := metrics{}
	spanMetrics(tr, m)
	// The handler took 7 µs and its replayed scenario work 5 µs.
	if got := m["service.handler_us"].Value; got != 2 {
		t.Errorf("handler self time %v µs, want 2", got)
	}
	if got := m["service.transport_us"].Value; got != 3 {
		t.Errorf("transport %v µs, want 10 - 7 = 3", got)
	}
	if got := m["scenario.compile_us"].Value; got != 3 {
		t.Errorf("compile %v µs, want 3", got)
	}
}

func TestWindowRates(t *testing.T) {
	s := time.Second
	done := []time.Duration{s / 2, 1 * s, 3 * s, 4 * s}
	// Two groups: 2 completions in the first second, 2 in the next three.
	got := windowRates(done, 2)
	if len(got) != 2 || got[0] != 2 || math.Abs(got[1]-2.0/3) > 1e-12 {
		t.Errorf("windowRates = %v, want [2 0.667]", got)
	}
	if got := windowRates(done[:1], 4); len(got) != 1 || got[0] != 2 {
		t.Errorf("one completion at 0.5 s: %v, want [2]", got)
	}
	if got := windowRates(nil, 4); len(got) != 0 {
		t.Errorf("no completions: %v", got)
	}
	if w := windowed([][]float64{{1, 2, 3}, {10, 20, 30}, {4, 5, 6}}, 0.5); w != 5 {
		t.Errorf("windowed median = %v, want the median of 2, 20, 5", w)
	}
}

func TestLedgerCoverage(t *testing.T) {
	c := ledgerCounts{steps: 100, grants: 10, l1: 50, l2: 5}
	k := ledgerCosts{horizon: 3, advance: 2, pick: 20, l1: 4, l2: 40}
	// 100·(3+2) + 10·20 + 50·4 + 5·40 = 500 + 200 + 200 + 200
	if got := coverage(c, k, 2200); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	if coverage(c, k, 0) != 0 {
		t.Error("a zero run time must not divide")
	}
}

// TestDigestMismatchFails pins the digest contract: a traced digest that
// differs from the untraced one is one failure.
func TestDigestMismatchFails(t *testing.T) {
	e := tinyEnv(t)
	inst, err := openMBPTA(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.measure(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	e.log = &log
	d, err := inst.digest()
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkDigest("mbpta-canrdr", e, inst, d); bad != 0 {
		t.Fatalf("matching digests: %d failures\n%s", bad, log.String())
	}
	if bad := checkDigest("mbpta-canrdr", e, inst, "0"+d[1:]); bad != 1 {
		t.Fatalf("mismatched traced digest: %d failures, want 1", bad)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "arb-1024", "--trace", "2"},
		{"--workload", "arb-1024", "--seconds", "0"},
		{"--workload", "arb-1024", "--spans", "x.json"},
		{"--workload", "arb-1024", "extra"},
	} {
		if _, err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
