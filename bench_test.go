// Benchmarks regenerating the paper's tables and figures (DESIGN.md §5):
// one testing.B target per artefact, each reporting the headline numbers as
// custom metrics so `go test -bench=. -benchmem` reproduces the paper's
// rows. cmd/experiments prints the full tables; these targets are the
// automated, regression-checkable form.
package creditbus_test

import (
	"runtime"
	"testing"
	"time"

	"creditbus"
	"creditbus/internal/arbiter"
	"creditbus/internal/bitset"
	"creditbus/internal/bus"
	"creditbus/internal/core"
	"creditbus/internal/exp"
)

// BenchmarkIllustrativeExample regenerates EXP-ILL (§II): the 9.4× vs 2.8×
// arithmetic. Metrics: rr-x and cba-x are the measured slowdowns.
func BenchmarkIllustrativeExample(b *testing.B) {
	var r exp.IllustrativeResult
	for i := 0; i < b.N; i++ {
		r = exp.Illustrative()
	}
	b.ReportMetric(r.RRSlowdown, "rr-x")
	b.ReportMetric(r.CBASlowdown, "cba-x")
	b.ReportMetric(float64(r.IsoCycles), "iso-cycles")
}

// BenchmarkFig1 regenerates EXP-F1 (Figure 1) with a reduced run count per
// iteration. Metrics: the worst RP-CON and CBA-CON slowdowns and the mean
// CBA-ISO overhead (paper: 3.34, 2.34, 1.03).
func BenchmarkFig1(b *testing.B) {
	var s exp.Fig1Summary
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig1(exp.Options{Runs: 3, MaxOps: 20000})
		if err != nil {
			b.Fatal(err)
		}
		s = exp.Summarise(rows)
	}
	b.ReportMetric(s.MaxRPCon, "max-rp-con-x")
	b.ReportMetric(s.MaxCBACon, "max-cba-con-x")
	b.ReportMetric(s.AvgCBAIso, "avg-cba-iso-x")
}

// BenchmarkTableISignals regenerates EXP-T1's dynamic side: the cost of the
// Table I state machine (budget update + COMP latch + eligibility filter)
// per simulated cycle.
func BenchmarkTableISignals(b *testing.B) {
	arb := core.MustNew(core.Config{
		Masters: 4, MaxHold: 56,
		Mode: core.WCETMode, TuA: 0,
	})
	mask := bitset.New(4)
	for i := 0; i < b.N; i++ {
		arb.Update(i%3 == 0)
		arb.Tick(i%5 - 1) // cycles through idle and each master
		mask[0] = 0b1111  // every master pending, as under WCET contention
		arb.AndEligible(mask)
	}
}

// BenchmarkSweepContenderLength regenerates EXP-SWEEP: slot-fair slowdown
// growth vs CBA's flat curve. Metrics: slowdowns at contender hold 56.
func BenchmarkSweepContenderLength(b *testing.B) {
	var pts []exp.SweepPoint
	for i := 0; i < b.N; i++ {
		pts = exp.Sweep(exp.Options{})
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Slowdown["RR"], "rr-at-56-x")
	b.ReportMetric(last.Slowdown["RP"], "rp-at-56-x")
	b.ReportMetric(last.Slowdown["CBA+RP"], "cba-rp-at-56-x")
}

// BenchmarkHCBAVariants regenerates EXP-HCBA (§III.A): weights vs cap.
// Metrics: back-to-back grants and burst latency of the cap variant.
func BenchmarkHCBAVariants(b *testing.B) {
	var rs []exp.HCBAResult
	for i := 0; i < b.N; i++ {
		rs = exp.HCBAAblation(exp.Options{})
	}
	for _, r := range rs {
		if r.Variant == "cap" {
			b.ReportMetric(float64(r.TuABackToBack), "cap-back-to-back")
			b.ReportMetric(r.BurstLatency, "cap-burst-cycles")
		} else {
			b.ReportMetric(r.BurstLatency, "weights-burst-cycles")
		}
	}
}

// BenchmarkMBPTAFit regenerates EXP-MBPTA's analysis stage: the Gumbel fit
// over a 1000-sample campaign (the paper's run count).
func BenchmarkMBPTAFit(b *testing.B) {
	cfg := creditbus.DefaultConfig()
	cfg.Credit.Kind = creditbus.CreditCBA
	prog, err := creditbus.BuildWorkload("rspeed", 1)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := creditbus.CollectMaxContention(cfg, prog, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Replicate to the paper's campaign size with small jitter-free reuse:
	// the fit cost is what is being measured.
	big := make([]float64, 0, 1000)
	for len(big) < 1000 {
		big = append(big, samples...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := creditbus.AnalyzeWCET(big[:1000], 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArbiterDecisionRP and ...RPCBA regenerate EXP-OVH: the software
// cost of one bus cycle including arbitration, without and with the CBA
// filter (the substitute for the paper's FPGA synthesis deltas).
func BenchmarkArbiterDecisionRP(b *testing.B)    { benchBusCycle(b, false) }
func BenchmarkArbiterDecisionRPCBA(b *testing.B) { benchBusCycle(b, true) }

func benchBusCycle(b *testing.B, withCBA bool) {
	bb := decisionBus(withCBA)
	b.ResetTimer()
	runDecisions(bb, b.N)
}

// TestArbiterDecisionOverhead bounds EXP-OVH's software cost: CBA adds a
// compare per master and a counter update, so a bus cycle with the filter
// may cost at most 5× one without it. It times the body the ArbiterDecision
// benchmarks loop over at a fixed cycle count, so it stays well under a
// second; the bound is generous to stay robust on loaded CI machines.
func TestArbiterDecisionOverhead(t *testing.T) {
	const cycles = 2_000_000
	nsPerCycle := func(withCBA bool) float64 {
		bb := decisionBus(withCBA)
		start := time.Now()
		runDecisions(bb, cycles)
		return float64(time.Since(start).Nanoseconds()) / cycles
	}
	rp, cba := nsPerCycle(false), nsPerCycle(true)
	if rp <= 0 || cba <= 0 {
		t.Fatalf("non-positive timings: RP %.1fns, RP+CBA %.1fns", rp, cba)
	}
	if cba > 5*rp {
		t.Errorf("CBA decision cost %.1fns vs %.1fns baseline: filter too heavy", cba, rp)
	}
}

// decisionBus builds EXP-OVH's 4-master random-permutation bus, with or
// without the CBA filter.
func decisionBus(withCBA bool) *bus.Bus {
	const masters = 4
	var credit *core.Arbiter
	if withCBA {
		credit = core.MustNew(core.Homogeneous(masters, 56))
	}
	return bus.MustNew(bus.Config{
		Masters: masters, MaxHold: 56,
		Policy: arbiter.NewRandomPermutation(masters, 1),
		Credit: credit,
	})
}

// runDecisions runs n saturated bus cycles: every free master re-posts,
// then the bus ticks.
func runDecisions(bb *bus.Bus, n int) {
	holds := [...]int64{5, 28, 56, 28}
	for i := 0; i < n; i++ {
		for m := range holds {
			if bb.CanPost(m) {
				bb.MustPost(m, bus.Request{Hold: holds[m]})
			}
		}
		bb.Tick()
	}
}

// BenchmarkWholePlatformCycle measures the full-platform simulation rate
// (cores + caches + bus + CBA), the number that sets experiment wall-clock
// cost.
func BenchmarkWholePlatformCycle(b *testing.B) {
	cfg := creditbus.DefaultConfig()
	cfg.Credit.Kind = creditbus.CreditCBA
	prog, err := creditbus.BuildWorkload("matrix", 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := creditbus.RunMaxContention(cfg, prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	cyclesPerRun := res.TaskCycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Reset()
		if _, err := creditbus.RunMaxContention(cfg, prog, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cyclesPerRun), "sim-cycles/run")
}

// BenchmarkCollectMaxContentionSerial and ...Parallel measure the §III.B
// measurement campaign without and with the worker-pool engine (both on the
// event-horizon stepping engine, the default). ...PerCycle is the same
// serial campaign forced onto the per-cycle reference engine: the
// Serial-vs-PerCycle ratio is the fast path's single-run speedup, tracked
// in BENCH_sim.json (cmd/simbench). All variants produce bit-identical
// sample vectors (TestCampaignDeterminism, TestFastPathCollect...); on a
// multicore host the parallel variant adds near-linear speedup on top,
// which together turn the paper's 1000-run MBPTA campaigns from minutes
// into seconds.
func BenchmarkCollectMaxContentionSerial(b *testing.B) { benchCollect(b, 1, false) }

func BenchmarkCollectMaxContentionPerCycle(b *testing.B) { benchCollect(b, 1, true) }

func BenchmarkCollectMaxContentionParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2 // exercise the pool even on single-CPU hosts
	}
	benchCollect(b, workers, false)
}

func benchCollect(b *testing.B, workers int, perCycle bool) {
	cfg := creditbus.DefaultConfig()
	cfg.Credit.Kind = creditbus.CreditCBA
	cfg.ForcePerCycle = perCycle
	prog, err := creditbus.BuildWorkload("canrdr", 1)
	if err != nil {
		b.Fatal(err)
	}
	const runs = 16
	c := creditbus.Campaign{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CollectMaxContention(cfg, prog, runs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs*b.N)/b.Elapsed().Seconds(), "sim-runs/s")
}
