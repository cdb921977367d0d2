package exp

import (
	"testing"
)

func TestRunSeedDistinctAndStable(t *testing.T) {
	o := Options{}.withDefaults()
	seen := map[uint64]bool{}
	for c := 0; c < 10; c++ {
		for r := 0; r < 10; r++ {
			s := o.runSeed(c, r)
			if seen[s] {
				t.Fatalf("seed collision at config %d run %d", c, r)
			}
			seen[s] = true
			if s != o.runSeed(c, r) {
				t.Fatal("runSeed not stable")
			}
		}
	}
}

func TestIllustrativeMatchesPaperArithmetic(t *testing.T) {
	r := Illustrative()
	// Isolation is exact: 1,000 requests × (6 bus + 4 compute).
	if r.IsoCycles != 10_000 {
		t.Errorf("IsoCycles = %d, want exactly 10000", r.IsoCycles)
	}
	// Round-robin: the paper's arithmetic gives 94,000 by adding the 4,000
	// compute cycles on top of 1,000×(6+84); in the simulation the compute
	// overlaps the contenders' holds, so steady state is 1,000×90 ≈ 90,000.
	if r.RRCycles < 88_000 || r.RRCycles > 94_500 {
		t.Errorf("RRCycles = %d, want ≈ 90,000..94,000 (paper arithmetic 94,000)", r.RRCycles)
	}
	if r.RRSlowdown < 8.8 || r.RRSlowdown > 9.5 {
		t.Errorf("RR slowdown %.2f, paper quotes 9.4", r.RRSlowdown)
	}
	// CBA: fluid-limit arithmetic gives 2.8×. On the non-split bus the TuA
	// refills after every request (18 cycles for a 6-cycle hold) and then
	// waits out whole 28-cycle contender holds, often chained — so the
	// measured value lands near 5.7×, still far below RR's 9×+ and with
	// every contender hard-capped at 25% bandwidth. EXPERIMENTS.md
	// discusses the gap to the paper's fluid arithmetic.
	if r.CBASlowdown < 2.0 || r.CBASlowdown > 6.0 {
		t.Errorf("CBA slowdown %.2f outside the cycle-fair regime", r.CBASlowdown)
	}
	if r.CBASlowdown >= 0.7*r.RRSlowdown {
		t.Errorf("CBA %.2f not clearly below RR %.2f", r.CBASlowdown, r.RRSlowdown)
	}
}

func TestFig1SmallCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run campaign")
	}
	rows, err := Fig1(Options{Runs: 3, MaxOps: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 benchmarks", len(rows))
	}
	for _, row := range rows {
		if row.RPISOCycles <= 0 {
			t.Errorf("%s: zero baseline", row.Benchmark)
		}
		for _, cfg := range Fig1Configs {
			cell, ok := row.Cells[cfg]
			if !ok {
				t.Fatalf("%s missing cell %s", row.Benchmark, cfg)
			}
			if cell.Mean <= 0 || cell.Mean > 20 {
				t.Errorf("%s/%s: normalised mean %.3f implausible", row.Benchmark, cfg, cell.Mean)
			}
		}
		iso := row.Cells["RP-ISO"].Mean
		if iso < 0.999 || iso > 1.001 {
			t.Errorf("%s: RP-ISO normalises to %.4f, want 1.0", row.Benchmark, iso)
		}
		// Contention cannot be faster than isolation for the same policy.
		if row.Cells["RP-CON"].Mean < iso {
			t.Errorf("%s: RP-CON %.3f below RP-ISO", row.Benchmark, row.Cells["RP-CON"].Mean)
		}
	}
	s := Summarise(rows)
	if s.MaxRPCon <= 1 || s.MaxCBACon <= 1 {
		t.Errorf("summary degenerate: %+v", s)
	}
}

func TestSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep campaign")
	}
	pts := Sweep(Options{})
	if len(pts) < 3 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	// Slot-fair slowdown grows with contender length...
	for _, p := range []string{"RR", "RP", "FIFO"} {
		if last.Slowdown[p] <= first.Slowdown[p] {
			t.Errorf("%s slowdown did not grow with contender hold: %.2f -> %.2f",
				p, first.Slowdown[p], last.Slowdown[p])
		}
		if last.Slowdown[p] < 5 {
			t.Errorf("%s slowdown at hold 56 = %.2f, expected large", p, last.Slowdown[p])
		}
	}
	// ...while CBA pins it near the core count at every point.
	for _, pt := range pts {
		for _, p := range []string{"CBA+RR", "CBA+RP"} {
			if s := pt.Slowdown[p]; s > 4.6 {
				t.Errorf("%s slowdown %.2f at hold %d, want ≈ ≤ 4 (cycle fairness)",
					p, s, pt.ContenderHold)
			}
		}
	}
}

func TestOverheadReport(t *testing.T) {
	r := Overhead()
	if r.StateBitsTotal != 36 || r.StateBitsPerCore != 9 {
		t.Errorf("state bits = %d/%d, want 36/9 (Table I inventory)", r.StateBitsTotal, r.StateBitsPerCore)
	}
}

func TestMBPTAExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement campaign")
	}
	r, err := MBPTAExperiment(Options{Runs: 60, MaxOps: 6000}, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RPCurve) != 10 || len(r.CBACurve) != 10 {
		t.Fatalf("curve lengths %d/%d", len(r.RPCurve), len(r.CBACurve))
	}
	// pWCET curves are increasing in rarity.
	for i := 1; i < len(r.RPCurve); i++ {
		if r.RPCurve[i].WCET < r.RPCurve[i-1].WCET {
			t.Error("RP curve not monotone")
		}
	}
	// For the dense short-request benchmark, CBA's fitted location must
	// undercut the baseline's (the distributions are well separated; the
	// extrapolated deep decades depend on the fitted scale, which a
	// 60-run campaign does not pin down, so the location is the robust
	// comparison).
	if r.CBA.Fit.Mu >= r.RP.Fit.Mu {
		t.Errorf("Gumbel location: CBA %.0f not below RP %.0f", r.CBA.Fit.Mu, r.RP.Fit.Mu)
	}
	if _, err := MBPTAExperiment(Options{Runs: 30}, "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestHCBAAblationContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation campaign")
	}
	results := HCBAAblation(Options{})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	var weights, cap HCBAResult
	for _, r := range results {
		switch r.Variant {
		case "weights":
			weights = r
		case "cap":
			cap = r
		}
	}
	// §III.A: the cap variant allows back-to-back grants; the
	// threshold-equals-cap weights variant cannot issue hold-28 requests
	// back to back (it must refill first).
	if cap.TuABackToBack == 0 {
		t.Error("cap variant produced no back-to-back grants")
	}
	if weights.TuABackToBack != 0 {
		t.Errorf("weights variant produced %d back-to-back grants", weights.TuABackToBack)
	}
	// The cap variant inflicts longer uninterrupted exclusion on the
	// contenders ("temporal starvation"): its occupancy runs span two
	// 28-cycle holds. The weights variant instead squeezes the contenders
	// *continuously* — their combined share drops towards Σ(1/6) = 50%
	// versus the cap variant's untouched 75%. (Burst latency alone does
	// not discriminate: the weights variant's throttled contenders make
	// even non-back-to-back bursts fast.)
	if cap.TuAMaxRun <= weights.TuAMaxRun {
		t.Errorf("cap occupancy run %d not above weights %d",
			cap.TuAMaxRun, weights.TuAMaxRun)
	}
	if cap.ContenderShare <= weights.ContenderShare+0.1 {
		t.Errorf("contender shares: cap %.3f vs weights %.3f — want cap clearly higher",
			cap.ContenderShare, weights.ContenderShare)
	}
	if weights.ContenderShare > 0.52 {
		t.Errorf("weights variant contender share %.3f exceeds the Σ(1/6) cap", weights.ContenderShare)
	}
}

func TestFairnessComparisonSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run campaign")
	}
	rows, err := FairnessComparison(Options{Runs: 3, MaxOps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FairnessPolicies) {
		t.Fatalf("rows = %d, want %d policies", len(rows), len(FairnessPolicies))
	}
	byName := map[string]FairnessRow{}
	for i, row := range rows {
		if row.Policy != FairnessPolicies[i] {
			t.Fatalf("row %d is %s, want %s", i, row.Policy, FairnessPolicies[i])
		}
		byName[row.Policy] = row
		if row.TaskCycles <= 0 {
			t.Errorf("%s: zero task cycles", row.Policy)
		}
		n := float64(len(FairnessWeights))
		if row.JainOverall < 1/n-1e-9 || row.JainOverall > 1+1e-9 {
			t.Errorf("%s: Jain %.4f outside [1/n, 1]", row.Policy, row.JainOverall)
		}
		for what, v := range map[string]float64{
			"share err":    row.ShareErr,
			"win err max":  row.MaxWindowShareErr,
			"win err mean": row.MeanWindowShareErr,
			"TuA share":    row.TuAShare,
		} {
			if v < -1e-9 || v > 1+1e-9 {
				t.Errorf("%s: %s %.4f outside [0, 1]", row.Policy, what, v)
			}
		}
		if row.MaxStarveAge <= 0 {
			t.Errorf("%s: no starvation age recorded", row.Policy)
		}
	}
	// The headline contrast: under full backlog, round-robin splits the bus
	// evenly (Jain ≈ 1 against the unweighted shares) while the weighted
	// policies move the TuA toward its 50% entitlement, so PF and GWF must
	// beat RR on share error by a clear margin.
	rr, pf, gwf := byName["RR"], byName["PF"], byName["GWF"]
	if rr.JainOverall < 0.99 {
		t.Errorf("RR: Jain %.4f, want ≈ 1 under symmetric backlog", rr.JainOverall)
	}
	if pf.ShareErr >= rr.ShareErr {
		t.Errorf("PF share error %.4f not below RR's %.4f", pf.ShareErr, rr.ShareErr)
	}
	if gwf.ShareErr >= rr.ShareErr {
		t.Errorf("GWF share error %.4f not below RR's %.4f", gwf.ShareErr, rr.ShareErr)
	}
	if pf.TuAShare <= rr.TuAShare || gwf.TuAShare <= rr.TuAShare {
		t.Errorf("weighted TuA shares (PF %.3f, GWF %.3f) not above RR's %.3f",
			pf.TuAShare, gwf.TuAShare, rr.TuAShare)
	}
}
