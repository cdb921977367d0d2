package core

import (
	"strings"
	"testing"
	"testing/quick"

	"creditbus/internal/bitset"
	"creditbus/internal/rng"
)

func mustHomogeneous(t *testing.T, n int, maxHold int64) *Arbiter {
	t.Helper()
	a, err := New(Homogeneous(n, maxHold))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPaperConstants(t *testing.T) {
	// The paper's platform: 4 cores, MaxL = 56, scaled cap 56*4 = 224
	// (Table I prints 228; see the package comment), drain 4 per busy
	// cycle, refill 1 per cycle.
	a := mustHomogeneous(t, 4, 56)
	if a.Scale() != 4 {
		t.Errorf("Scale = %d, want 4", a.Scale())
	}
	for m := 0; m < 4; m++ {
		if a.Cap(m) != 224 {
			t.Errorf("Cap(%d) = %d, want 224", m, a.Cap(m))
		}
		if a.Weight(m) != 1 {
			t.Errorf("Weight(%d) = %d, want 1", m, a.Weight(m))
		}
		if a.Share(m) != 0.25 {
			t.Errorf("Share(%d) = %v, want 0.25", m, a.Share(m))
		}
	}
}

func TestBudgetUpdateRules(t *testing.T) {
	// Table I "every cycle" column: BUDG_i <- min(BUDG_i+1, cap); the bus
	// holder additionally loses Scale.
	a := mustHomogeneous(t, 4, 56)
	a.SetBudgetForTest(0, 100)
	a.SetBudgetForTest(1, 224)
	a.Tick(0) // master 0 holds the bus
	if got := a.Budget(0); got != 100+1-4 {
		t.Errorf("holder budget = %d, want 97", got)
	}
	if got := a.Budget(1); got != 224 {
		t.Errorf("saturated budget = %d, want 224 (must not exceed cap)", got)
	}
	a.Tick(-1) // idle cycle
	if got := a.Budget(0); got != 98 {
		t.Errorf("idle refill = %d, want 98", got)
	}
}

func TestEligibilityRequiresFullBudget(t *testing.T) {
	a := mustHomogeneous(t, 4, 56)
	if !a.Eligible(2) {
		t.Fatal("full budget must be eligible")
	}
	a.SetBudgetForTest(2, 223)
	if a.Eligible(2) {
		t.Fatal("223/224 budget must not be eligible (paper: budget of exactly MaxL)")
	}
	a.Tick(-1)
	if !a.Eligible(2) {
		t.Fatal("refilled budget must be eligible again")
	}
}

// TestFilterEligible: the credit filter's mask, AndEligible, keeps exactly
// the pending masters with a full budget, in place.
func TestFilterEligible(t *testing.T) {
	a := mustHomogeneous(t, 4, 56)
	a.SetBudgetForTest(1, 0)
	pending := bitset.New(4)
	for _, m := range []int{0, 1, 3} {
		pending.Set(m)
	}
	a.AndEligible(pending)
	want := []bool{true, false, false, true}
	for i := range want {
		if pending.Test(i) != want[i] {
			t.Fatalf("AndEligible = %v, want %v", pending, want)
		}
	}
	// A second pass over the filtered mask is a no-op.
	a.AndEligible(pending)
	for i := range want {
		if pending.Test(i) != want[i] {
			t.Fatalf("repeated AndEligible = %v, want %v", pending, want)
		}
	}
}

func TestMaxHoldDrainNeverUnderflows(t *testing.T) {
	// A master granted at its threshold and holding for MaxHold cycles
	// ends with exactly MaxHold*w_i budget — never negative (§ package
	// doc). Check homogeneous and both H-CBA variants.
	configs := map[string]Config{
		"homogeneous": Homogeneous(4, 56),
	}
	hw, err := HeterogeneousWeights(4, 56, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	configs["hcba-weights"] = hw
	hc, err := HeterogeneousCap(4, 56, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	configs["hcba-cap"] = hc

	for name, cfg := range configs {
		a := MustNew(cfg)
		for m := 0; m < a.Masters(); m++ {
			a.Reset()
			a.SetBudgetForTest(m, a.Threshold(m))
			for c := int64(0); c < a.MaxHold(); c++ {
				a.Tick(m)
			}
			got := a.Budget(m)
			want := a.Threshold(m) - a.MaxHold()*(a.Scale()-a.Weight(m))
			if got != want {
				t.Errorf("%s master %d: post-drain budget = %d, want %d", name, m, got, want)
			}
			if got < 0 || a.Underflows() != 0 {
				t.Errorf("%s master %d: budget underflow (budget=%d, underflows=%d)",
					name, m, got, a.Underflows())
			}
		}
	}
}

func TestRefillCycles(t *testing.T) {
	a := mustHomogeneous(t, 4, 56)
	// After a 56-cycle hold, refilling 56*(4-1) = 168 units at 1/cycle.
	if got := a.RefillCycles(0, 56); got != 168 {
		t.Errorf("RefillCycles(56) = %d, want 168", got)
	}
	if got := a.RefillCycles(0, 5); got != 15 {
		t.Errorf("RefillCycles(5) = %d, want 15", got)
	}
	// Observed refill must match the analytic value.
	a.SetBudgetForTest(1, a.Threshold(1))
	for c := int64(0); c < 56; c++ {
		a.Tick(1)
	}
	cycles := int64(0)
	for !a.Eligible(1) {
		a.Tick(-1)
		cycles++
	}
	if cycles != 168 {
		t.Errorf("observed refill = %d cycles, want 168", cycles)
	}
}

func TestStartEmptyDelaysEligibility(t *testing.T) {
	// §III.B: the TuA starts with zero budget, delaying its first request
	// by a full refill: 224 cycles on the paper's platform.
	cfg := Homogeneous(4, 56)
	cfg.Mode, cfg.TuA = WCETMode, 0
	a := MustNew(cfg)
	if a.Eligible(0) {
		t.Fatal("WCET-mode TuA must not be eligible at reset")
	}
	cycles := int64(0)
	for !a.Eligible(0) {
		a.Tick(-1)
		cycles++
	}
	if cycles != 224 {
		t.Errorf("first eligibility after %d cycles, want 224", cycles)
	}
	for m := 1; m < 4; m++ {
		if !a.Eligible(m) {
			t.Errorf("master %d should start full", m)
		}
	}
}

func TestHeterogeneousWeightsShares(t *testing.T) {
	// Paper §IV: TuA recovers 1/2 cycle of budget per cycle, each other
	// core 1/6 — 50% of the bandwidth to the TuA.
	cfg, err := HeterogeneousWeights(4, 56, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew(cfg)
	if got := a.Share(0); got != 0.5 {
		t.Errorf("privileged share = %v, want 0.5", got)
	}
	for m := 1; m < 4; m++ {
		if got := a.Share(m); got < 1.0/6-1e-12 || got > 1.0/6+1e-12 {
			t.Errorf("contender %d share = %v, want 1/6", m, got)
		}
	}
	var total float64
	for m := 0; m < 4; m++ {
		total += a.Share(m)
	}
	if total < 1-1e-12 || total > 1+1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}

func TestHeterogeneousCapVariant(t *testing.T) {
	cfg, err := HeterogeneousCap(4, 56, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew(cfg)
	if got := a.Cap(1); got != 2*224 {
		t.Errorf("privileged cap = %d, want 448", got)
	}
	if got := a.Threshold(1); got != 224 {
		t.Errorf("privileged threshold = %d, want 224", got)
	}
	// With a full double cap, the privileged master can fund two
	// back-to-back MaxHold requests and stay eligible after the first.
	for c := int64(0); c < 56; c++ {
		a.Tick(1)
	}
	if !a.Eligible(1) {
		t.Errorf("privileged master not eligible after one MaxHold burst (budget=%d)", a.Budget(1))
	}
	// An unprivileged master is not.
	a.Reset()
	for c := int64(0); c < 56; c++ {
		a.Tick(2)
	}
	if a.Eligible(2) {
		t.Error("unprivileged master eligible right after a MaxHold burst")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no masters", Config{Masters: 0, MaxHold: 56}, "Masters"},
		{"no maxhold", Config{Masters: 4, MaxHold: 0}, "MaxHold"},
		{"weights len", Config{Masters: 4, MaxHold: 56, Weights: []int64{1}}, "Weights"},
		{"weight zero", Config{Masters: 2, MaxHold: 56, Weights: []int64{1, 0}}, "Weights[1]"},
		{"oversubscribed", Config{Masters: 2, MaxHold: 56, Weights: []int64{2, 2}, Scale: 3}, "oversubscribe"},
		{"threshold len", Config{Masters: 2, MaxHold: 56, EligibilityThreshold: []int64{1}}, "EligibilityThreshold"},
		{"cap below threshold", Config{Masters: 2, MaxHold: 56,
			EligibilityThreshold: []int64{112, 112}, Cap: []int64{111, 112}}, "Cap[0]"},
		{"threshold cannot fund", Config{Masters: 2, MaxHold: 56,
			EligibilityThreshold: []int64{10, 112}, Cap: []int64{112, 112}}, "fund"},
		{"tua range", Config{Masters: 2, MaxHold: 56, Mode: WCETMode, TuA: 2}, "TuA"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.cfg)
			if err == nil {
				t.Fatalf("config %+v unexpectedly valid", c.cfg)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestHeterogeneousConstructorsValidate(t *testing.T) {
	if _, err := HeterogeneousWeights(1, 56, 0, 1, 2); err == nil {
		t.Error("HeterogeneousWeights with 1 master should fail")
	}
	if _, err := HeterogeneousWeights(4, 56, 4, 1, 2); err == nil {
		t.Error("HeterogeneousWeights with out-of-range index should fail")
	}
	if _, err := HeterogeneousWeights(4, 56, 0, 2, 2); err == nil {
		t.Error("HeterogeneousWeights with share 1 should fail")
	}
	if _, err := HeterogeneousCap(4, 56, 0, 1); err == nil {
		t.Error("HeterogeneousCap with factor 1 should fail")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	cfg := Homogeneous(4, 56)
	cfg.Mode, cfg.TuA = WCETMode, 1
	a := MustNew(cfg)
	for c := 0; c < 300; c++ {
		a.Tick(c % 4)
	}
	a.Reset()
	if a.Budget(0) != 224 || a.Budget(1) != 0 {
		t.Fatalf("Reset budgets = %d,%d, want 224,0", a.Budget(0), a.Budget(1))
	}
	if a.Underflows() != 0 {
		t.Fatal("Reset must clear underflow count")
	}
}

func TestWorstCaseWaitBound(t *testing.T) {
	a := mustHomogeneous(t, 4, 56)
	// Energy bound: Σ_{j≠m} cap / w_m + 1 = 3*224/1 + 1 = 673.
	if got := a.WorstCaseWait(0); got != 673 {
		t.Errorf("WorstCaseWait = %d, want 673", got)
	}
	// The bound must hold for every master in the heterogeneous variants.
	hw, _ := HeterogeneousWeights(4, 56, 0, 1, 2)
	b := MustNew(hw)
	for m := 0; m < 4; m++ {
		if b.WorstCaseWait(m) <= 0 {
			t.Errorf("heterogeneous WorstCaseWait(%d) not positive", m)
		}
	}
}

// runSaturated drives a minimal bus loop: every master always has a request
// of its fixed length; when the bus frees, a uniformly random eligible
// master wins (random tie-breaking, as the paper's random-permutations
// backend provides). Returns per-master occupancy shares.
func runSaturated(a *Arbiter, lengths []int64, cycles int64, seed uint64) []float64 {
	src := rng.New(seed)
	n := a.Masters()
	held := make([]int64, n)
	holder, holdLeft := -1, int64(0)
	elig := make([]int, 0, n)
	for c := int64(0); c < cycles; c++ {
		if holder < 0 {
			elig = elig[:0]
			for m := 0; m < n; m++ {
				if lengths[m] > 0 && a.Eligible(m) {
					elig = append(elig, m)
				}
			}
			if len(elig) > 0 {
				holder = elig[src.Intn(len(elig))]
				holdLeft = lengths[holder]
			}
		}
		a.Tick(holder)
		if holder >= 0 {
			held[holder]++
			holdLeft--
			if holdLeft == 0 {
				holder = -1
			}
		}
	}
	shares := make([]float64, n)
	for m := range shares {
		shares[m] = float64(held[m]) / float64(cycles)
	}
	return shares
}

// TestBandwidthShareCap is the paper's central fairness theorem (§III): CBA
// caps every master's long-run occupancy at w_i/Scale regardless of request
// length — the bandwidth a master enjoys no longer grows with how long its
// requests hold the bus.
func TestBandwidthShareCap(t *testing.T) {
	for name, mk := range map[string]func() *Arbiter{
		"homogeneous": func() *Arbiter { return MustNew(Homogeneous(4, 56)) },
		"hcba-weights": func() *Arbiter {
			cfg, _ := HeterogeneousWeights(4, 56, 0, 1, 2)
			return MustNew(cfg)
		},
	} {
		t.Run(name, func(t *testing.T) {
			a := mk()
			// The paper's motivating mix: one short-request master against
			// three streaming masters with maximum-length requests.
			lengths := []int64{5, 56, 56, 56}
			shares := runSaturated(a, lengths, 2_000_000, 42)
			if a.Underflows() != 0 {
				t.Fatalf("underflows = %d", a.Underflows())
			}
			for m := 0; m < a.Masters(); m++ {
				if cap := a.Share(m); shares[m] > cap+0.01 {
					t.Errorf("master %d (len %d): share %.4f exceeds cap %.4f",
						m, lengths[m], shares[m], cap)
				}
			}
		})
	}
}

// TestShortRequestsNotStarved contrasts CBA with slot-fair arbitration on
// the §I example: under slot fairness a 5-cycle master against three
// 56-cycle masters receives 5/(5+3·56) ≈ 2.9% of the bandwidth; under CBA
// it must get a share comparable to its contenders'.
func TestShortRequestsNotStarved(t *testing.T) {
	a := MustNew(Homogeneous(4, 56))
	lengths := []int64{5, 56, 56, 56}
	shares := runSaturated(a, lengths, 2_000_000, 7)
	// The fluid-limit share is 0.25, but on a non-split bus the short
	// master must also sit out the residual of in-flight 56-cycle holds:
	// period ≈ hold(5) + refill(15) + E[residual](≈28) ⇒ share ≈ 0.10.
	// Slot-fair arbitration gives it 5/(5+3·56) ≈ 0.029 — CBA must beat
	// that by a wide margin.
	if shares[0] < 3*0.029 {
		t.Errorf("short-request master share %.4f; want ≥ 3× the slot-fair 0.029", shares[0])
	}
	for m := 1; m < 4; m++ {
		if shares[m] > 0.26 {
			t.Errorf("long-request master %d share %.4f exceeds fair cap", m, shares[m])
		}
	}
}

// TestEqualLengthsPerfectRotation: with identical MaxHold-length requests the
// refill time (3·56 cycles) exactly covers the other three masters' holds, a
// perfect rotation emerges and every master gets exactly 1/4 with no idle.
func TestEqualLengthsPerfectRotation(t *testing.T) {
	a := MustNew(Homogeneous(4, 56))
	lengths := []int64{56, 56, 56, 56}
	const cycles = 224 * 1000 // whole number of rotations
	shares := runSaturated(a, lengths, cycles, 3)
	var sum float64
	for m, s := range shares {
		if s < 0.249 || s > 0.251 {
			t.Errorf("master %d share %.4f, want 0.25", m, s)
		}
		sum += s
	}
	if sum < 0.999 {
		t.Errorf("total utilisation %.4f, want 1.0 (no idle in perfect rotation)", sum)
	}
}

// TestSingleMasterExactShare: a master alone on the bus is throttled to
// exactly w/S by its own refill (period L + L(S-w)/w = L·S/w).
func TestSingleMasterExactShare(t *testing.T) {
	a := MustNew(Homogeneous(4, 56))
	lengths := []int64{28, 0, 0, 0} // only master 0 requests
	const cycles = 112 * 10000      // whole number of 28·4-cycle periods
	shares := runSaturated(a, lengths, cycles, 5)
	if shares[0] < 0.2499 || shares[0] > 0.2501 {
		t.Errorf("lone master share %.5f, want exactly 0.25", shares[0])
	}
}

// TestQuickBudgetInvariant drives random holder sequences and verifies
// 0 ≤ budget ≤ cap at every cycle, with grants only to eligible masters and
// holds bounded by MaxHold.
func TestQuickBudgetInvariant(t *testing.T) {
	f := func(seed uint64, holds []uint8) bool {
		a := MustNew(Homogeneous(4, 8))
		src := rng.New(seed)
		for _, h := range holds {
			m := src.Intn(4)
			if !a.Eligible(m) {
				a.Tick(-1)
				continue
			}
			hold := int64(h%8) + 1
			for c := int64(0); c < hold; c++ {
				a.Tick(m)
				for i := 0; i < 4; i++ {
					if a.Budget(i) < 0 || a.Budget(i) > a.Cap(i) {
						return false
					}
				}
			}
		}
		return a.Underflows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTickPanicsOnBadHolder(t *testing.T) {
	a := mustHomogeneous(t, 4, 56)
	defer func() {
		if recover() == nil {
			t.Fatal("Tick(99) did not panic")
		}
	}()
	a.Tick(99)
}

func TestSetBudgetForTestValidates(t *testing.T) {
	a := mustHomogeneous(t, 4, 56)
	defer func() {
		if recover() == nil {
			t.Fatal("SetBudgetForTest above cap did not panic")
		}
	}()
	a.SetBudgetForTest(0, 225)
}
