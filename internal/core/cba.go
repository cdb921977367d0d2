// Package core implements Credit-Based Arbitration (CBA), the contribution
// of Slijepcevic et al., "Design and Implementation of a Fair Credit-Based
// Bandwidth Sharing Scheme for Buses" (DATE 2017).
//
// CBA is a filter in front of any slot-fair arbitration policy. Each bus
// master owns a budget measured in (scaled) cycles of bus occupancy:
//
//	Budget_i(t+1) = min(Budget_i(t) + 1/N, MaxL)          (paper Eq. 1)
//
// and the budget additionally decreases by 1 for every cycle master i holds
// the bus. Only masters whose budget is full (MaxL) are eligible for
// arbitration. Because a master that held the bus for L cycles must wait
// L*(N-1) cycles for its budget to refill, its long-run bandwidth share is
// capped at 1/N regardless of how long its individual requests are — this is
// fairness in cycles instead of fairness in slots.
//
// To keep the arithmetic integral the implementation scales Eq. 1 by S: all
// budgets gain their refill weight w_i per cycle (saturating at the cap) and
// the bus holder loses S per cycle. Homogeneous CBA uses w_i = 1, S = N and
// cap = S*MaxL; the paper's 4-core, MaxL = 56 instance is an 8-bit counter
// per core saturating at 224 (Table I prints 228 with the annotation "56x4";
// 56×4 = 224, so this implementation uses the arithmetically consistent
// value and leaves the cap configurable).
//
// Heterogeneous bandwidth allocation (H-CBA, §III.A) is supported both ways
// the paper describes:
//
//   - variant 1: raise one master's saturation cap above its eligibility
//     threshold (e.g. 2*S*MaxL), allowing back-to-back grants at the price
//     of temporal starvation of the others;
//   - variant 2: heterogeneous refill weights summing to S (e.g. w = {3,1,1,1},
//     S = 6 gives the paper's 1/2 vs 1/6 split).
package core

import (
	"errors"
	"fmt"

	"creditbus/internal/bitset"
)

// Config describes a CBA instance.
type Config struct {
	// Masters is the number of bus masters (cores). Required.
	Masters int

	// MaxHold is MaxL: the maximum (or upper bound of the) bus hold time of
	// any request, in cycles. Required.
	MaxHold int64

	// Weights holds the scaled per-cycle refill w_i of each master.
	// nil means homogeneous (all 1).
	Weights []int64

	// Scale is S, the scaled budget drain per cycle of bus occupancy.
	// 0 means the sum of Weights, which makes refill and drain balance at
	// full bus utilisation (Σ w_i = S ⇒ shares sum to 1).
	Scale int64

	// EligibilityThreshold is the scaled budget a master needs to be
	// arbitrable; nil means Scale*MaxHold for every master (the paper's
	// "budget of exactly MaxL").
	EligibilityThreshold []int64

	// Cap is the scaled saturation limit of each budget counter; nil means
	// equal to the eligibility threshold. Cap > threshold is H-CBA
	// variant 1: credit beyond one full request accumulates, allowing
	// back-to-back grants.
	Cap []int64

	// Mode is the platform configuration of §III.C. WCETMode starts master
	// TuA's budget at zero, to delay its first request maximally (§III.B),
	// and lets every other master compete only while its Table I COMP latch
	// is set. Any other mode is operation mode: COMP is tied high.
	Mode Mode

	// TuA is the master running the task under analysis, in [0, Masters).
	// Only WCETMode reads it.
	TuA int
}

// Arbiter is the credit-based arbitration filter: Table I's per-master BUDG
// counter and COMP latch (wcet.go). The bus calls Update and Tick once per
// cycle and filters its pending set through AndEligible before handing
// masters to the underlying policy.
//
// All per-master state is flat struct-of-arrays (weights, thresholds, caps,
// budgets live in contiguous slices, one index per master), and every
// budget mutation keeps the eligibility bitset in sync, so the bus-side
// arbitration mask is a word-level AND rather than a per-master scan.
type Arbiter struct {
	masters    int
	maxHold    int64
	scale      int64
	weights    []int64
	threshold  []int64
	cap        []int64
	budget     []int64
	underflows int64
	mode       Mode
	tua        int

	// eligibleBits mirrors budget[i] ≥ threshold[i], maintained by every
	// mutation path (Reset, Tick, TickN, SetBudgetForTest).
	eligibleBits bitset.Set

	// comp holds the COMP latches. Invariant: the TuA bit is always set
	// (Table I has no COMP_tua — the TuA competes whenever its budget
	// allows), and in operation mode every bit is, so comp is directly
	// usable as the competing mask.
	comp bitset.Set
}

// New validates cfg and builds the arbiter with all budgets at their initial
// level (see InitialBudget) and the COMP latches reset.
func New(cfg Config) (*Arbiter, error) {
	if cfg.Masters <= 0 {
		return nil, fmt.Errorf("core: Masters = %d, need > 0", cfg.Masters)
	}
	if cfg.MaxHold <= 0 {
		return nil, fmt.Errorf("core: MaxHold = %d, need > 0", cfg.MaxHold)
	}
	n := cfg.Masters

	weights := cfg.Weights
	if weights == nil {
		weights = make([]int64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != n {
		return nil, fmt.Errorf("core: len(Weights) = %d, want %d", len(weights), n)
	}
	var sum int64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("core: Weights[%d] = %d, need > 0", i, w)
		}
		sum += w
	}

	scale := cfg.Scale
	if scale == 0 {
		scale = sum
	}
	if scale < sum {
		return nil, fmt.Errorf("core: Scale = %d below Σweights = %d would oversubscribe the bus", scale, sum)
	}
	for i, w := range weights {
		if w > scale {
			return nil, fmt.Errorf("core: Weights[%d] = %d exceeds Scale = %d", i, w, scale)
		}
	}

	threshold := cfg.EligibilityThreshold
	if threshold == nil {
		threshold = make([]int64, n)
		for i := range threshold {
			threshold[i] = scale * cfg.MaxHold
		}
	}
	if len(threshold) != n {
		return nil, fmt.Errorf("core: len(EligibilityThreshold) = %d, want %d", len(threshold), n)
	}

	capacity := cfg.Cap
	if capacity == nil {
		capacity = append([]int64(nil), threshold...)
	}
	if len(capacity) != n {
		return nil, fmt.Errorf("core: len(Cap) = %d, want %d", len(capacity), n)
	}
	for i := 0; i < n; i++ {
		// Eligibility must be reachable and cover one worst-case request:
		// a master granted at its threshold loses MaxHold*(scale-w_i) net,
		// which must not drive the budget negative.
		if threshold[i] <= 0 {
			return nil, fmt.Errorf("core: EligibilityThreshold[%d] = %d, need > 0", i, threshold[i])
		}
		if capacity[i] < threshold[i] {
			return nil, fmt.Errorf("core: Cap[%d] = %d below threshold %d", i, capacity[i], threshold[i])
		}
		if need := cfg.MaxHold * (scale - weights[i]); threshold[i] < need {
			return nil, fmt.Errorf("core: EligibilityThreshold[%d] = %d cannot fund a MaxHold request (need ≥ %d)",
				i, threshold[i], need)
		}
	}

	if cfg.TuA < 0 || cfg.TuA >= n {
		return nil, fmt.Errorf("core: TuA = %d outside [0,%d)", cfg.TuA, n)
	}

	a := &Arbiter{
		masters:      n,
		maxHold:      cfg.MaxHold,
		scale:        scale,
		weights:      append([]int64(nil), weights...),
		threshold:    append([]int64(nil), threshold...),
		cap:          append([]int64(nil), capacity...),
		budget:       make([]int64, n),
		mode:         cfg.Mode,
		tua:          cfg.TuA,
		eligibleBits: bitset.New(n),
		comp:         bitset.New(n),
	}
	a.Reset()
	return a, nil
}

// MustNew is New that panics on error, for tests and fixed configurations.
func MustNew(cfg Config) *Arbiter {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Homogeneous returns the paper's base configuration: n masters, equal
// weights, eligibility and saturation at n*maxHold.
func Homogeneous(n int, maxHold int64) Config {
	return Config{Masters: n, MaxHold: maxHold}
}

// HeterogeneousWeights returns an H-CBA variant-2 configuration where master
// privileged receives share num/den of the bandwidth and the remaining
// masters split the rest evenly. The paper's evaluation gives the task under
// analysis 1/2 and each of the 3 contenders 1/6: that is
// HeterogeneousWeights(4, maxHold, tua, 1, 2).
func HeterogeneousWeights(n int, maxHold int64, privileged int, num, den int64) (Config, error) {
	if n < 2 || privileged < 0 || privileged >= n {
		return Config{}, errors.New("core: invalid master count or privileged index")
	}
	if num <= 0 || den <= 0 || num >= den {
		return Config{}, fmt.Errorf("core: share %d/%d must be in (0,1)", num, den)
	}
	// Privileged share num/den; others (den-num)/(den*(n-1)) each.
	// Scale = den*(n-1) keeps everything integral.
	scale := den * int64(n-1)
	w := make([]int64, n)
	for i := range w {
		if i == privileged {
			w[i] = num * int64(n-1)
		} else {
			w[i] = den - num
		}
	}
	return Config{Masters: n, MaxHold: maxHold, Weights: w, Scale: scale}, nil
}

// HeterogeneousCap returns an H-CBA variant-1 configuration: homogeneous
// weights, but master privileged saturates at factor times the eligibility
// threshold, letting it bank enough credit for factor back-to-back
// worst-case requests.
func HeterogeneousCap(n int, maxHold int64, privileged int, factor int64) (Config, error) {
	if n < 2 || privileged < 0 || privileged >= n {
		return Config{}, errors.New("core: invalid master count or privileged index")
	}
	if factor < 2 {
		return Config{}, fmt.Errorf("core: cap factor %d must be ≥ 2", factor)
	}
	base := int64(n) * maxHold
	threshold := make([]int64, n)
	capacity := make([]int64, n)
	for i := range threshold {
		threshold[i] = base
		capacity[i] = base
	}
	capacity[privileged] = factor * base
	return Config{
		Masters: n, MaxHold: maxHold,
		EligibilityThreshold: threshold, Cap: capacity,
	}, nil
}

// Reset restores all budgets to their initial level and the COMP latches
// to their reset state: clear for WCET-mode contenders, set otherwise.
func (a *Arbiter) Reset() {
	for i := range a.budget {
		a.budget[i] = a.InitialBudget(i)
		a.eligibleBits.Assign(i, a.budget[i] >= a.threshold[i])
		a.comp.Assign(i, a.mode != WCETMode || i == a.tua)
	}
	a.underflows = 0
}

// Tick advances one cycle: every budget refills by its weight and the bus
// holder, if any, additionally drains Scale; the result saturates at the cap
// (and at zero). holder is -1 when the bus is idle.
//
// This is Table I with both columns applied at the same clock edge: BUDGi ←
// min(BUDGi + 1 − (using ? 4 : 0), 228). Saturating the combined result
// (rather than the increment alone) keeps the holder's net drain at exactly
// Scale−w_i per busy cycle even on the first cycle after saturation, so a
// full-budget master holding for MaxHold cycles lands at exactly
// threshold − MaxHold·(Scale−w_i) ≥ 0.
func (a *Arbiter) Tick(holder int) {
	if holder >= a.masters {
		panic(fmt.Sprintf("core: Tick holder %d out of range", holder))
	}
	for i := range a.budget {
		b := a.budget[i] + a.weights[i]
		if i == holder {
			b -= a.scale
		}
		if b > a.cap[i] {
			b = a.cap[i]
		}
		if b < 0 {
			// Only reachable if the bus grants holds longer than MaxHold
			// or grants ineligible masters; count it so tests can assert
			// it never happens in a well-formed system.
			b = 0
			a.underflows++
		}
		a.budget[i] = b
		a.eligibleBits.Assign(i, b >= a.threshold[i])
	}
}

// TickN applies n consecutive Ticks with a constant holder (or -1 for an
// idle bus) in closed form: Eq. 1 is a saturating linear refill, so n cycles
// of it collapse to min(budget + n·w_i, cap) for non-holders and to
// budget − n·(Scale−w_i) for the holder. The event-horizon stepping engine
// (sim.Machine.Step) relies on this being bit-identical to calling Tick n
// times, which holds because the per-cycle trajectory is monotone between
// the clamps; the one case where it is not — a holder driven below zero,
// where Tick counts an underflow per clamped cycle — falls back to the
// per-cycle loop. That case is unreachable from a well-formed bus (holds are
// bounded by MaxHold and grants require a threshold budget).
func (a *Arbiter) TickN(holder int, n int64) {
	if n <= 0 {
		if n == 0 {
			return
		}
		panic(fmt.Sprintf("core: TickN with n = %d", n))
	}
	if holder >= a.masters {
		panic(fmt.Sprintf("core: TickN holder %d out of range", holder))
	}
	if holder >= 0 {
		net := a.weights[holder] - a.scale // ≤ 0: New enforces Σ weights ≤ Scale
		if a.budget[holder]+net*n < 0 {
			for k := int64(0); k < n; k++ {
				a.Tick(holder)
			}
			return
		}
	}
	for i := range a.budget {
		if i == holder {
			nb := a.budget[i] + (a.weights[i]-a.scale)*n
			if nb > a.cap[i] {
				nb = a.cap[i] // net refill 0 (single master) at a saturated budget
			}
			a.budget[i] = nb
			a.eligibleBits.Assign(i, nb >= a.threshold[i])
			continue
		}
		if a.budget[i] == a.cap[i] {
			// Saturated refill is a no-op for non-holders; the eligibility
			// bit is already set (New enforces cap ≥ threshold).
			continue
		}
		nb := a.budget[i] + a.weights[i]*n
		if nb > a.cap[i] || nb < a.budget[i] { // saturate (also guards overflow)
			nb = a.cap[i]
		}
		a.budget[i] = nb
		if nb >= a.threshold[i] {
			// Refill only raises a non-holder's budget: the bit can only
			// turn on here, never off.
			a.eligibleBits.Set(i)
		}
	}
}

// CyclesUntilEligible returns how many refill-only cycles master m needs
// before Eligible(m) becomes true: 0 if it already is, otherwise
// ceil((threshold − budget)/w_m). "Refill-only" means m does not hold the
// bus in the meantime (the caller's concern on an idle or otherwise-held
// bus).
func (a *Arbiter) CyclesUntilEligible(m int) int64 {
	return a.cyclesUntil(m, a.threshold[m])
}

// CyclesUntilSaturated returns how many refill-only cycles master m needs
// for its budget to reach the saturation cap — the budget half of the
// Table I COMP latch condition.
func (a *Arbiter) CyclesUntilSaturated(m int) int64 {
	return a.cyclesUntil(m, a.cap[m])
}

func (a *Arbiter) cyclesUntil(m int, level int64) int64 {
	short := level - a.budget[m]
	if short <= 0 {
		return 0
	}
	w := a.weights[m]
	return (short + w - 1) / w
}

// Eligible reports whether master m currently has enough budget to be
// arbitrated (budget ≥ eligibility threshold; with the default config the
// threshold equals the cap, so this is the paper's "budget of exactly
// MaxL").
func (a *Arbiter) Eligible(m int) bool {
	return a.budget[m] >= a.threshold[m]
}

// AndEligible intersects dst in place with the budget-eligibility set and
// the COMP latches (all set outside WCET mode) — pending ∧ COMP ∧ eligible,
// the mask the bus arbitrates over. dst must have bitset.Words(Masters())
// words.
func (a *Arbiter) AndEligible(dst bitset.Set) {
	dst.And(a.eligibleBits)
	dst.And(a.comp)
}

// Budget returns master m's current scaled budget.
func (a *Arbiter) Budget(m int) int64 { return a.budget[m] }

// InitialBudget returns master m's scaled budget at Reset: zero for the
// WCET-mode TuA, the saturation cap otherwise. Budget-conservation oracles
// need it as the starting point of the identity
// budget(t) ≤ InitialBudget + t·w_m − S·held_m(t).
func (a *Arbiter) InitialBudget(m int) int64 {
	if a.mode == WCETMode && m == a.tua {
		return 0
	}
	return a.cap[m]
}

// Masters returns the number of masters.
func (a *Arbiter) Masters() int { return a.masters }

// MaxHold returns MaxL.
func (a *Arbiter) MaxHold() int64 { return a.maxHold }

// Scale returns S, the scaled drain per busy cycle.
func (a *Arbiter) Scale() int64 { return a.scale }

// Weight returns master m's scaled refill weight.
func (a *Arbiter) Weight(m int) int64 { return a.weights[m] }

// Cap returns master m's scaled saturation cap.
func (a *Arbiter) Cap(m int) int64 { return a.cap[m] }

// Threshold returns master m's scaled eligibility threshold.
func (a *Arbiter) Threshold(m int) int64 { return a.threshold[m] }

// Underflows returns how many times a drain was clamped at zero; it is 0 in
// any well-formed system (holds bounded by MaxHold, grants only to eligible
// masters).
func (a *Arbiter) Underflows() int64 { return a.underflows }

// Share returns master m's guaranteed long-run bandwidth share, w_i/S.
// This is the bandwidth-fairness theorem of §III: a master continuously
// requesting receives exactly this fraction of bus cycles, independent of
// its request length.
func (a *Arbiter) Share(m int) float64 {
	return float64(a.weights[m]) / float64(a.scale)
}

// RefillCycles returns how many cycles master m needs to regain eligibility
// after holding the bus for hold cycles starting from a full (threshold)
// budget: ceil(hold*(S-w_i)/w_i).
func (a *Arbiter) RefillCycles(m int, hold int64) int64 {
	net := hold * (a.scale - a.weights[m])
	w := a.weights[m]
	return (net + w - 1) / w
}

// WorstCaseWait bounds the cycles an eligible, pending request of master m
// can wait before being granted, assuming a work-conserving underlying
// policy (any of the package arbiter policies except TDMA).
//
// The bound is a budget-conservation ("energy") argument: while m waits, the
// bus is never idle (work conservation would otherwise grant m), so every
// cycle drains Scale from some other master's budget. Master j's total
// occupancy H_j over a window of W cycles satisfies
//
//	Scale*H_j ≤ Cap_j + W*w_j      (budget starts ≤ Cap_j, ends ≥ 0)
//
// and Σ_{j≠m} H_j ≥ W, which yields
//
//	W ≤ Σ_{j≠m} Cap_j / (Scale − Σ_{j≠m} w_j).
//
// The denominator is ≥ w_m > 0 because Σ w ≤ Scale. One extra cycle covers
// arbitration. The bound is conservative (the grant-at-threshold rule makes
// real waits much shorter — see the starvation tests) but it is sound for
// every CBA variant, including H-CBA caps above the eligibility threshold.
func (a *Arbiter) WorstCaseWait(m int) int64 {
	var capSum, wSum int64
	for j := 0; j < a.masters; j++ {
		if j == m {
			continue
		}
		capSum += a.cap[j]
		wSum += a.weights[j]
	}
	denom := a.scale - wSum
	if denom <= 0 {
		// Unreachable: New enforces Σ weights ≤ Scale and weights > 0.
		panic("core: non-positive starvation denominator")
	}
	return (capSum+denom-1)/denom + 1
}

// SetBudgetForTest overrides master m's budget; tests use it to explore
// boundary states without simulating the refill preamble.
func (a *Arbiter) SetBudgetForTest(m int, b int64) {
	if b < 0 || b > a.cap[m] {
		panic("core: SetBudgetForTest out of range")
	}
	a.budget[m] = b
	a.eligibleBits.Assign(m, b >= a.threshold[m])
}
