package arbiter

import (
	"fmt"
	"math/bits"

	"creditbus/internal/bitset"
)

// Timescale is one token bucket of a multi-timescale bandwidth profile: a
// refill rate of Num/Den grants per cycle (multiplied by the master's
// weight) with a burst capacity of Depth grants. Tokens are held scaled by
// Den, so refill (Num·weight per cycle), cost (Den per grant) and capacity
// (Depth·Den) are all exact integers.
type Timescale struct {
	Num, Den int64
	Depth    int64
}

// DefaultTimescales is the built-in two-timescale profile: a fine bucket
// bounding short bursts (1/64 grants per cycle, burst 4 — roughly one
// grant per busy MaxL window on the default platform) and a coarse bucket
// bounding the sustained rate (1/512 grants per cycle, burst 32).
func DefaultTimescales() []Timescale {
	return []Timescale{
		{Num: 1, Den: 64, Depth: 4},
		{Num: 1, Den: 512, Depth: 32},
	}
}

// MTS is a multi-timescale token-bucket profile policy after Nádas et al.:
// every master owns one token bucket per timescale, fine to coarse, each
// refilling at the master's weighted rate on that timescale. A master's
// conformance level is the number of its buckets currently holding a full
// grant's worth of tokens; arbitration grants the eligible master with the
// highest level — the one consuming least of its profile across every
// timescale — breaking ties round-robin, and a grant drains one grant's
// cost from each conformant bucket. A master inside its profile on all
// timescales beats one that has exhausted a burst allowance, which is what
// makes the policy burst-aware: short overshoots only demote a master on
// the fine timescale, sustained overuse demotes it everywhere.
//
// The policy is work-conserving — levels prioritise, they never gate — so
// the bus never idles while any master is eligible, and profile headroom a
// master does not use goes to the others. Buckets refill lazily with
// saturating integer arithmetic (chunk-invariant: refilling a span in one
// step or many yields the same tokens), so the per-cycle and event-horizon
// engines, and the reference scan, agree bit for bit.
type MTS struct {
	n       int
	nscales int
	weights []uint64
	cost    []int64 // per level: Den
	caps    []int64 // per level: Depth·Den
	rate    []int64 // [m·nscales+l]: Num·weight — token units per cycle
	tokens  []int64 // [m·nscales+l]
	last    []int64 // [m]: cycle tokens are current through
	next    int     // round-robin rotation pointer for level ties
	levels  []int8  // scratch: conformance level per master, this pick
	cand    []int32 // scratch: eligible masters of this pick
}

// NewMTS builds a multi-timescale profile policy over n masters. weights
// scale each master's refill rates (nil or empty = equal); scales is the
// bucket profile, fine to coarse (nil or empty = DefaultTimescales).
func NewMTS(n int, weights []int64, scales []Timescale) *MTS {
	if n <= 0 {
		panic("arbiter: MTS needs n > 0")
	}
	if len(scales) == 0 {
		scales = DefaultTimescales()
	}
	t := &MTS{
		n:       n,
		nscales: len(scales),
		weights: copyWeights("MTS", n, weights),
		cost:    make([]int64, len(scales)),
		caps:    make([]int64, len(scales)),
		rate:    make([]int64, n*len(scales)),
		tokens:  make([]int64, n*len(scales)),
		last:    make([]int64, n),
		levels:  make([]int8, n),
		cand:    make([]int32, 0, n),
	}
	for l, s := range scales {
		if s.Num < 1 || s.Den < 1 || s.Depth < 1 {
			panic(fmt.Sprintf("arbiter: MTS timescale %d = %+v, need Num/Den/Depth ≥ 1", l, s))
		}
		t.cost[l] = s.Den
		t.caps[l] = s.Depth * s.Den
	}
	for m := 0; m < n; m++ {
		for l, s := range scales {
			t.rate[m*t.nscales+l] = s.Num * int64(t.weights[m])
		}
	}
	t.Reset()
	return t
}

// Name implements Policy.
func (t *MTS) Name() string { return "MTS" }

// OnRequest implements Policy; the profile clock is the cycle counter, not
// arrivals.
func (t *MTS) OnRequest(int, int64) {}

// refill brings master m's buckets current through cycle. Saturating
// linear refill is chunk-invariant — min(cap, tok + Δ·r) composes — so the
// result is independent of when catch-ups happen, which is what keeps the
// two stepping engines (visiting different cycle subsets) bit-identical.
func (t *MTS) refill(m int, cycle int64) {
	d := cycle - t.last[m]
	if d <= 0 {
		return
	}
	base := m * t.nscales
	for l := 0; l < t.nscales; l++ {
		tok := t.tokens[base+l]
		if c := t.caps[l]; tok < c {
			// Overflow-safe: saturate whenever Δ covers the headroom.
			if r := t.rate[base+l]; d >= (c-tok+r-1)/r {
				tok = c
			} else {
				tok += d * r
			}
			t.tokens[base+l] = tok
		}
	}
	t.last[m] = cycle
}

// level counts master m's conformant buckets (tokens ≥ one grant's cost).
func (t *MTS) level(m int) int8 {
	base := m * t.nscales
	var lv int8
	for l := 0; l < t.nscales; l++ {
		if t.tokens[base+l] >= t.cost[l] {
			lv++
		}
	}
	return lv
}

// PickBits collects the eligible masters' conformance levels (refilling
// lazily), then grants the highest level, rotating round-robin among
// equals — the first max-level master at or after the rotation pointer.
func (t *MTS) PickBits(eligible bitset.Set, cycle int64) (int, bool) {
	t.cand = t.cand[:0]
	max := int8(-1)
	for w, word := range eligible {
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t.refill(m, cycle)
			lv := t.level(m)
			t.levels[m] = lv
			if lv > max {
				max = lv
			}
			t.cand = append(t.cand, int32(m))
		}
	}
	if len(t.cand) == 0 {
		return 0, false
	}
	best, bestRank := -1, t.n
	for _, c := range t.cand {
		m := int(c)
		if t.levels[m] != max {
			continue
		}
		rank := m - t.next
		if rank < 0 {
			rank += t.n
		}
		if rank < bestRank {
			best, bestRank = m, rank
		}
	}
	return best, true
}

// OnGrant drains one grant's cost from each of the winner's conformant
// buckets and rotates the tie-break pointer past the winner.
func (t *MTS) OnGrant(m int, cycle int64) {
	if m < 0 || m >= t.n {
		return
	}
	t.refill(m, cycle)
	base := m * t.nscales
	for l := 0; l < t.nscales; l++ {
		if t.tokens[base+l] >= t.cost[l] {
			t.tokens[base+l] -= t.cost[l]
		}
	}
	t.next = (m + 1) % t.n
}

// Reset implements Policy: buckets full, rotation at master 0.
func (t *MTS) Reset() {
	t.next = 0
	for m := 0; m < t.n; m++ {
		t.last[m] = 0
		base := m * t.nscales
		for l := 0; l < t.nscales; l++ {
			t.tokens[base+l] = t.caps[l]
		}
	}
}
