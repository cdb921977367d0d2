package arbiter

import (
	"math/bits"

	"creditbus/internal/bitset"
)

// gwfScale is the virtual-time quantum numerator: one grant advances the
// winner's finish tag by gwfScale/weight, so a master of weight w is billed
// 1/w of a unit-weight master's quantum and receives w times the grants per
// unit of virtual time.
const gwfScale = int64(1) << 20

// GWF is general weighted fairness in the explicit-rate tradition
// (Vandalore et al.): each master owns an explicit rate — its weight — and
// arbitration realises the weighted allocation with start-time fair
// queueing. A request arriving at virtual time V is stamped
// start = max(finish, V); arbitration grants the eligible master with the
// minimum start tag; a grant advances the winner's finish tag by its
// quantum (gwfScale/weight) and virtual time to the winner's start tag.
// Backlogged masters therefore receive grants in proportion to their
// weights — the general weighted fairness allocation — while an idle
// master's tags simply go stale and re-anchor at the current virtual time
// on its next request, so unused allocation is redistributed (the
// work-conserving half of the definition).
//
// All tags are plain integers; selection is a pure argmin with ties to the
// lowest index, so the policy is deterministic and both stepping engines
// (and the reference scan) agree bit for bit.
type GWF struct {
	n       int
	weights []uint64
	quantum []uint64 // gwfScale/weight, floored at 1
	vtime   uint64
	start   []uint64
	finish  []uint64
}

// NewGWF builds a general-weighted-fairness policy over n masters. weights
// are the explicit per-master rates (nil or empty = equal).
func NewGWF(n int, weights []int64) *GWF {
	if n <= 0 {
		panic("arbiter: GWF needs n > 0")
	}
	g := &GWF{
		n:       n,
		weights: copyWeights("GWF", n, weights),
		quantum: make([]uint64, n),
		start:   make([]uint64, n),
		finish:  make([]uint64, n),
	}
	for i, w := range g.weights {
		q := uint64(gwfScale) / w
		if q == 0 {
			q = 1
		}
		g.quantum[i] = q
	}
	return g
}

// Name implements Policy.
func (g *GWF) Name() string { return "GWF" }

// OnRequest stamps the arriving request's start tag: the master's own
// finish tag if it is still ahead of virtual time (a backlogged or
// recently served master continues its schedule), the current virtual time
// otherwise (an idle master re-anchors and inherits no credit for the
// service it did not use).
func (g *GWF) OnRequest(m int, _ int64) {
	if m < 0 || m >= g.n {
		return
	}
	if g.finish[m] > g.vtime {
		g.start[m] = g.finish[m]
	} else {
		g.start[m] = g.vtime
	}
}

// PickBits grants the eligible master with the minimum start tag, ties to
// the lowest index.
func (g *GWF) PickBits(eligible bitset.Set, _ int64) (int, bool) {
	best := -1
	var bestStart uint64
	for w, word := range eligible {
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if best < 0 || g.start[m] < bestStart {
				best, bestStart = m, g.start[m]
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// OnGrant bills the winner one quantum and advances virtual time to the
// winner's start tag (monotonically: the credit filter can force service
// out of start-tag order, and virtual time must never run backwards).
func (g *GWF) OnGrant(m int, _ int64) {
	if m < 0 || m >= g.n {
		return
	}
	if g.start[m] > g.vtime {
		g.vtime = g.start[m]
	}
	g.finish[m] = g.start[m] + g.quantum[m]
	// Anticipate a back-to-back request: without an intervening OnRequest
	// the master competes as if it re-requested immediately.
	g.start[m] = g.finish[m]
}

// Reset implements Policy.
func (g *GWF) Reset() {
	g.vtime = 0
	for i := range g.start {
		g.start[i] = 0
		g.finish[i] = 0
	}
}
