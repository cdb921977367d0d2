package arbiter

import (
	"fmt"
	"math/bits"

	"creditbus/internal/bitset"
)

// PropFair is proportional-fair scheduling adapted from cellular downlink
// schedulers to bus arbitration: every master carries an exponentially
// weighted moving average of its grant rate, updated once per grant slot as
//
//	avg ← (1-β)·avg + β·served
//
// (the classic 4G scheduler update with BETA = β), and arbitration picks the
// eligible master minimising avg/weight — the master furthest below its
// weighted long-run share. Under full backlog the grant shares converge to
// the weight entitlements; a master returning from a quiet period has a
// decayed average and wins immediately, which is what gives PF its
// burst-friendliness.
//
// The implementation is exact integer arithmetic so the event-horizon and
// per-cycle engines (and the reference scan) agree bit for bit: averages
// live in Q32 fixed point with β = 2^-shift, the per-slot decay of
// non-winners is applied lazily via binary exponentiation when a master
// next competes, and the avg/weight comparison cross-multiplies in 128
// bits. The slot clock is the grant counter, not the cycle counter, so
// the policy's state evolves identically on both stepping engines (which
// agree on the grant sequence, not on which cycles they visit).
type PropFair struct {
	n       int
	shift   int
	betaQ   uint64 // β in Q32
	decayQ  uint64 // 1-β in Q32
	weights []uint64
	slot    int64    // grants so far — the EWMA's discrete time base
	avg     []uint64 // Q32 EWMA of each master's grant rate
	stamp   []int64  // slot avg[m] is current through
}

// unitQ32 is 1.0 in the Q32 fixed point the averages live in.
const unitQ32 = uint64(1) << 32

// mulQ32 multiplies two Q32 values (truncating): both operands are ≤ 1.0,
// so the 128-bit product's middle 64 bits are the result.
func mulQ32(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi<<32 | lo>>32
}

// powQ32 raises a Q32 value ≤ 1.0 to the k-th power by binary
// exponentiation — O(log k) multiplies, so a master that sat out a million
// slots catches up in ~20 steps.
func powQ32(x uint64, k int64) uint64 {
	r := unitQ32
	for k > 0 {
		if k&1 == 1 {
			r = mulQ32(r, x)
		}
		x = mulQ32(x, x)
		k >>= 1
	}
	return r
}

// DefaultPFShift is the default EWMA shift: β = 2⁻¹ = 0.5, the classic
// scheduler's BETA.
const DefaultPFShift = 1

// copyWeights validates and copies a weight vector; nil or empty means
// equal weights.
func copyWeights(name string, n int, weights []int64) []uint64 {
	out := make([]uint64, n)
	if len(weights) == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	if len(weights) != n {
		panic(fmt.Sprintf("arbiter: %s got %d weights for %d masters", name, len(weights), n))
	}
	for i, w := range weights {
		if w < 1 {
			panic(fmt.Sprintf("arbiter: %s weight[%d] = %d, need ≥ 1", name, i, w))
		}
		out[i] = uint64(w)
	}
	return out
}

// NewPropFair builds a proportional-fair policy over n masters. weights are
// the per-master entitlements (nil or empty = equal); shift sets β = 2^-shift
// (0 = DefaultPFShift, i.e. β = 0.5).
func NewPropFair(n int, weights []int64, shift int) *PropFair {
	if n <= 0 {
		panic("arbiter: PropFair needs n > 0")
	}
	if shift == 0 {
		shift = DefaultPFShift
	}
	if shift < 1 || shift > 30 {
		panic(fmt.Sprintf("arbiter: PropFair shift = %d outside [1,30]", shift))
	}
	p := &PropFair{
		n:       n,
		shift:   shift,
		betaQ:   unitQ32 >> uint(shift),
		weights: copyWeights("PropFair", n, weights),
		avg:     make([]uint64, n),
		stamp:   make([]int64, n),
	}
	p.decayQ = unitQ32 - p.betaQ
	return p
}

// Name implements Policy.
func (p *PropFair) Name() string { return "PF" }

// OnRequest implements Policy; PF is rate-based and keeps no arrival state.
func (p *PropFair) OnRequest(int, int64) {}

// catchup applies the decay of every slot master m sat out since its
// average was last current. PickBits and the reference scan catch up
// exactly the eligible masters of each pick, in ascending index order, so
// the lazily decayed fixed-point values are bit-identical between them.
func (p *PropFair) catchup(m int) {
	if d := p.slot - p.stamp[m]; d > 0 {
		if p.avg[m] != 0 {
			p.avg[m] = mulQ32(p.avg[m], powQ32(p.decayQ, d))
		}
		p.stamp[m] = p.slot
	}
}

// PickBits grants the eligible master minimising avg/weight, compared as
// avg_a·w_b vs avg_b·w_a in 128 bits; ties go to the lowest index
// (ascending iteration, strict improvement).
func (p *PropFair) PickBits(eligible bitset.Set, _ int64) (int, bool) {
	best := -1
	for w, word := range eligible {
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			p.catchup(m)
			if best < 0 {
				best = m
				continue
			}
			chi, clo := bits.Mul64(p.avg[m], p.weights[best])
			bhi, blo := bits.Mul64(p.avg[best], p.weights[m])
			if chi < bhi || (chi == bhi && clo < blo) {
				best = m
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// OnGrant advances the slot clock and folds a full slot of service into the
// winner's average: avg ← (1-β)·avg + β·1.0. Non-winners decay lazily.
func (p *PropFair) OnGrant(m int, _ int64) {
	if m < 0 || m >= p.n {
		return
	}
	p.catchup(m)
	p.avg[m] = mulQ32(p.avg[m], p.decayQ) + p.betaQ
	p.slot++
	p.stamp[m] = p.slot
}

// Reset implements Policy.
func (p *PropFair) Reset() {
	p.slot = 0
	for i := range p.avg {
		p.avg[i] = 0
		p.stamp[i] = 0
	}
}
