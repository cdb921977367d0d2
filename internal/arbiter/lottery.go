package arbiter

import (
	"math/bits"

	"creditbus/internal/bitset"
	"creditbus/internal/rng"
)

// Lottery implements LOTTERYBUS-style arbitration (Lahiri et al., DAC 2001):
// every arbitration, each competing master enters with a configured number of
// tickets and a uniformly drawn ticket selects the winner. With equal
// tickets and constant contention it is slot-fair in expectation. The paper
// lists it among the MBPTA-compatible randomised policies.
type Lottery struct {
	n       int
	seed    uint64
	tickets []int64
	src     *rng.Stream
}

// NewLottery builds a lottery policy over n masters. tickets gives the
// per-master ticket counts; nil or empty means one ticket each. The policy
// owns its rng stream, seeded with seed, so runs are reproducible.
func NewLottery(n int, tickets []int64, seed uint64) *Lottery {
	if n <= 0 {
		panic("arbiter: Lottery needs n > 0")
	}
	if len(tickets) == 0 {
		tickets = make([]int64, n)
		for i := range tickets {
			tickets[i] = 1
		}
	}
	if len(tickets) != n {
		panic("arbiter: Lottery tickets length mismatch")
	}
	for _, t := range tickets {
		if t <= 0 {
			panic("arbiter: Lottery tickets must be positive")
		}
	}
	l := &Lottery{
		n:       n,
		seed:    seed,
		tickets: append([]int64(nil), tickets...),
	}
	l.Reset()
	return l
}

// Name implements Policy.
func (l *Lottery) Name() string { return "LOT" }

// OnRequest implements Policy.
func (l *Lottery) OnRequest(int, int64) {}

// PickBits draws a ticket among the eligible masters. The draw is
// bit-identical to the reference scan's rng.WeightedChoice over a
// zero-padded ticket vector: one Uint64 per arbitration with an eligible
// master, reduced modulo the eligible ticket total, then an ascending walk
// — ineligible masters carried weight 0 in the reference vector, and a
// zero weight can never match (the running ticket stays ≥ 0) nor move the
// walk, so summing and walking only the set bits selects the identical
// winner from the identical draw.
func (l *Lottery) PickBits(eligible bitset.Set, _ int64) (int, bool) {
	var total int64
	for w, word := range eligible {
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			total += l.tickets[m]
		}
	}
	if total == 0 {
		return 0, false
	}
	t := int64(l.src.Uint64() % uint64(total))
	for w, word := range eligible {
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if t < l.tickets[m] {
				return m, true
			}
			t -= l.tickets[m]
		}
	}
	panic("arbiter: Lottery draw outside ticket total")
}

// OnGrant implements Policy.
func (l *Lottery) OnGrant(int, int64) {}

// Reset re-seeds the ticket draw stream. On a constructed policy it
// allocates nothing: the stream is rearmed in place.
func (l *Lottery) Reset() {
	if l.src == nil {
		l.src = rng.New(l.seed)
	} else {
		l.src.Reseed(l.seed)
	}
}

// Reseed implements Reseeder: the policy restarts as if constructed with
// the given seed.
func (l *Lottery) Reseed(seed uint64) {
	l.seed = seed
	l.Reset()
}
