package arbiter

import (
	"math/bits"

	"creditbus/internal/bitset"
	"creditbus/internal/rng"
)

// RandomPermutation implements the random-permutations policy of Jalle et
// al. (DATE 2014), the policy the paper integrates CBA with on the LEON3
// prototype. Time is divided into rounds. At the start of each round the
// arbiter draws a uniform random permutation of the masters; within the
// round every master is granted at most once, and among the masters still
// owed a grant the one earliest in the permutation wins. When no pending
// master is owed a grant in the current round, a fresh round (and
// permutation) starts immediately, keeping the policy work-conserving.
//
// Under full contention each master's position in a round is uniform, which
// is what gives the policy its probabilistic timing guarantees: the number
// of contenders served before a given master is uniform on {0..N-1}.
type RandomPermutation struct {
	n    int
	seed uint64
	src  *rng.Stream
	perm []int
	// rank inverts perm (rank[perm[i]] = i): "first eligible unserved
	// master in permutation order" becomes "minimum rank over the eligible
	// ∧ ¬served bits", so a pick costs the set's population, not a walk of
	// the full permutation.
	rank   []int
	served bitset.Set
}

// NewRandomPermutation builds the policy over n masters with its own rng
// stream seeded by seed.
func NewRandomPermutation(n int, seed uint64) *RandomPermutation {
	if n <= 0 {
		panic("arbiter: RandomPermutation needs n > 0")
	}
	p := &RandomPermutation{
		n:      n,
		seed:   seed,
		perm:   make([]int, n),
		rank:   make([]int, n),
		served: bitset.New(n),
	}
	p.Reset()
	return p
}

// Name implements Policy.
func (p *RandomPermutation) Name() string { return "RP" }

// OnRequest implements Policy.
func (p *RandomPermutation) OnRequest(int, int64) {}

func (p *RandomPermutation) newRound() {
	p.src.Perm(p.perm)
	for i, m := range p.perm {
		p.rank[m] = i
	}
	p.served.Reset()
}

// pickUnserved returns the eligible, not-yet-served master earliest in the
// current permutation (the minimum-rank bit of eligible ∧ ¬served), or -1.
func (p *RandomPermutation) pickUnserved(eligible bitset.Set) int {
	best, bestRank := -1, 0
	for w, word := range eligible {
		word &^= p.served[w]
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if r := p.rank[m]; best == -1 || r < bestRank {
				best, bestRank = m, r
			}
		}
	}
	return best
}

// PickBits selects the next master for this round, opening a new round if
// every eligible master was already served in the current one. Round
// bookkeeping — and therefore the cycle at which each permutation is drawn
// — matches the reference scan exactly: no draw on an empty eligible set, a
// fresh round (one Perm draw) precisely when no eligible master is still
// owed a grant.
func (p *RandomPermutation) PickBits(eligible bitset.Set, _ int64) (int, bool) {
	if !eligible.Any() {
		return 0, false
	}
	if m := p.pickUnserved(eligible); m >= 0 {
		return m, true
	}
	// All eligible masters already had their turn: start a new round.
	p.newRound()
	if m := p.pickUnserved(eligible); m >= 0 {
		return m, true
	}
	return 0, false
}

// OnGrant marks the master as served for the current round.
func (p *RandomPermutation) OnGrant(m int, _ int64) {
	if m >= 0 && m < p.n {
		p.served.Set(m)
	}
}

// Reset re-seeds the stream and draws a fresh first round. On a
// constructed policy it allocates nothing: the stream is rearmed in place.
func (p *RandomPermutation) Reset() {
	if p.src == nil {
		p.src = rng.New(p.seed)
	} else {
		p.src.Reseed(p.seed)
	}
	p.newRound()
}

// Reseed implements Reseeder: the policy restarts as if constructed with
// the given seed.
func (p *RandomPermutation) Reseed(seed uint64) {
	p.seed = seed
	p.Reset()
}
