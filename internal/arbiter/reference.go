package arbiter

import "creditbus/internal/rng"

// This file preserves the pre-bitset linear-scan policy implementations,
// verbatim, as the unexported ref* twins (the fairness policies' twins are
// in referencefair.go). They pick from a []bool mask through refPolicy and
// are not reachable from any production path: their sole consumer is the
// differential suite (scaleref_test.go), which drives each exported
// policy's PickBits and its reference twin with identical request patterns
// and asserts pick-for-pick equality — including the order and count of
// rng draws for the randomised policies. Keeping them in a non-test file
// makes the equivalence claim auditable in one place ("this is exactly the
// code the bitset versions replaced") and available to any future
// differential harness.

// refPolicy is the reference twins' contract: Policy with a linear scan of
// a []bool mask (eligible[m] ⇔ bit m set) in place of PickBits.
type refPolicy interface {
	Name() string
	OnRequest(m int, cycle int64)
	Pick(eligible []bool, cycle int64) (m int, ok bool)
	OnGrant(m int, cycle int64)
	Reset(seed uint64)
}

// countEligible returns the number of set entries.
func countEligible(eligible []bool) int {
	n := 0
	for _, e := range eligible {
		if e {
			n++
		}
	}
	return n
}

// refFIFO is the linear-scan FIFO policy.
type refFIFO struct {
	n       int
	arrival []int64
}

func newRefFIFO(n int) *refFIFO {
	f := &refFIFO{n: n, arrival: make([]int64, n)}
	f.Reset(0)
	return f
}

func (f *refFIFO) Name() string { return "FIFO" }

func (f *refFIFO) OnRequest(m int, cycle int64) {
	if m >= 0 && m < f.n {
		f.arrival[m] = cycle
	}
}

func (f *refFIFO) Pick(eligible []bool, _ int64) (int, bool) {
	best, bestAt := -1, int64(0)
	for m := 0; m < f.n && m < len(eligible); m++ {
		if !eligible[m] {
			continue
		}
		at := f.arrival[m]
		if at < 0 {
			at = 1<<62 - 1
		}
		if best == -1 || at < bestAt {
			best, bestAt = m, at
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

func (f *refFIFO) OnGrant(m int, _ int64) {
	if m >= 0 && m < f.n {
		f.arrival[m] = -1
	}
}

func (f *refFIFO) Reset(uint64) {
	for i := range f.arrival {
		f.arrival[i] = -1
	}
}

// refRoundRobin is the linear-scan round-robin policy.
type refRoundRobin struct {
	n    int
	next int
}

func newRefRoundRobin(n int) *refRoundRobin { return &refRoundRobin{n: n} }

func (r *refRoundRobin) Name() string { return "RR" }

func (r *refRoundRobin) OnRequest(int, int64) {}

func (r *refRoundRobin) Pick(eligible []bool, _ int64) (int, bool) {
	for i := 0; i < r.n; i++ {
		m := (r.next + i) % r.n
		if m < len(eligible) && eligible[m] {
			return m, true
		}
	}
	return 0, false
}

func (r *refRoundRobin) OnGrant(m int, _ int64) { r.next = (m + 1) % r.n }

func (r *refRoundRobin) Reset(uint64) { r.next = 0 }

// refFixedPriority is the linear-scan fixed-priority policy.
type refFixedPriority struct {
	n int
}

func newRefFixedPriority(n int) *refFixedPriority { return &refFixedPriority{n: n} }

func (f *refFixedPriority) Name() string { return "PRI" }

func (f *refFixedPriority) OnRequest(int, int64) {}

func (f *refFixedPriority) Pick(eligible []bool, _ int64) (int, bool) {
	for m := 0; m < f.n && m < len(eligible); m++ {
		if eligible[m] {
			return m, true
		}
	}
	return 0, false
}

func (f *refFixedPriority) OnGrant(int, int64) {}

func (f *refFixedPriority) Reset(uint64) {}

// refTDMA is TDMA with a boolean-slice pick, an independent test of the
// slot owner's entry; slot arithmetic and the Scheduler come from the
// embedded production policy.
type refTDMA struct{ *TDMA }

func newRefTDMA(n int, slotLen int64) refTDMA { return refTDMA{NewTDMA(n, slotLen)} }

// Pick grants the slot owner, and only on the slot's first cycle.
func (t refTDMA) Pick(eligible []bool, cycle int64) (int, bool) {
	if !t.SlotStart(cycle) {
		return 0, false
	}
	owner := t.SlotOwner(cycle)
	if owner < len(eligible) && eligible[owner] {
		return owner, true
	}
	return 0, false
}

// refLottery is the full-vector lottery policy: a zero-padded scratch
// ticket vector handed to rng.WeightedChoice.
type refLottery struct {
	n       int
	tickets []int64
	src     rng.Stream
	scratch []int64
}

func newRefLottery(n int, tickets []int64, seed uint64) *refLottery {
	if len(tickets) == 0 {
		tickets = make([]int64, n)
		for i := range tickets {
			tickets[i] = 1
		}
	}
	l := &refLottery{
		n:       n,
		tickets: append([]int64(nil), tickets...),
		scratch: make([]int64, n),
	}
	l.Reset(seed)
	return l
}

func (l *refLottery) Name() string { return "LOT" }

func (l *refLottery) OnRequest(int, int64) {}

func (l *refLottery) Pick(eligible []bool, _ int64) (int, bool) {
	if countEligible(eligible) == 0 {
		return 0, false
	}
	for m := 0; m < l.n; m++ {
		if m < len(eligible) && eligible[m] {
			l.scratch[m] = l.tickets[m]
		} else {
			l.scratch[m] = 0
		}
	}
	return l.src.WeightedChoice(l.scratch), true
}

func (l *refLottery) OnGrant(int, int64) {}

func (l *refLottery) Reset(seed uint64) { l.src.Reseed(seed) }

// refRandomPermutation is the permutation-walking random-permutations
// policy.
type refRandomPermutation struct {
	n      int
	src    rng.Stream
	perm   []int
	served []bool
}

func newRefRandomPermutation(n int, seed uint64) *refRandomPermutation {
	p := &refRandomPermutation{
		n:      n,
		perm:   make([]int, n),
		served: make([]bool, n),
	}
	p.Reset(seed)
	return p
}

func (p *refRandomPermutation) Name() string { return "RP" }

func (p *refRandomPermutation) OnRequest(int, int64) {}

func (p *refRandomPermutation) newRound() {
	p.src.Perm(p.perm)
	for i := range p.served {
		p.served[i] = false
	}
}

func (p *refRandomPermutation) pickUnserved(eligible []bool) int {
	for _, m := range p.perm {
		if m < len(eligible) && eligible[m] && !p.served[m] {
			return m
		}
	}
	return -1
}

func (p *refRandomPermutation) Pick(eligible []bool, _ int64) (int, bool) {
	if countEligible(eligible) == 0 {
		return 0, false
	}
	if m := p.pickUnserved(eligible); m >= 0 {
		return m, true
	}
	p.newRound()
	if m := p.pickUnserved(eligible); m >= 0 {
		return m, true
	}
	return 0, false
}

func (p *refRandomPermutation) OnGrant(m int, _ int64) {
	if m >= 0 && m < p.n {
		p.served[m] = true
	}
}

func (p *refRandomPermutation) Reset(seed uint64) {
	p.src.Reseed(seed)
	p.newRound()
}
