package arbiter

import "creditbus/internal/bitset"

// RoundRobin grants masters in rotating-priority order: after a grant to
// master m, master m+1 (mod N) has the highest priority. With all masters
// constantly requesting, it is slot-fair: each master receives the same
// number of grants, regardless of how long each grant occupies the bus —
// exactly the behaviour the paper's §II illustrative example shows to be
// bandwidth-unfair.
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin builds a round-robin policy over n masters.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 {
		panic("arbiter: RoundRobin needs n > 0")
	}
	return &RoundRobin{n: n}
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return "RR" }

// OnRequest implements Policy; round-robin keeps no arrival state.
func (r *RoundRobin) OnRequest(int, int64) {}

// PickBits grants the first eligible master at or after the priority
// pointer, wrapping to the lowest set bit — the rotating scan, in two
// word-level probes.
func (r *RoundRobin) PickBits(eligible bitset.Set, _ int64) (int, bool) {
	if m := eligible.NextFrom(r.next); m >= 0 {
		return m, true
	}
	if m := eligible.First(); m >= 0 {
		return m, true
	}
	return 0, false
}

// OnGrant rotates priority past the granted master.
func (r *RoundRobin) OnGrant(m int, _ int64) { r.next = (m + 1) % r.n }

// Reset implements Policy.
func (r *RoundRobin) Reset() { r.next = 0 }
