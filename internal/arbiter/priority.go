package arbiter

import "creditbus/internal/bitset"

// FixedPriority always grants the eligible master with the lowest index.
// The paper's §II explains why this is unusable when every core runs
// real-time tasks: a high-priority core issuing requests back to back
// starves all lower-priority cores. The policy is included as a baseline to
// demonstrate exactly that starvation (see the package tests) and to show
// that the CBA filter in front of it restores starvation freedom.
type FixedPriority struct {
	n int
}

// NewFixedPriority builds the policy over n masters; index 0 has the highest
// priority.
func NewFixedPriority(n int) *FixedPriority {
	if n <= 0 {
		panic("arbiter: FixedPriority needs n > 0")
	}
	return &FixedPriority{n: n}
}

// Name implements Policy.
func (f *FixedPriority) Name() string { return "PRI" }

// OnRequest implements Policy.
func (f *FixedPriority) OnRequest(int, int64) {}

// PickBits grants the lowest-indexed eligible master: the lowest set bit.
func (f *FixedPriority) PickBits(eligible bitset.Set, _ int64) (int, bool) {
	if m := eligible.First(); m >= 0 {
		return m, true
	}
	return 0, false
}

// OnGrant implements Policy.
func (f *FixedPriority) OnGrant(int, int64) {}

// Reset implements Policy.
func (f *FixedPriority) Reset() {}
