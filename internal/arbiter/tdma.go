package arbiter

import "creditbus/internal/bitset"

// TDMA divides time into fixed slots of SlotLen cycles, one per master, in a
// fixed rotation. Following the paper's §II discussion, a request may only be
// issued during the first cycle of its owner's slot: because request duration
// is unknown a priori (hit vs miss, dirty eviction, ...), granting later in
// the slot could overrun into the next owner's slot and destroy the time
// composability TDMA exists to provide. A slot whose owner has nothing to
// issue — or whose owner's request arrived after the slot's first cycle —
// stays idle.
//
// SlotLen is normally MaxL, the worst-case bus hold time.
type TDMA struct {
	n       int
	slotLen int64
}

// NewTDMA builds a TDMA policy over n masters with slots of slotLen cycles.
func NewTDMA(n int, slotLen int64) *TDMA {
	if n <= 0 || slotLen <= 0 {
		panic("arbiter: TDMA needs n > 0 and slotLen > 0")
	}
	return &TDMA{n: n, slotLen: slotLen}
}

// Name implements Policy.
func (t *TDMA) Name() string { return "TDMA" }

// OnRequest implements Policy; TDMA is oblivious to arrivals.
func (t *TDMA) OnRequest(int, int64) {}

// SlotOwner returns the master owning the slot containing cycle.
func (t *TDMA) SlotOwner(cycle int64) int {
	if cycle < 0 {
		cycle = 0
	}
	return int((cycle / t.slotLen) % int64(t.n))
}

// SlotStart reports whether cycle is the first cycle of a slot.
func (t *TDMA) SlotStart(cycle int64) bool { return cycle%t.slotLen == 0 }

// PickBits grants the slot owner, and only on the slot's first cycle: one
// bit test — TDMA arbitration is O(1) at any master count.
func (t *TDMA) PickBits(eligible bitset.Set, cycle int64) (int, bool) {
	if !t.SlotStart(cycle) {
		return 0, false
	}
	if owner := t.SlotOwner(cycle); eligible.Test(owner) {
		return owner, true
	}
	return 0, false
}

// NextPickCycle implements Scheduler: grants happen only on slot-start
// cycles, so the earliest possible pick at or after from is the next slot
// boundary.
func (t *TDMA) NextPickCycle(from int64) int64 {
	if from < 0 {
		return 0
	}
	if rem := from % t.slotLen; rem != 0 {
		return from + t.slotLen - rem
	}
	return from
}

// OnGrant implements Policy; TDMA keeps no grant state.
func (t *TDMA) OnGrant(int, int64) {}

// Reset implements Policy; TDMA is stateless beyond the cycle counter it is
// handed, so there is nothing to reset.
func (t *TDMA) Reset(uint64) {}
