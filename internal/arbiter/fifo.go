package arbiter

import (
	"math/bits"

	"creditbus/internal/bitset"
)

// FIFO grants requests in arrival order. Ties (requests becoming arbitrable
// on the same cycle) are broken by master index, which models the fixed
// position of masters on the request wires.
type FIFO struct {
	n       int
	arrival []int64 // arrival cycle per master; -1 when no request recorded
}

// NewFIFO builds a FIFO policy over n masters.
func NewFIFO(n int) *FIFO {
	if n <= 0 {
		panic("arbiter: FIFO needs n > 0")
	}
	f := &FIFO{n: n, arrival: make([]int64, n)}
	f.Reset(0)
	return f
}

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO" }

// OnRequest records the arrival cycle of m's request.
func (f *FIFO) OnRequest(m int, cycle int64) {
	if m >= 0 && m < f.n {
		f.arrival[m] = cycle
	}
}

// PickBits grants the eligible master with the oldest recorded arrival: the
// minimum over the set bits, visited in ascending master order so equal
// arrivals break toward the lower index exactly as the reference scan does
// (strict < keeps the first minimum).
func (f *FIFO) PickBits(eligible bitset.Set, _ int64) (int, bool) {
	best, bestAt := -1, int64(0)
	for w, word := range eligible {
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			at := f.arrival[m]
			if at < 0 {
				// Eligible but no arrival recorded (e.g. policy attached
				// mid-run); treat as arriving now so it still gets served.
				at = 1<<62 - 1
			}
			if best == -1 || at < bestAt {
				best, bestAt = m, at
			}
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

// OnGrant clears the granted master's arrival record.
func (f *FIFO) OnGrant(m int, _ int64) {
	if m >= 0 && m < f.n {
		f.arrival[m] = -1
	}
}

// Reset implements Policy.
func (f *FIFO) Reset(uint64) {
	for i := range f.arrival {
		f.arrival[i] = -1
	}
}
