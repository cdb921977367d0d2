package core

import (
	"fmt"

	"creditbus/internal/bitset"
)

// Mode selects between the two platform configurations of §III.C.
type Mode int

const (
	// OperationMode is the deployment configuration: REQ signals follow
	// real requests, COMP is always set, budgets start full.
	OperationMode Mode = iota
	// WCETMode is the analysis configuration: contender REQ signals are
	// always set, COMP latches when a contender's budget is full while the
	// task under analysis has a request pending, contender grants hold the
	// bus for MaxL cycles, and the task under analysis starts with zero
	// budget.
	WCETMode
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case OperationMode:
		return "operation"
	case WCETMode:
		return "wcet-estimation"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Signals implements Table I of the paper: the per-master REQ and COMP bits
// the CBA arbiter consumes, for both operation and WCET-estimation mode.
// The task under analysis (TuA) runs on master TuA; every other master is a
// contender.
//
//	               WCET mode                          Operation mode
//	COMP_tua       — (not used; treated as set)       1
//	COMP_cont      latch: BUDG==cap ∧ REQ_tua         1
//	REQ_tua        when request ready                 when request ready
//	REQ_cont       1                                  when request ready
//
// A contender's COMP bit is cleared when it is granted the bus. The bit
// exists so that, at analysis time, contenders spend their budget only to
// create contention for the TuA: requests are "created only if the TuA has
// a request ready" (§III.B).
type Signals struct {
	arb  *Arbiter
	mode Mode
	tua  int
	// comp holds the COMP latches as a bitset so the bus's arbitration mask
	// applies the gate with word ANDs. Invariant: the TuA bit is always set
	// (Table I has no COMP_tua — the TuA competes whenever its budget
	// allows), so comp is directly usable as the competing mask.
	comp bitset.Set
}

// NewSignals builds the Table I signal block for arb. tua is the master
// index of the task under analysis (only meaningful in WCETMode, but kept in
// both for symmetric reporting).
func NewSignals(arb *Arbiter, mode Mode, tua int) *Signals {
	if tua < 0 || tua >= arb.Masters() {
		panic(fmt.Sprintf("core: TuA index %d out of range", tua))
	}
	s := &Signals{arb: arb, mode: mode, tua: tua, comp: bitset.New(arb.Masters())}
	s.Reset()
	return s
}

// Reset clears the COMP latches.
func (s *Signals) Reset() {
	for i := 0; i < s.arb.Masters(); i++ {
		s.comp.Assign(i, s.mode == OperationMode)
	}
	s.comp.Set(s.tua)
}

// Mode returns the configured mode.
func (s *Signals) Mode() Mode { return s.mode }

// TuA returns the master index of the task under analysis.
func (s *Signals) TuA() int { return s.tua }

// Update advances the COMP latches for one cycle. tuaReady is REQ_tua: the
// TuA has a request ready (pending and visible to the arbiter). In
// operation mode COMP stays set and Update is a no-op.
func (s *Signals) Update(tuaReady bool) {
	if s.mode == OperationMode || !tuaReady {
		return
	}
	for i := 0; i < s.arb.Masters(); i++ {
		if i == s.tua {
			continue
		}
		// Latch: set when the contender's budget is saturated and the TuA
		// has a request ready; stays set until the contender is granted.
		if s.arb.Budget(i) >= s.arb.Cap(i) {
			s.comp.Set(i)
		}
	}
}

// OnGrant clears the granted master's COMP latch (WCET mode only; in
// operation mode COMP is architecturally tied high).
func (s *Signals) OnGrant(m int) {
	if s.mode == WCETMode && m != s.tua {
		s.comp.Clear(m)
	}
}

// Competing reports COMP_m: whether master m participates in arbitration
// this cycle. The TuA always competes (its gating is its own budget).
func (s *Signals) Competing(m int) bool {
	if m == s.tua {
		return true
	}
	return s.comp.Test(m)
}

// AndCompeting intersects dst with the COMP mask in place (the TuA bit is
// always set). dst must have bitset.Words(Masters()) words.
func (s *Signals) AndCompeting(dst bitset.Set) { dst.And(s.comp) }

// StateBits returns the architectural state CBA adds per master, in bits:
// the budget counter width plus the COMP latch. This is the quantity behind
// the paper's "FPGA occupancy grew by far less than 0.1%" claim; the
// experiment harness reports it as the hardware-cost substitute.
func (s *Signals) StateBits() int {
	bits := 0
	for m := 0; m < s.arb.Masters(); m++ {
		c := s.arb.Cap(m)
		w := 0
		for v := c; v > 0; v >>= 1 {
			w++
		}
		bits += w + 1 // budget counter + COMP latch
	}
	return bits
}
