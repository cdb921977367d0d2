package core

import "fmt"

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

// Table I of the paper: the per-master REQ and COMP bits the CBA arbiter
// consumes, for both operation and WCET-estimation mode. The task under
// analysis (TuA) runs on master Config.TuA; every other master is a
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
// a request ready" (§III.B). The arbiter holds the COMP side; REQ is the
// bus's pending set, which the machine's injectors keep set for contenders.

// Mode returns the configured mode.
func (a *Arbiter) Mode() Mode { return a.mode }

// TuA returns the master index of the task under analysis.
func (a *Arbiter) TuA() int { return a.tua }

// Update advances the COMP latches for one cycle. tuaReady is REQ_tua: the
// TuA has a request ready (pending and visible to the arbiter). In
// operation mode COMP stays set and Update is a no-op.
func (a *Arbiter) Update(tuaReady bool) {
	if a.mode != WCETMode || !tuaReady {
		return
	}
	for i := range a.budget {
		// Latch: set when the contender's budget is saturated and the TuA
		// has a request ready; stays set until the contender is granted.
		// The TuA's own bit is always set already.
		if a.budget[i] >= a.cap[i] {
			a.comp.Set(i)
		}
	}
}

// OnGrant clears the granted master's COMP latch (WCET mode only; in
// operation mode COMP is architecturally tied high).
func (a *Arbiter) OnGrant(m int) {
	if a.mode == WCETMode && m != a.tua {
		a.comp.Clear(m)
	}
}

// Competing reports COMP_m: whether master m participates in arbitration
// this cycle. The TuA always competes (its gating is its own budget).
func (a *Arbiter) Competing(m int) bool { return a.comp.Test(m) }

// StateBits returns the architectural state CBA adds per master, in bits:
// the budget counter width plus the COMP latch. This is the quantity behind
// the paper's "FPGA occupancy grew by far less than 0.1%" claim; the
// experiment harness reports it as the hardware-cost substitute.
func (a *Arbiter) StateBits() int {
	bits := 0
	for _, c := range a.cap {
		w := 0
		for v := c; v > 0; v >>= 1 {
			w++
		}
		bits += w + 1 // budget counter + COMP latch
	}
	return bits
}
