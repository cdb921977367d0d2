package exp

import "creditbus/internal/core"

// OverheadResult is the substitute for the paper's FPGA synthesis numbers
// (§IV.B: occupancy grew "by far less than 0.1%", 100 MHz maintained).
// Hardware synthesis is out of reach for a Go reproduction, so we report
// the architectural state CBA adds (Table I: one saturating budget counter
// plus one COMP latch per core). The software cost of an arbitration
// decision with and without the CBA filter is wall-clock time, so it comes
// from `go test -bench ArbiterDecision` rather than from this deterministic
// report.
type OverheadResult struct {
	// StateBitsTotal is the total CBA state over all cores; the paper's
	// platform needs 4 × (8-bit counter + COMP bit) = 36 bits.
	StateBitsTotal int
	// StateBitsPerCore is the per-core share.
	StateBitsPerCore int
}

// Overhead reports the CBA state inventory of the paper's 4-core platform.
func Overhead() OverheadResult {
	arb := core.MustNew(core.Homogeneous(4, 56))
	return OverheadResult{
		StateBitsTotal:   arb.StateBits(),
		StateBitsPerCore: arb.StateBits() / arb.Masters(),
	}
}
