// Package mem models the memory side of the paper's platform: the latency
// cost of every bus transaction class and the memory controller that bridges
// the bus to DRAM.
//
// §IV.A fixes the numbers this package defaults to: "Bus transactions take
// between 5 cycles for L2 read cache hit and 56 cycles. Memory latency is 28
// cycles and the longest requests may produce 2 memory accesses, e.g. atomic
// operations produce a read and a write operation and L2 cache misses
// evicting a dirty line produce one access to write dirty data back to
// memory and another to fetch requested data."
package mem

import "fmt"

// Kind classifies a bus transaction by what the memory hierarchy must do.
type Kind int

const (
	// L2ReadHit reads a line present in the core's L2 partition.
	L2ReadHit Kind = iota
	// L2WriteHit writes a line present in L2 (write-back: no memory access).
	L2WriteHit
	// MissClean fetches a line from memory; the evicted line is clean.
	MissClean
	// MissDirty fetches a line from memory after writing back a dirty
	// victim: two memory accesses.
	MissDirty
	// AtomicRMW is an atomic read-modify-write: the bus is held for a
	// memory read plus a memory write, unsplittable by definition (§III.C).
	AtomicRMW

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case L2ReadHit:
		return "l2-read-hit"
	case L2WriteHit:
		return "l2-write-hit"
	case MissClean:
		return "miss-clean"
	case MissDirty:
		return "miss-dirty"
	case AtomicRMW:
		return "atomic-rmw"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Latency is the transaction cost model.
type Latency struct {
	// L2Hit is the bus hold time of an access served by the L2 partition.
	L2Hit int64
	// Mem is the cost of one memory (DRAM) access, bus held throughout
	// (non-split bus).
	Mem int64
}

// DefaultLatency returns the paper's platform numbers: 5-cycle L2 hits and
// 28-cycle memory accesses, giving the 5..56-cycle transaction range and
// MaxL = 56.
func DefaultLatency() Latency { return Latency{L2Hit: 5, Mem: 28} }

// Validate reports whether the latencies are usable.
func (l Latency) Validate() error {
	if l.L2Hit <= 0 || l.Mem <= 0 {
		return fmt.Errorf("mem: non-positive latency %+v", l)
	}
	return nil
}

// Hold returns the bus hold time of a transaction of kind k.
func (l Latency) Hold(k Kind) int64 {
	switch k {
	case L2ReadHit, L2WriteHit:
		return l.L2Hit
	case MissClean:
		return l.Mem
	case MissDirty, AtomicRMW:
		return 2 * l.Mem
	default:
		panic(fmt.Sprintf("mem: Hold of unknown kind %d", int(k)))
	}
}

// MaxHold returns MaxL: the longest possible bus hold time under this model.
func (l Latency) MaxHold() int64 {
	m := l.L2Hit
	if 2*l.Mem > m {
		m = 2 * l.Mem
	}
	return m
}

// Counts holds one traffic counter per transaction kind, indexed by Kind.
type Counts [numKinds]int64

// Controller is the memory controller: it prices transactions and keeps
// per-kind traffic statistics, standing in for the paper's bridge between
// the AMBA bus and the DDR2 DRAM.
type Controller struct {
	lat    Latency
	counts Counts
	cycles [numKinds]int64
}

// NewController builds a controller with the given latency model.
func NewController(lat Latency) (*Controller, error) {
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	return &Controller{lat: lat}, nil
}

// Latency returns the controller's cost model.
func (c *Controller) Latency() Latency { return c.lat }

// Price returns the bus hold time for a transaction of kind k and records
// it in the traffic statistics.
func (c *Controller) Price(k Kind) int64 {
	h := c.lat.Hold(k)
	c.counts[k]++
	c.cycles[k] += h
	return h
}

// Count returns how many transactions of kind k were priced.
func (c *Controller) Count(k Kind) int64 { return c.counts[k] }

// Counts returns how many transactions of each kind were priced.
func (c *Controller) Counts() Counts { return c.counts }

// Cycles returns the total bus cycles consumed by transactions of kind k.
func (c *Controller) Cycles(k Kind) int64 { return c.cycles[k] }

// TotalCount returns the number of transactions priced across all kinds.
func (c *Controller) TotalCount() int64 {
	var t int64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Reset clears the traffic statistics.
func (c *Controller) Reset() {
	c.counts = Counts{}
	c.cycles = [numKinds]int64{}
}
