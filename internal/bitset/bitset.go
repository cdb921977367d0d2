// Package bitset provides the fixed-capacity eligibility bitsets the
// many-requestor arbitration path is built on. A Set packs one bit per bus
// master into 64-bit words, so the per-decision set algebra the bus performs
// every arbitration cycle — pending ∧ visible ∧ COMP ∧ budget-eligible — is
// a handful of word ANDs instead of a linear scan over per-master slices,
// and winner selection iterates only the set bits via trailing-zero counts.
//
// Sets are plain []uint64 slices: callers that need to fuse iteration with
// their own per-master state (the arbiter policies, the bus horizon) range
// over the words directly with the
//
//	for w, word := range set {
//	    for word != 0 {
//	        m := w<<6 + bits.TrailingZeros64(word)
//	        word &= word - 1
//	        ...
//	    }
//	}
//
// idiom, which visits masters in ascending index order — the order every
// linear scan it replaces used, so tie-breaks are preserved bit for bit.
package bitset

import "math/bits"

// Set is a bitset over master indices 0..n-1, stored little-endian in
// 64-bit words (bit i lives in word i>>6). Bits at or above the capacity a
// Set was created with must stay clear; all operations preserve that.
type Set []uint64

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns an empty Set with capacity for n bits.
func New(n int) Set { return make(Set, Words(n)) }

// Test reports whether bit i is set.
func (s Set) Test(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (s Set) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s Set) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Assign sets bit i to v.
func (s Set) Assign(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Reset clears every bit.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Any reports whether any bit is set.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the lowest set bit, or -1 when the set is empty.
func (s Set) First() int {
	for w, word := range s {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// NextFrom returns the lowest set bit ≥ from, or -1. A from past the
// capacity returns -1.
func (s Set) NextFrom(from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(s) {
		return -1
	}
	if word := s[w] &^ (1<<(uint(from)&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	for w++; w < len(s); w++ {
		if word := s[w]; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// CopyFrom overwrites s with o. The sets must have equal word length.
func (s Set) CopyFrom(o Set) { copy(s, o) }

// And intersects s with o in place. The sets must have equal word length.
func (s Set) And(o Set) {
	for i := range s {
		s[i] &= o[i]
	}
}
