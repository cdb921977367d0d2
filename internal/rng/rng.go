// Package rng provides the deterministic pseudo-random substrate used by all
// randomised components of the simulator: random-permutation and lottery bus
// arbitration, random cache placement and replacement, and workload
// randomisation.
//
// It stands in for the APRANDBANK hardware module of the paper's LEON3
// platform (Agirre et al., "IEC-61508 SIL 3-compliant pseudo-random number
// generators for probabilistic timing analysis", DSD 2015), which delivers
// random bits to the arbiter every cycle. The generator is xoshiro256**,
// seeded through SplitMix64 so that any 64-bit seed yields a well-mixed
// state. Streams are cheap value types; every consumer owns its own stream so
// that component randomness is independent and runs are reproducible from a
// single master seed.
package rng

import "fmt"

// Stream is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not valid: seed it in place with Reseed (components
// that hold their stream by value do), or construct one with New or Split.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances x by the SplitMix64 sequence and returns the next
// output. It is used only for seeding.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from seed. Distinct seeds give statistically
// independent sequences.
func New(seed uint64) *Stream {
	var st Stream
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but Reseed guards anyway.
	st.Reseed(seed)
	return &st
}

// Reseed reinitialises s in place to the exact state New(seed) returns.
// It exists for state pooling: components that are recycled between
// simulation runs (caches, arbitration policies) re-arm their streams
// without allocating, and a reseeded stream is bit-identical to a fresh
// one — the property the machine-reuse differential tests pin down.
func (s *Stream) Reseed(seed uint64) {
	sm := seed
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

// Split derives an independent child stream. The child's sequence does not
// overlap usefully with the parent's: it is seeded from the parent's next
// output mixed with a per-call constant, so repeated Splits give distinct
// streams while leaving the parent usable.
func (s *Stream) Split() *Stream {
	return New(s.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Rejection sampling (Lemire's method without bias) keeps the distribution
// exact, which matters for arbitration fairness tests.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	un := uint64(n)
	// Fast path for powers of two.
	if un&(un-1) == 0 {
		return int(s.Uint64() & (un - 1))
	}
	// Rejection sampling on the top bits.
	limit := ^uint64(0) - ^uint64(0)%un
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform random bit as a bool.
func (s *Stream) Bool() bool { return s.Uint64()&1 == 1 }

// Perm fills p with a uniform random permutation of 0..len(p)-1 using
// Fisher-Yates. Passing the slice in avoids per-arbitration allocation in the
// bus hot loop.
func (s *Stream) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// WeightedChoice draws an index with probability proportional to weights[i].
// Weights must be non-negative with a positive sum; otherwise it panics.
// This is the LOTTERYBUS ticket draw.
func (s *Stream) WeightedChoice(weights []int64) int {
	var total int64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("rng: negative weight %d at index %d", w, i))
		}
		total += w
	}
	if total <= 0 {
		panic("rng: WeightedChoice with zero total weight")
	}
	t := int64(s.Uint64() % uint64(total))
	for i, w := range weights {
		if t < w {
			return i
		}
		t -= w
	}
	// Unreachable: t < total and the loop subtracts every weight.
	panic("rng: WeightedChoice fell through")
}
