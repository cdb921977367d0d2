package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Exact is a streaming moment accumulator over integer samples whose state
// is bit-exact under merging: count, sum, minimum, maximum and the sum of
// squares are all held as integers (the squares in 128 bits), so Merge is
// associative AND commutative down to the last bit — unlike floating-point
// Welford merging, where the merge order perturbs the low mantissa bits.
// That exactness is what lets a sharded campaign fold each shard's samples
// independently and still produce a merged state byte-identical to the
// single-process fold, whatever the shard count (see internal/shard).
//
// Execution times, wall cycles and bus-occupancy counts are all integer
// cycle quantities, so the integer restriction costs nothing. Derived
// statistics (Mean, Variance, Jain) are computed from the exact state at
// report time; they are deterministic functions of the integers, so equal
// states always render equal reports.
//
// Range: Sum accumulates in int64 (overflow at ~9.2e18, i.e. 10^8 samples
// of ~9e10 cycles each), the squared sum in 128 bits (overflow practically
// unreachable). Samples must be non-negative — cycle counts always are —
// which Add enforces.
type Exact struct {
	// Count is the number of samples folded in.
	Count int64 `json:"n"`
	// Sum is the exact sample sum.
	Sum int64 `json:"sum"`
	// SumSqHi and SumSqLo are the exact 128-bit sum of squared samples.
	SumSqHi uint64 `json:"sumsq_hi"`
	SumSqLo uint64 `json:"sumsq_lo"`
	// MinV and MaxV are the extreme samples (undefined while Count == 0).
	MinV int64 `json:"min"`
	MaxV int64 `json:"max"`
}

// Add folds one sample into the accumulator. It panics on a negative
// sample: the accumulator is for cycle counts, where a negative value can
// only be an upstream bug.
func (e *Exact) Add(x int64) {
	if x < 0 {
		panic(fmt.Sprintf("stats: Exact.Add(%d): negative sample", x))
	}
	if e.Count == 0 {
		e.MinV, e.MaxV = x, x
	} else {
		if x < e.MinV {
			e.MinV = x
		}
		if x > e.MaxV {
			e.MaxV = x
		}
	}
	e.Count++
	e.Sum += x
	hi, lo := bits.Mul64(uint64(x), uint64(x))
	var carry uint64
	e.SumSqLo, carry = bits.Add64(e.SumSqLo, lo, 0)
	e.SumSqHi, _ = bits.Add64(e.SumSqHi, hi, carry)
}

// Merge folds another accumulator's samples into e, exactly as if every one
// of o's samples had been Added to e individually — in any order, because
// every component (count, sum, min, max, 128-bit squares) is commutative
// and associative in exact integer arithmetic.
func (e *Exact) Merge(o Exact) {
	if o.Count == 0 {
		return
	}
	if e.Count == 0 {
		*e = o
		return
	}
	if o.MinV < e.MinV {
		e.MinV = o.MinV
	}
	if o.MaxV > e.MaxV {
		e.MaxV = o.MaxV
	}
	e.Count += o.Count
	e.Sum += o.Sum
	var carry uint64
	e.SumSqLo, carry = bits.Add64(e.SumSqLo, o.SumSqLo, 0)
	e.SumSqHi, _ = bits.Add64(e.SumSqHi, o.SumSqHi, carry)
}

// N returns the number of samples folded in.
func (e Exact) N() int64 { return e.Count }

// Min returns the smallest sample, or 0 with no samples.
func (e Exact) Min() int64 {
	if e.Count == 0 {
		return 0
	}
	return e.MinV
}

// Max returns the largest sample, or 0 with no samples.
func (e Exact) Max() int64 {
	if e.Count == 0 {
		return 0
	}
	return e.MaxV
}

// sumSq returns the 128-bit squared sum as a float64 — the single rounding
// step of the derived statistics. Equal exact states give equal floats.
func (e Exact) sumSq() float64 {
	return float64(e.SumSqHi)*0x1p64 + float64(e.SumSqLo)
}

// Mean returns the sample mean, or 0 with no samples.
func (e Exact) Mean() float64 {
	if e.Count == 0 {
		return 0
	}
	return float64(e.Sum) / float64(e.Count)
}

// Variance returns the unbiased sample variance, derived from the exact
// moments (Σx² − (Σx)²/n)/(n−1), or 0 with fewer than two samples. Clamped
// at 0 against the subtraction's rounding.
func (e Exact) Variance() float64 {
	if e.Count < 2 {
		return 0
	}
	n := float64(e.Count)
	s := float64(e.Sum)
	v := (e.sumSq() - s*s/n) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (e Exact) StdDev() float64 { return math.Sqrt(e.Variance()) }

// CI95HalfWidth returns the half width of the normal-approximation 95%
// confidence interval of the mean (z = 1.96), or 0 with fewer than two
// samples.
func (e Exact) CI95HalfWidth() float64 {
	if e.Count < 2 {
		return 0
	}
	return 1.96 * e.StdDev() / math.Sqrt(float64(e.Count))
}

// Jain returns Jain's fairness index of the samples, (Σx)²/(n·Σx²) —
// 1.0 when every sample is equal, 1/n when a single sample holds
// everything — derived from the exact moments. Returns 0 with no samples or
// an all-zero sum of squares.
func (e Exact) Jain() float64 {
	if e.Count == 0 {
		return 0
	}
	sq := e.sumSq()
	if sq == 0 {
		return 0
	}
	s := float64(e.Sum)
	return s * s / (float64(e.Count) * sq)
}

// String summarises the accumulator for logs.
func (e Exact) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%d max=%d",
		e.Count, e.Mean(), e.StdDev(), e.Min(), e.Max())
}
