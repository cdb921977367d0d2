// Package stats provides the small statistical toolkit shared by the
// simulator, the MBPTA analysis and the experiment harness: streaming
// moments, percentiles, confidence intervals and the Jain fairness index
// used to quantify bandwidth fairness across bus masters.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming mean and variance with Welford's algorithm,
// plus min and max. The zero value is ready to use.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples added.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample, or 0 with no samples.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest sample, or 0 with no samples.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// CI95HalfWidth returns the half width of the normal-approximation 95%
// confidence interval of the mean (z = 1.96). It returns 0 with fewer than
// two samples.
func (a *Accumulator) CI95HalfWidth() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.StdDev() / math.Sqrt(float64(a.n))
}

// String summarises the accumulator for logs.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		a.n, a.Mean(), a.StdDev(), a.Min(), a.Max())
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default). It panics
// on an empty slice or p outside [0,1]. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Percentile p=%v outside [0,1]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// JainIndex computes Jain's fairness index of the shares:
// (sum x)^2 / (n * sum x^2). It is 1.0 for perfectly equal shares and 1/n
// when a single contender takes everything. Returns 0 if all shares are zero.
// Shares are allocations — a negative share has no meaning and would also
// silently break the [1/n, 1] range (negative terms cancel in the numerator
// but not in the sum of squares), so negative inputs panic, matching
// Exact.Add's contract for negative samples.
func JainIndex(shares []float64) float64 {
	if len(shares) == 0 {
		return 0
	}
	var sum, sumsq float64
	for i, x := range shares {
		if x < 0 {
			panic(fmt.Sprintf("stats: JainIndex: shares[%d] = %v: negative share", i, x))
		}
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(shares)) * sumsq)
}
