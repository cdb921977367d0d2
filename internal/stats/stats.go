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
