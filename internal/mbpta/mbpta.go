// Package mbpta implements the Measurement-Based Probabilistic Timing
// Analysis pipeline the paper relies on for WCET estimation (Cucu-Grosjean
// et al., ECRTS 2012): collect execution times of the task under analysis
// on the randomised platform under maximum-contention conditions, check the
// samples are exchangeable enough for extreme value theory, fit a Gumbel
// distribution to block maxima, and read probabilistic WCET (pWCET)
// estimates off the fitted tail.
//
// The Gumbel fit uses probability-weighted moments (PWM) for a closed-form
// initial estimate, refined by maximum-likelihood fixed-point iteration —
// the standard combination for small samples. "MBPTA builds upon EVT, which
// keeps only the group of high execution times to predict the WCET" (§IV.B).
package mbpta

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// EulerGamma is the Euler–Mascheroni constant, the mean of the standard
// Gumbel distribution.
const EulerGamma = 0.5772156649015329

// Gumbel is a Gumbel (type-I extreme value) distribution for maxima.
type Gumbel struct {
	// Mu is the location parameter.
	Mu float64
	// Sigma is the scale parameter (> 0).
	Sigma float64
}

// CDF returns P(X ≤ x).
func (g Gumbel) CDF(x float64) float64 {
	return math.Exp(-math.Exp(-(x - g.Mu) / g.Sigma))
}

// Quantile returns the value exceeded with probability 1-p:
// CDF(Quantile(p)) = p. It panics for p outside (0,1).
func (g Gumbel) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("mbpta: Quantile(%v) outside (0,1)", p))
	}
	return g.Mu - g.Sigma*math.Log(-math.Log(p))
}

// Mean returns the distribution mean.
func (g Gumbel) Mean() float64 { return g.Mu + g.Sigma*EulerGamma }

// BlockMaxima partitions xs into consecutive blocks of size block and
// returns each block's maximum. A trailing partial block is dropped (its
// maximum is biased low). It errors if fewer than two full blocks exist.
func BlockMaxima(xs []float64, block int) ([]float64, error) {
	if block <= 0 {
		return nil, fmt.Errorf("mbpta: block size %d", block)
	}
	n := len(xs) / block
	if n < 2 {
		return nil, fmt.Errorf("mbpta: %d samples yield %d blocks of %d; need ≥ 2",
			len(xs), n, block)
	}
	out := make([]float64, n)
	for b := 0; b < n; b++ {
		m := xs[b*block]
		for i := 1; i < block; i++ {
			if v := xs[b*block+i]; v > m {
				m = v
			}
		}
		out[b] = m
	}
	return out, nil
}

// FitGumbel estimates Gumbel parameters from maxima via PWM and refines
// them with up to 100 MLE fixed-point iterations. It errors on fewer than
// 10 maxima or on (near-)degenerate data.
func FitGumbel(maxima []float64) (Gumbel, error) {
	n := len(maxima)
	if n < 10 {
		return Gumbel{}, fmt.Errorf("mbpta: %d maxima, need ≥ 10", n)
	}
	sorted := append([]float64(nil), maxima...)
	sort.Float64s(sorted)

	// Probability-weighted moments b0 and b1 (unbiased estimators).
	var b0, b1 float64
	for i, x := range sorted {
		b0 += x
		b1 += float64(i) / float64(n-1) * x
	}
	b0 /= float64(n)
	b1 /= float64(n)

	sigma := (2*b1 - b0) / math.Ln2
	if sigma <= 0 || math.IsNaN(sigma) {
		return Gumbel{}, errors.New("mbpta: degenerate maxima (non-positive PWM scale)")
	}
	g := Gumbel{Mu: b0 - EulerGamma*sigma, Sigma: sigma}
	g = refineMLE(sorted, g)
	if g.Sigma <= 0 || math.IsNaN(g.Sigma) || math.IsNaN(g.Mu) {
		return Gumbel{}, errors.New("mbpta: MLE refinement diverged")
	}
	return g, nil
}

// refineMLE runs the classic Gumbel MLE fixed point:
//
//	σ ← mean(x) − Σ x·e^(−x/σ) / Σ e^(−x/σ)
//	μ = −σ·ln((1/n)·Σ e^(−x/σ))
//
// Values are centred on the sample mean before exponentiation for numeric
// stability.
func refineMLE(xs []float64, init Gumbel) Gumbel {
	n := float64(len(xs))
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= n

	sigma := init.Sigma
	for iter := 0; iter < 100; iter++ {
		var sumE, sumXE float64
		for _, x := range xs {
			e := math.Exp(-(x - mean) / sigma)
			sumE += e
			sumXE += x * e
		}
		next := mean - sumXE/sumE
		if next <= 0 || math.IsNaN(next) {
			return init // keep the PWM estimate
		}
		if math.Abs(next-sigma) < 1e-9*(1+sigma) {
			sigma = next
			break
		}
		sigma = next
	}
	var sumE float64
	for _, x := range xs {
		sumE += math.Exp(-(x - mean) / sigma)
	}
	mu := mean - sigma*math.Log(sumE/n)
	return Gumbel{Mu: mu, Sigma: sigma}
}

// Analysis is a fitted MBPTA model.
type Analysis struct {
	// Samples are the raw execution times, in collection order.
	Samples []float64
	// Block is the block-maxima size used.
	Block int
	// Maxima are the block maxima the fit used.
	Maxima []float64
	// Fit is the fitted Gumbel tail model.
	Fit Gumbel
	// IID is the exchangeability diagnostics report.
	IID IIDReport
}

// BlockSize returns the block-maxima size for a campaign of n samples:
// n/20 clamped to [2, 20]. Large campaigns get the customary 20; smaller
// ones get smaller blocks, so that about 20 maxima remain for the fit.
func BlockSize(n int) int {
	return min(max(n/20, 2), 20)
}

// Analyze runs the full pipeline on execution-time samples with the given
// block size (20 is customary for ~1000-run campaigns; BlockSize scales it
// to the campaign). Samples must be finite: execution times are cycle
// counts, so a NaN or ±Inf can only be an upstream bug and is rejected up
// front rather than laundered through the fit (where an Inf could survive
// the PWM degeneracy checks and poison the reported quantiles).
func Analyze(samples []float64, block int) (Analysis, error) {
	for i, x := range samples {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Analysis{}, fmt.Errorf("mbpta: sample %d is %v; execution times must be finite", i, x)
		}
	}
	maxima, err := BlockMaxima(samples, block)
	if err != nil {
		return Analysis{}, err
	}
	fit, err := FitGumbel(maxima)
	if err != nil {
		return Analysis{}, err
	}
	return Analysis{
		Samples: samples,
		Block:   block,
		Maxima:  maxima,
		Fit:     fit,
		IID:     CheckIID(samples),
	}, nil
}

// PWCET returns the execution-time bound exceeded with probability p per
// run. The fitted Gumbel models per-block maxima, so the per-run target is
// converted to the per-block exceedance 1-(1-p)^Block before inverting the
// tail.
func (a Analysis) PWCET(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("mbpta: PWCET(%v) outside (0,1)", p))
	}
	pBlock := 1 - math.Pow(1-p, float64(a.Block))
	return a.Fit.Quantile(1 - pBlock)
}

// CurvePoint is one point of a pWCET exceedance curve.
type CurvePoint struct {
	// Prob is the per-run exceedance probability.
	Prob float64
	// WCET is the corresponding execution-time bound.
	WCET float64
}

// Curve evaluates the pWCET bound at the customary probability decades
// 10^-3 .. 10^-(2+n).
func (a Analysis) Curve(decades int) []CurvePoint {
	out := make([]CurvePoint, 0, decades)
	for d := 3; d < 3+decades; d++ {
		p := math.Pow(10, -float64(d))
		out = append(out, CurvePoint{Prob: p, WCET: a.PWCET(p)})
	}
	return out
}
