package mbpta

import (
	"math"
	"testing"
	"testing/quick"

	"creditbus/internal/rng"
)

// gumbelSample draws n values from Gumbel(mu, sigma) by inverse transform.
func gumbelSample(n int, mu, sigma float64, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		u := src.Float64()
		for u == 0 {
			u = src.Float64()
		}
		out[i] = mu - sigma*math.Log(-math.Log(u))
	}
	return out
}

func TestGumbelCDFQuantileRoundTrip(t *testing.T) {
	g := Gumbel{Mu: 100, Sigma: 12}
	for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 0.999999} {
		x := g.Quantile(p)
		if got := g.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if mean := g.Mean(); math.Abs(mean-(100+12*EulerGamma)) > 1e-9 {
		t.Errorf("Mean = %v", mean)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			Gumbel{Mu: 0, Sigma: 1}.Quantile(p)
		}()
	}
}

func TestBlockMaxima(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3, 4, 9, 0}
	m, err := BlockMaxima(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 8, 4, 9}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("maxima = %v, want %v", m, want)
		}
	}
	// Trailing partial block {9, 0} dropped: blocks are {1,5,2} and {8,3,4}.
	m, err = BlockMaxima(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0] != 5 || m[1] != 8 {
		t.Fatalf("maxima with block 3 = %v", m)
	}
}

func TestBlockMaximaErrors(t *testing.T) {
	if _, err := BlockMaxima([]float64{1, 2, 3}, 0); err == nil {
		t.Error("block 0 accepted")
	}
	if _, err := BlockMaxima([]float64{1, 2, 3}, 2); err == nil {
		t.Error("single full block accepted")
	}
}

func TestFitGumbelRecoversParameters(t *testing.T) {
	const mu, sigma = 250.0, 30.0
	xs := gumbelSample(5000, mu, sigma, 42)
	g, err := FitGumbel(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mu-mu) > 2 {
		t.Errorf("Mu = %.2f, want ≈ %v", g.Mu, mu)
	}
	if math.Abs(g.Sigma-sigma) > 2 {
		t.Errorf("Sigma = %.2f, want ≈ %v", g.Sigma, sigma)
	}
}

func TestFitGumbelErrors(t *testing.T) {
	if _, err := FitGumbel(make([]float64, 5)); err == nil {
		t.Error("too few maxima accepted")
	}
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 7
	}
	if _, err := FitGumbel(flat); err == nil {
		t.Error("degenerate (constant) maxima accepted")
	}
}

func TestFitShiftScaleEquivariance(t *testing.T) {
	// Fitting a·x + b must give (a·σ, a·μ + b) — a property check of the
	// whole PWM+MLE pipeline.
	base := gumbelSample(2000, 50, 5, 7)
	g0, err := FitGumbel(base)
	if err != nil {
		t.Fatal(err)
	}
	f := func(scaleRaw, shiftRaw uint8) bool {
		a := 1 + float64(scaleRaw%50)/10 // 1.0 .. 5.9
		b := float64(shiftRaw) * 3
		xs := make([]float64, len(base))
		for i, x := range base {
			xs[i] = a*x + b
		}
		g, err := FitGumbel(xs)
		if err != nil {
			return false
		}
		return math.Abs(g.Sigma-a*g0.Sigma) < 0.02*a*g0.Sigma+1e-6 &&
			math.Abs(g.Mu-(a*g0.Mu+b)) < 0.02*(a*g0.Mu+b+1)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzePipeline(t *testing.T) {
	xs := gumbelSample(1000, 1000, 40, 11)
	a, err := Analyze(xs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Maxima) != 50 {
		t.Fatalf("maxima count = %d, want 50", len(a.Maxima))
	}
	if !a.IID.Pass() {
		t.Errorf("iid diagnostics failed on iid data: %+v", a.IID)
	}
	// pWCET must be monotone: rarer exceedance ⇒ larger bound.
	prev := 0.0
	for _, pt := range a.Curve(10) {
		if pt.WCET <= prev {
			t.Fatalf("pWCET curve not increasing: %+v", a.Curve(10))
		}
		prev = pt.WCET
	}
	// The 10^-3 bound must exceed the observed mean.
	if a.PWCET(1e-3) < 1000 {
		t.Errorf("pWCET(1e-3) = %.1f below the distribution mean", a.PWCET(1e-3))
	}
}

func TestPWCETBlockConversion(t *testing.T) {
	// With block b, the per-run bound at p must equal the per-block
	// quantile at 1-(1-p)^b.
	xs := gumbelSample(1000, 100, 10, 3)
	a, err := Analyze(xs, 20)
	if err != nil {
		t.Fatal(err)
	}
	p := 1e-6
	want := a.Fit.Quantile(1 - (1 - math.Pow(1-p, 20)))
	if got := a.PWCET(p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PWCET = %v, want %v", got, want)
	}
}

func TestPWCETPanics(t *testing.T) {
	xs := gumbelSample(1000, 100, 10, 3)
	a, _ := Analyze(xs, 20)
	defer func() {
		if recover() == nil {
			t.Fatal("PWCET(0) did not panic")
		}
	}()
	a.PWCET(0)
}

func TestAutocorrelation(t *testing.T) {
	// A deterministic ramp is maximally autocorrelated.
	ramp := make([]float64, 200)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if r := Autocorrelation(ramp, 1); r < 0.95 {
		t.Errorf("ramp lag-1 autocorrelation = %v, want ≈ 1", r)
	}
	// IID noise: near zero.
	noise := gumbelSample(2000, 0, 1, 9)
	if r := Autocorrelation(noise, 1); math.Abs(r) > 0.05 {
		t.Errorf("noise lag-1 autocorrelation = %v, want ≈ 0", r)
	}
	// Degenerate inputs.
	if Autocorrelation(nil, 1) != 0 || Autocorrelation([]float64{1, 1}, 1) != 0 {
		t.Error("degenerate autocorrelation not 0")
	}
	if Autocorrelation([]float64{1, 2, 3}, 0) != 0 {
		t.Error("lag 0 should return 0 (undefined by convention)")
	}
}

func TestKSTwoSample(t *testing.T) {
	// Identical samples: D = 0.
	a := []float64{1, 2, 3, 4, 5}
	if d := KSTwoSample(a, a); d != 0 {
		t.Errorf("KS of identical samples = %v", d)
	}
	// Disjoint samples: D = 1.
	b := []float64{10, 11, 12}
	if d := KSTwoSample(a, b); d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
	if KSTwoSample(nil, a) != 0 {
		t.Error("empty sample KS != 0")
	}
}

func TestCheckIIDDetectsTrend(t *testing.T) {
	// A strongly trending campaign (e.g. a warming cache across runs —
	// exactly what MBPTA forbids) must fail both diagnostics.
	trend := make([]float64, 400)
	src := rng.New(5)
	for i := range trend {
		trend[i] = float64(i) + src.Float64()
	}
	r := CheckIID(trend)
	if r.Lag1Pass {
		t.Errorf("trend passed lag-1 check: %+v", r)
	}
	if r.KSPass {
		t.Errorf("trend passed KS half-split check: %+v", r)
	}
	if r.Pass() {
		t.Error("trend passed overall")
	}
}

func TestCheckIIDPassesOnIID(t *testing.T) {
	r := CheckIID(gumbelSample(1000, 500, 25, 13))
	if !r.Pass() {
		t.Errorf("iid data failed diagnostics: %+v", r)
	}
}

func TestCheckIIDSmallSamples(t *testing.T) {
	// Must not panic or divide by zero on tiny inputs.
	for n := 0; n < 5; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_ = CheckIID(xs)
	}
}
