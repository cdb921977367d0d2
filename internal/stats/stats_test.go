package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasic(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; unbiased = 32/7.
	if !almostEqual(a.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", a.Min(), a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.Min() != 0 || a.Max() != 0 || a.CI95HalfWidth() != 0 {
		t.Fatal("zero-value accumulator should report zeros")
	}
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatalf("single-sample accumulator wrong: %s", a.String())
	}
}

func TestAccumulatorMatchesDirectComputation(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// quick may generate NaN/Inf-prone values; keep them bounded.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(xs)-1)
		tol := 1e-6 * (1 + math.Abs(wantVar))
		return almostEqual(a.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almostEqual(a.Variance(), wantVar, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {1, 50}, {0.5, 35}, {0.25, 20}, {0.75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{1, 2}, 0.5); !almostEqual(got, 1.5, 1e-9) {
		t.Errorf("median of {1,2} = %v, want 1.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, c := range []struct {
		xs []float64
		p  float64
	}{
		{nil, 0.5}, {[]float64{1}, -0.1}, {[]float64{1}, 1.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Percentile(%v, %v) did not panic", c.xs, c.p)
				}
			}()
			Percentile(c.xs, c.p)
		}()
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("equal shares: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("single hog: %v, want 0.25", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: %v, want 0", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

// A negative share is a caller bug — it silently pushes the index outside
// [1/n, 1] — so JainIndex rejects it with a panic, like Exact.Add does for
// negative samples.
func TestJainIndexRejectsNegativeShares(t *testing.T) {
	for _, shares := range [][]float64{{-1}, {1, -0.5, 2}, {0, 0, -0.0001}} {
		shares := shares
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("JainIndex(%v) did not panic", shares)
				}
			}()
			JainIndex(shares)
		}()
	}
}

func TestJainIndexRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		shares := make([]float64, len(raw))
		all0 := true
		for i, v := range raw {
			shares[i] = float64(v)
			if v != 0 {
				all0 = false
			}
		}
		j := JainIndex(shares)
		if all0 {
			return j == 0
		}
		lo := 1/float64(len(shares)) - 1e-9
		return j >= lo && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}
