package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

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
