package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams with equal seeds diverged at step %d: %x != %x", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with distinct seeds agreed %d/1000 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		t.Fatal("zero seed produced all-zero xoshiro state")
	}
	// The stream must still produce varied output.
	first := s.Uint64()
	varied := false
	for i := 0; i < 10; i++ {
		if s.Uint64() != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("zero-seeded stream produced constant output")
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 8, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square test over 10 buckets; threshold is the 0.999 quantile for
	// 9 degrees of freedom (27.88) to keep the test deterministic and robust.
	s := New(99)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("Intn chi-square %.2f exceeds 27.88; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(11)
	p := make([]int, 16)
	for iter := 0; iter < 100; iter++ {
		s.Perm(p)
		seen := make(map[int]bool, len(p))
		for _, v := range p {
			if v < 0 || v >= len(p) || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// Every index should appear in position 0 about equally often.
	s := New(13)
	p := make([]int, 4)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		s.Perm(p)
		counts[p[0]]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("position-0 frequency of %d is %.3f, want ~0.25 (counts=%v)", i, frac, counts)
		}
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(17)
	weights := []int64{1, 2, 3, 4}
	counts := make([]int, 4)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	for i, w := range weights {
		want := float64(w) / 10
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("weight %d: frequency %.3f, want %.3f", i, got, want)
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	cases := [][]int64{{}, {0, 0}, {-1, 2}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WeightedChoice(%v) did not panic", ws)
				}
			}()
			New(1).WeightedChoice(ws)
		}()
	}
}

func TestQuickIntnInRange(t *testing.T) {
	s := New(23)
	f := func(n uint16, _ uint8) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkPerm4(b *testing.B) {
	s := New(1)
	p := make([]int, 4)
	for i := 0; i < b.N; i++ {
		s.Perm(p)
	}
}
