package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// foldExact folds xs sequentially — the single-process reference.
func foldExact(xs []int64) Exact {
	var e Exact
	for _, x := range xs {
		e.Add(x)
	}
	return e
}

// partition cuts [0,n) into k contiguous ranges with random boundaries.
func partition(r *rand.Rand, n, k int) [][2]int {
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+r.Intn(n-1)] = true
	}
	bounds := []int{0}
	for c := 1; c < n; c++ {
		if cuts[c] {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, n)
	out := make([][2]int, 0, k)
	for i := 0; i+1 < len(bounds); i++ {
		out = append(out, [2]int{bounds[i], bounds[i+1]})
	}
	return out
}

// TestExactMergeShardInvariance is the shard-merge property: partition a
// random sample vector into contiguous shards, fold each independently, and
// merge the shard states in a SHUFFLED order (Exact merging is commutative,
// not just associative) — the merged state must equal the sequential fold
// bit for bit, field for field.
func TestExactMergeShardInvariance(t *testing.T) {
	prop := func(raw []uint32, shardSeed int64) bool {
		if len(raw) < 2 {
			return true
		}
		r := rand.New(rand.NewSource(shardSeed))
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		want := foldExact(xs)
		k := 1 + r.Intn(min(8, len(xs)))
		parts := partition(r, len(xs), k)
		states := make([]Exact, len(parts))
		for i, p := range parts {
			states[i] = foldExact(xs[p[0]:p[1]])
		}
		r.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
		var got Exact
		for _, st := range states {
			got.Merge(st)
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestExactMergeAssociativity merges three adjacent states in both
// bracketings and demands bit-equal results.
func TestExactMergeAssociativity(t *testing.T) {
	a := foldExact([]int64{5, 9, 2})
	b := foldExact([]int64{100, 7})
	c := foldExact([]int64{0, 0, 3, 1 << 40})

	left := a // (a+b)+c
	left.Merge(b)
	left.Merge(c)

	bc := b // a+(b+c)
	bc.Merge(c)
	right := a
	right.Merge(bc)

	if left != right {
		t.Fatalf("associativity broken: %+v vs %+v", left, right)
	}
}

// TestExactDerivedStats pins the derived statistics against a direct
// two-pass computation on the same data (within float tolerance — Exact is
// exact in state, the reference accumulates rounding).
func TestExactDerivedStats(t *testing.T) {
	xs := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var e Exact
	fs := make([]float64, len(xs))
	for i, x := range xs {
		e.Add(x)
		fs[i] = float64(x)
	}
	if e.N() != int64(len(xs)) || e.Min() != 1 || e.Max() != 9 {
		t.Fatalf("count/min/max mismatch: %v", e)
	}
	mean := Mean(fs)
	var ss float64
	for _, x := range fs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(fs)-1)
	ci := 1.96 * math.Sqrt(variance) / math.Sqrt(float64(len(fs)))
	if math.Abs(e.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v vs %v", e.Mean(), mean)
	}
	if math.Abs(e.Variance()-variance) > 1e-6 {
		t.Fatalf("variance %v vs %v", e.Variance(), variance)
	}
	if math.Abs(e.CI95HalfWidth()-ci) > 1e-9 {
		t.Fatalf("ci95 %v vs %v", e.CI95HalfWidth(), ci)
	}
	if math.Abs(e.Jain()-JainIndex(fs)) > 1e-12 {
		t.Fatalf("jain %v vs %v", e.Jain(), JainIndex(fs))
	}
}

func TestExactEdgeCases(t *testing.T) {
	var e Exact
	if e.Mean() != 0 || e.Variance() != 0 || e.CI95HalfWidth() != 0 || e.Jain() != 0 || e.Min() != 0 || e.Max() != 0 {
		t.Fatalf("empty accumulator must report zeros: %v", e)
	}
	var other Exact
	other.Add(7)
	if other.Mean() != 7 || other.Variance() != 0 || other.CI95HalfWidth() != 0 || other.Min() != 7 || other.Max() != 7 {
		t.Fatalf("single-sample accumulator wrong: %+v", other)
	}
	e.Merge(other) // empty += nonempty adopts the state
	if e != other {
		t.Fatalf("merge into empty: %+v vs %+v", e, other)
	}
	before := other
	other.Merge(Exact{}) // nonempty += empty is a no-op
	if other != before {
		t.Fatalf("merge of empty changed state: %+v vs %+v", other, before)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) must panic")
		}
	}()
	e.Add(-1)
}

// TestExactSumSqCarry exercises the 128-bit carry path: samples big enough
// that the low word of the squared sum overflows.
func TestExactSumSqCarry(t *testing.T) {
	var e Exact
	x := int64(1) << 33 // x² = 2^66 > 2^64: lands in the high word
	e.Add(x)
	e.Add(x)
	if e.SumSqHi != 8 || e.SumSqLo != 0 { // 2·2^66 = 2^67 = 8·2^64
		t.Fatalf("sumsq = %d·2^64 + %d, want 8·2^64 + 0", e.SumSqHi, e.SumSqLo)
	}
	var parts Exact
	parts.Add(x)
	var p2 Exact
	p2.Add(x)
	parts.Merge(p2)
	if parts != e {
		t.Fatalf("carry merge mismatch: %+v vs %+v", parts, e)
	}
}
