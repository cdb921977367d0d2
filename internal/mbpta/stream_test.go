package mbpta

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// foldStream folds xs[lo:hi] into a fresh accumulator anchored at global
// index lo.
func foldStream(t *testing.T, xs []float64, lo, hi, block int) *Stream {
	t.Helper()
	s, err := NewStream(block, int64(lo))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[lo:hi] {
		s.Add(x)
	}
	return s
}

// TestStreamMatchesBlockMaxima is merge ≡ collect-then-fit at one shard:
// the streamed maxima over a whole vector equal BlockMaxima's, and so does
// the fitted Gumbel.
func TestStreamMatchesBlockMaxima(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 + r.Intn(100000))
	}
	for _, block := range []int{1, 3, 20, 100} {
		s := foldStream(t, xs, 0, len(xs), block)
		want, err := BlockMaxima(xs, block)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Maxima, want) {
			t.Fatalf("block %d: streamed maxima diverge from BlockMaxima", block)
		}
		fitStream, err1 := s.Analyze()
		fitDirect, err2 := FitGumbel(want)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("block %d: fit errors diverge: %v vs %v", block, err1, err2)
		}
		if err1 == nil && fitStream != fitDirect {
			t.Fatalf("block %d: fits diverge: %+v vs %+v", block, fitStream, fitDirect)
		}
	}
}

// TestStreamShardMergeInvariance is the core sharding property: cut a
// random vector into contiguous ranges, fold each independently, merge
// adjacent states under a RANDOM bracketing (associativity), and demand the
// result equals the sequential single-range fold bit for bit — maxima,
// buffers, counters, everything.
func TestStreamShardMergeInvariance(t *testing.T) {
	prop := func(raw []uint16, seed int64) bool {
		if len(raw) < 2 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		block := 1 + r.Intn(8)
		want := foldStream(t, xs, 0, len(xs), block)

		// Random contiguous partition into k shards.
		k := 1 + r.Intn(min(6, len(xs)))
		cuts := map[int]bool{}
		for len(cuts) < k-1 {
			cuts[1+r.Intn(len(xs)-1)] = true
		}
		bounds := []int{0}
		for c := 1; c < len(xs); c++ {
			if cuts[c] {
				bounds = append(bounds, c)
			}
		}
		bounds = append(bounds, len(xs))
		states := make([]*Stream, 0, k)
		for i := 0; i+1 < len(bounds); i++ {
			states = append(states, foldStream(t, xs, bounds[i], bounds[i+1], block))
		}

		// Random bracketing: repeatedly merge a random adjacent pair.
		for len(states) > 1 {
			i := r.Intn(len(states) - 1)
			if err := states[i].Merge(states[i+1]); err != nil {
				t.Fatalf("merge: %v", err)
			}
			states = append(states[:i+1], states[i+2:]...)
		}
		got := states[0]
		return got.N == want.N && got.Start == want.Start &&
			reflect.DeepEqual(got.Maxima, want.Maxima) &&
			reflect.DeepEqual(normalize(got.Head), normalize(want.Head)) &&
			reflect.DeepEqual(normalize(got.Tail), normalize(want.Tail))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps nil and the empty slice to one form: the fold and the
// merge may legitimately leave one nil where the other holds len 0.
func normalize(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	return xs
}

// TestStreamMergeRejections pins the merge error cases: block mismatch,
// non-adjacent ranges, nil.
func TestStreamMergeRejections(t *testing.T) {
	a, _ := NewStream(4, 0)
	if err := a.Merge(nil); err == nil {
		t.Fatal("nil merge must fail")
	}
	b, _ := NewStream(5, 0)
	if err := a.Merge(b); err == nil {
		t.Fatal("block mismatch must fail")
	}
	c, _ := NewStream(4, 3) // a covers [0,0), c starts at 3: a gap
	if err := a.Merge(c); err == nil {
		t.Fatal("non-adjacent merge must fail")
	}
	if _, err := NewStream(0, 0); err == nil {
		t.Fatal("block 0 must fail")
	}
	if _, err := NewStream(4, -1); err == nil {
		t.Fatal("negative start must fail")
	}
}

// TestStreamMidBlockBoundaries exercises head/tail handling when every
// shard boundary lands mid-block.
func TestStreamMidBlockBoundaries(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 11, 13}
	const block = 5
	want := foldStream(t, xs, 0, len(xs), block)
	// Boundaries at 2, 7 and 9 — none aligned to 5.
	s0 := foldStream(t, xs, 0, 2, block)
	s1 := foldStream(t, xs, 2, 7, block)
	s2 := foldStream(t, xs, 7, 9, block)
	s3 := foldStream(t, xs, 9, len(xs), block)
	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	if err := s0.Merge(s1); err != nil {
		t.Fatal(err)
	}
	if err := s0.Merge(s3); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s0.Maxima, want.Maxima) {
		t.Fatalf("maxima %v, want %v", s0.Maxima, want.Maxima)
	}
	if !reflect.DeepEqual(s0.Maxima, []float64{9, 6}) {
		t.Fatalf("maxima %v, want [9 6]", s0.Maxima)
	}
	if got := normalize(s0.Tail); !reflect.DeepEqual(got, []float64{11, 13}) {
		t.Fatalf("tail %v, want [11 13]", got)
	}
}
