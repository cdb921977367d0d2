package bitset

import (
	"math/bits"
	"testing"
)

// boolRef mirrors a Set as a []bool, the representation the bitset replaced;
// every operation is cross-checked against it.
type boolRef []bool

func (r boolRef) first() int {
	for i, v := range r {
		if v {
			return i
		}
	}
	return -1
}

func (r boolRef) nextFrom(from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < len(r); i++ {
		if r[i] {
			return i
		}
	}
	return -1
}

func (r boolRef) count() int {
	n := 0
	for _, v := range r {
		if v {
			n++
		}
	}
	return n
}

// lcg is a tiny deterministic generator so the test needs no seeds from
// outside the package.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func TestSetAgainstBoolReference(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 257, 1024} {
		s := New(n)
		ref := make(boolRef, n)
		var r lcg = lcg(uint64(n) * 0x9e37)
		for step := 0; step < 4*n+64; step++ {
			i := int(r.next() % uint64(n))
			switch r.next() % 3 {
			case 0:
				s.Set(i)
				ref[i] = true
			case 1:
				s.Clear(i)
				ref[i] = false
			case 2:
				v := r.next()&1 == 0
				s.Assign(i, v)
				ref[i] = v
			}
			if got, want := s.Test(i), ref[i]; got != want {
				t.Fatalf("n=%d: Test(%d) = %v, want %v", n, i, got, want)
			}
			if got, want := s.First(), ref.first(); got != want {
				t.Fatalf("n=%d: First() = %d, want %d", n, got, want)
			}
			if got, want := s.Count(), ref.count(); got != want {
				t.Fatalf("n=%d: Count() = %d, want %d", n, got, want)
			}
			if got, want := s.Any(), ref.count() > 0; got != want {
				t.Fatalf("n=%d: Any() = %v, want %v", n, got, want)
			}
			from := int(r.next() % uint64(n+2))
			if got, want := s.NextFrom(from), ref.nextFrom(from); got != want {
				t.Fatalf("n=%d: NextFrom(%d) = %d, want %d", n, from, got, want)
			}
		}
	}
}

func TestWordOps(t *testing.T) {
	const n = 200
	a, b := New(n), New(n)
	for i := 0; i < n; i += 3 {
		a.Set(i)
	}
	for i := 0; i < n; i += 2 {
		b.Set(i)
	}

	got := New(n)
	got.CopyFrom(a)
	got.And(b)
	for i := 0; i < n; i++ {
		want := i%3 == 0 && i%2 == 0
		if got.Test(i) != want {
			t.Fatalf("And: bit %d = %v, want %v", i, got.Test(i), want)
		}
	}

	got.Reset()
	if got.Any() || got.Count() != 0 || got.First() != -1 {
		t.Fatalf("Reset left bits behind: %v", got)
	}
}

func TestWordsCapacity(t *testing.T) {
	for n := 1; n <= 300; n++ {
		if got, want := Words(n), (n+63)/64; got != want {
			t.Fatalf("Words(%d) = %d, want %d", n, got, want)
		}
		if got := len(New(n)); got != Words(n) {
			t.Fatalf("len(New(%d)) = %d, want %d", n, got, Words(n))
		}
	}
}

// TestIterationOrder pins the ascending-index guarantee of the package's
// documented word-iteration idiom: the order every replaced linear scan
// used, and therefore the order all tie-break semantics depend on.
func TestIterationOrder(t *testing.T) {
	const n = 300
	s := New(n)
	want := []int{0, 1, 63, 64, 65, 130, 255, 256, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	for w, word := range s {
		for word != 0 {
			got = append(got, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
}
