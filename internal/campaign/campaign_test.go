package campaign

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"creditbus/internal/cpu"
)

// work is a deterministic pure function of the run index, expensive enough
// that parallel workers genuinely interleave.
func work(run int) uint64 {
	z := uint64(run)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < 2000; i++ {
		z ^= z >> 30
		z *= 0x94d049bb133111eb
		z ^= z >> 27
	}
	return z
}

func TestRunOrderedAndIdenticalAcrossWorkerCounts(t *testing.T) {
	const runs = 200
	fn := func(_ struct{}, r int) (uint64, error) { return work(r), nil }
	serial, err := Do(Options[struct{}]{Workers: 1}, runs, fn)
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range serial {
		if v != work(r) {
			t.Fatalf("serial result %d out of order", r)
		}
	}
	for _, workers := range []int{0, 2, 4, 16, runs + 7} {
		got, err := Do(Options[struct{}]{Workers: workers}, runs, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for r := range got {
			if got[r] != serial[r] {
				t.Fatalf("workers=%d: result %d = %d, serial %d", workers, r, got[r], serial[r])
			}
		}
	}
}

func TestRunProgressMonotonic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var seen []int
		total := -1
		_, err := Do(Options[struct{}]{Workers: workers, Progress: func(done, tot int) {
			seen = append(seen, done)
			total = tot
		}}, 50, func(_ struct{}, r int) (int, error) { _ = work(r); return r, nil })
		if err != nil {
			t.Fatal(err)
		}
		if total != 50 || len(seen) != 50 {
			t.Fatalf("workers=%d: progress total=%d calls=%d", workers, total, len(seen))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("workers=%d: progress call %d reported done=%d", workers, i, d)
			}
		}
	}
}

func TestRunErrorSerialIsFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	_, err := Do(Options[struct{}]{Workers: 1}, 10, func(_ struct{}, r int) (int, error) {
		if r >= 3 {
			return 0, boom
		}
		return r, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "run 3") {
		t.Fatalf("serial error does not name run 3: %v", err)
	}
}

func TestRunErrorParallelStops(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	_, err := Do(Options[struct{}]{Workers: 8}, 10_000, func(_ struct{}, r int) (int, error) {
		<-mu
		calls++
		mu <- struct{}{}
		return 0, boom
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls >= 10_000 {
		t.Fatalf("engine did not stop dispatching after failure (%d calls)", calls)
	}
}

func TestRunEdgeCases(t *testing.T) {
	out, err := Do(Options[struct{}]{Workers: 4}, 0, func(_ struct{}, r int) (int, error) { return r, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("zero runs: %v, %v", out, err)
	}
	if _, err := Do(Options[struct{}]{Workers: 4}, -1, func(_ struct{}, r int) (int, error) { return r, nil }); err == nil {
		t.Fatal("negative runs accepted")
	}
	if _, err := Do[struct{}, int](Options[struct{}]{Workers: 4}, 3, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestStrideSeeds(t *testing.T) {
	s := Spec{BaseSeed: 7}
	for r := 0; r < 5; r++ {
		want := 7 + uint64(r)*SeedStride
		if got := s.seed(r); got != want {
			t.Fatalf("seed(%d) = %#x, want %#x", r, got, want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if _, err := (Spec{Runs: 3}).MaxContention(); err == nil {
		t.Error("Spec without Build accepted")
	}
	if _, err := (Spec{Runs: 0, Build: func(int) cpu.Program { return nil }}).MaxContention(); err == nil {
		t.Error("Spec without Runs accepted")
	}
}

func ExampleDo() {
	squares, _ := Do(Options[struct{}]{Workers: 2}, 4, func(_ struct{}, r int) (int, error) { return r * r, nil })
	fmt.Println(squares)
	// Output: [0 1 4 9]
}
