package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoMatchesSerial pins the unified entry point's core contract: the
// result vector is bit-identical to the serial loop at any worker count,
// with or without per-worker state.
func TestDoMatchesSerial(t *testing.T) {
	const runs = 257
	want := make([]int, runs)
	for r := range want {
		want[r] = r * r
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Do(Options[struct{}]{Workers: workers}, runs,
			func(_ struct{}, r int) (int, error) { return r * r, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("workers=%d: run %d = %d, want %d", workers, r, got[r], want[r])
			}
		}
	}
}

// TestDoPerWorkerState checks each worker receives exactly one state value
// and carries it across its run slice.
func TestDoPerWorkerState(t *testing.T) {
	var built atomic.Int64
	type state struct{ uses int }
	const runs, workers = 100, 4
	_, err := Do(Options[*state]{
		Workers:        workers,
		PerWorkerState: func() *state { built.Add(1); return &state{} },
	}, runs, func(s *state, r int) (int, error) {
		s.uses++
		return s.uses, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := built.Load(); b < 1 || b > workers {
		t.Fatalf("built %d states for %d workers", b, workers)
	}
}

// TestDoNilStateIsZeroValue: a nil PerWorkerState hands workers the zero
// value of S.
func TestDoNilStateIsZeroValue(t *testing.T) {
	got, err := Do(Options[int]{Workers: 2}, 8, func(s int, r int) (int, error) {
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range got {
		if v != 0 {
			t.Fatalf("run %d saw state %d, want zero value", r, v)
		}
	}
}

// TestDoErrors pins the error surface: nil fn, negative runs, lowest-indexed
// run error.
func TestDoErrors(t *testing.T) {
	if _, err := Do[struct{}, int](Options[struct{}]{}, 3, nil); err == nil {
		t.Fatal("nil fn must fail")
	}
	if _, err := Do(Options[struct{}]{}, -1, func(_ struct{}, r int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative runs must fail")
	}
	boom := errors.New("boom")
	_, err := Do(Options[struct{}]{Workers: 4}, 100, func(_ struct{}, r int) (int, error) {
		if r >= 40 {
			return 0, boom
		}
		return r, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestOptionsNewPool exercises the options-form pool constructor and the
// blocking Submit path: more jobs than queue capacity all land, none lost.
func TestOptionsNewPool(t *testing.T) {
	p, err := Options[*int]{
		Workers:        2,
		Queue:          1,
		PerWorkerState: func() *int { v := 0; return &v },
	}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 100
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		if err := p.Submit(context.Background(), func(*int) { done.Add(1); wg.Done() }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	p.Close()
	if done.Load() != jobs {
		t.Fatalf("ran %d jobs, want %d", done.Load(), jobs)
	}
	if err := p.Submit(context.Background(), func(*int) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Close: %v, want ErrPoolClosed", err)
	}
	if _, err := (Options[int]{Queue: -1}).NewPool(); err == nil {
		t.Fatal("negative queue must fail")
	}
}

// TestSubmitBlocksUntilSpace: a Submit against a full queue waits for a
// worker instead of failing, while TrySubmit on the same state returns
// ErrQueueFull.
func TestSubmitBlocksUntilSpace(t *testing.T) {
	gate := make(chan struct{})
	p, err := Options[struct{}]{Workers: 1, Queue: 1}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Occupy the single worker, then fill the single queue slot.
	if err := p.Submit(context.Background(), func(struct{}) { <-gate }); err != nil {
		t.Fatal(err)
	}
	for p.QueueDepth() != 0 { // wait until the worker picked the job up
	}
	if err := p.Submit(context.Background(), func(struct{}) {}); err != nil {
		t.Fatal(err)
	}
	if err := p.TrySubmit(func(struct{}) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmit on full queue: %v, want ErrQueueFull", err)
	}
	ran := make(chan struct{})
	go func() {
		if err := p.Submit(context.Background(), func(struct{}) { close(ran) }); err != nil {
			t.Error(err)
		}
	}()
	close(gate) // release the worker; the blocked Submit must land and run
	<-ran
	if p.QueueCapacity() != 1 {
		t.Fatalf("QueueCapacity = %d, want 1", p.QueueCapacity())
	}
}
