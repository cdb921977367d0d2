package campaign

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolPerWorkerState: every worker owns exactly one state for its whole
// lifetime, and every admitted job runs on one of them.
func TestPoolPerWorkerState(t *testing.T) {
	var states atomic.Int64
	p, err := Options[*int64]{Workers: 3, Queue: 64, PerWorkerState: func() *int64 {
		states.Add(1)
		v := new(int64)
		return v
	}}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	var done sync.WaitGroup
	for i := 0; i < 48; i++ {
		done.Add(1)
		if err := p.TrySubmit(func(s *int64) {
			atomic.AddInt64(s, 1)
			done.Done()
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	done.Wait()
	p.Close()
	if got := states.Load(); got != 3 {
		t.Fatalf("built %d states for 3 workers", got)
	}
}

// TestPoolQueueFull: with every worker wedged and the queue at capacity,
// TrySubmit reports ErrQueueFull instead of blocking.
func TestPoolQueueFull(t *testing.T) {
	gate := make(chan struct{})
	p, err := Options[struct{}]{Workers: 1, Queue: 1}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	running := make(chan struct{})
	// First job occupies the worker...
	if err := p.TrySubmit(func(struct{}) { close(running); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-running
	// ...second fills the queue slot...
	if err := p.TrySubmit(func(struct{}) {}); err != nil {
		t.Fatal(err)
	}
	if d := p.QueueDepth(); d != 1 {
		t.Fatalf("queue depth %d, want 1", d)
	}
	// ...third must be refused, not block.
	if err := p.TrySubmit(func(struct{}) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	close(gate)
}

// TestPoolCloseDrains: Close waits for every admitted job, and later
// submissions report ErrPoolClosed.
func TestPoolCloseDrains(t *testing.T) {
	var ran atomic.Int64
	p, err := Options[struct{}]{Workers: 2, Queue: 128}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := p.TrySubmit(func(struct{}) {
			time.Sleep(50 * time.Microsecond)
			ran.Add(1)
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Close()
	if got := ran.Load(); got != 100 {
		t.Fatalf("%d of 100 jobs ran before Close returned", got)
	}
	if err := p.TrySubmit(func(struct{}) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("got %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolRejectsBadConfig: nil jobs and negative queue capacities are
// explicit errors.
func TestPoolRejectsBadConfig(t *testing.T) {
	if _, err := (Options[int]{Workers: 1, Queue: -1}).NewPool(); err == nil {
		t.Fatal("negative queue accepted")
	}
	p, err := Options[int]{Workers: 1, Queue: 1}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.TrySubmit(nil); err == nil {
		t.Fatal("nil job accepted")
	}
	if p.Workers() != 1 {
		t.Fatalf("workers = %d", p.Workers())
	}
}
