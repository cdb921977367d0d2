package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// TestMapYieldsToQueuedJob: on a 1-worker pool, a job queued while Map's
// first run executes runs before Map's second run — a drain returns its
// worker after every run when other work is waiting.
func TestMapYieldsToQueuedJob(t *testing.T) {
	p, err := Options[struct{}]{Workers: 1, Queue: 4}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var (
		mu    sync.Mutex
		order []string
	)
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	started, release := make(chan struct{}), make(chan struct{})
	type result struct {
		out []int
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := Map(context.Background(), p, 2, nil, func(_ struct{}, r int) (int, error) {
			record(fmt.Sprintf("run %d", r))
			if r == 0 {
				close(started)
				<-release
			}
			return r * 10, nil
		})
		done <- result{out, err}
	}()
	<-started
	jobRan := make(chan struct{})
	if err := p.TrySubmit(func(struct{}) { record("job"); close(jobRan) }); err != nil {
		t.Fatal(err)
	}
	close(release)
	res := <-done
	<-jobRan
	if res.err != nil || !reflect.DeepEqual(res.out, []int{0, 10}) {
		t.Fatalf("Map = %v, %v", res.out, res.err)
	}
	if want := []string{"run 0", "job", "run 1"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %q, want %q", order, want)
	}
}

// TestMapConcurrentCallsShareOnePool: two Maps on one pool interleave their
// drains (each yields to the other's queued drains) and both still return
// their results in run order.
func TestMapConcurrentCallsShareOnePool(t *testing.T) {
	p, err := Options[*int64]{Workers: 3, Queue: 8, PerWorkerState: func() *int64 { return new(int64) }}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const runs = 300
	outs := make([][]uint64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c], errs[c] = Map(context.Background(), p, runs, nil, func(st *int64, r int) (uint64, error) {
				*st++ // per-worker state must stay single-goroutine
				return work(r) + uint64(c), nil
			})
		}()
	}
	wg.Wait()
	for c := range outs {
		if errs[c] != nil {
			t.Fatalf("Map %d: %v", c, errs[c])
		}
		if len(outs[c]) != runs {
			t.Fatalf("Map %d returned %d results", c, len(outs[c]))
		}
		for r, v := range outs[c] {
			if v != work(r)+uint64(c) {
				t.Fatalf("Map %d: result %d out of order", c, r)
			}
		}
	}
}

// TestMapCancelled: a Map whose drains are queued behind a blocked job
// returns its context's cause without waiting for that job, starts no run
// after the cancel, and leaves the pool serving the next Map.
func TestMapCancelled(t *testing.T) {
	p, err := Options[struct{}]{Workers: 1, Queue: 4}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	gate, blocked := make(chan struct{}), make(chan struct{})
	if err := p.TrySubmit(func(struct{}) { close(blocked); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-blocked

	var started atomic.Int64
	ctx, cancel := context.WithCancelCause(context.Background())
	returned := make(chan error, 1)
	go func() {
		_, err := Map(ctx, p, 8, nil, func(_ struct{}, r int) (int, error) {
			started.Add(1)
			return r, nil
		})
		returned <- err
	}()
	for p.QueueDepth() < 1 { // the drain waits behind the blocked job
		time.Sleep(time.Millisecond)
	}
	stop := errors.New("stopped")
	cancel(stop)
	select {
	case err := <-returned:
		if !errors.Is(err, stop) {
			t.Fatalf("cancelled Map = %v, want the cause %v", err, stop)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Map waited for the blocked job")
	}

	close(gate)
	passed := make(chan struct{})
	if err := p.Submit(context.Background(), func(struct{}) { close(passed) }); err != nil {
		t.Fatal(err)
	}
	<-passed // the one worker has run the cancelled Map's drain
	if n := started.Load(); n != 0 {
		t.Fatalf("%d runs started after the cancel", n)
	}
	out, err := Map(context.Background(), p, 3, nil, func(_ struct{}, r int) (int, error) { return r + 1, nil })
	if err != nil || !reflect.DeepEqual(out, []int{1, 2, 3}) {
		t.Fatalf("Map after a cancelled one = %v, %v", out, err)
	}
}

// TestMapCancelledOnFullQueue: a Map still waiting in Submit for queue
// space — the only worker wedged, the only queue slot taken — returns its
// context's cause once the context ends, without waiting for the queue to
// drain.
func TestMapCancelledOnFullQueue(t *testing.T) {
	p, err := Options[struct{}]{Workers: 1, Queue: 1}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	gate, blocked := make(chan struct{}), make(chan struct{})
	defer close(gate) // runs before Close
	if err := p.TrySubmit(func(struct{}) { close(blocked); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := p.TrySubmit(func(struct{}) {}); err != nil { // fills the queue
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	returned := make(chan error, 1)
	go func() {
		_, err := Map(ctx, p, 4, nil, func(_ struct{}, r int) (int, error) { return r, nil })
		returned <- err
	}()
	// Wait until Map's Submit holds the read lock, blocked on the full queue.
	for p.mu.TryLock() {
		p.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	stop := errors.New("stopped")
	cancel(stop)
	select {
	case err := <-returned:
		if !errors.Is(err, stop) {
			t.Fatalf("cancelled Map = %v, want the cause %v", err, stop)
		}
	case <-time.After(time.Second):
		t.Fatal("Map still waits for queue space 1 s after its context ended")
	}
}

// TestMapOnClosedPool: Map admits nothing on a closed pool and says so.
func TestMapOnClosedPool(t *testing.T) {
	p, err := Options[struct{}]{Workers: 2}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	out, err := Map(context.Background(), p, 4, nil, func(_ struct{}, r int) (int, error) { return r, nil })
	if !errors.Is(err, ErrPoolClosed) || out != nil {
		t.Fatalf("Map on closed pool = %v, %v; want ErrPoolClosed", out, err)
	}
}

// TestTrySubmitDuringPendingClose: while a blocked Submit holds the pool's
// read lock and Close waits for it, TrySubmit refuses at once instead of
// queueing behind the pending Close — the path a worker re-enqueueing a
// Map drain takes.
func TestTrySubmitDuringPendingClose(t *testing.T) {
	p, err := Options[struct{}]{Workers: 1, Queue: 1}.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	gate, running := make(chan struct{}), make(chan struct{})
	if err := p.TrySubmit(func(struct{}) { close(running); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := p.TrySubmit(func(struct{}) {}); err != nil { // fills the queue
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() { submitted <- p.Submit(context.Background(), func(struct{}) {}) }()
	// Wait until Submit holds the read lock, blocked on the full queue...
	for p.mu.TryLock() {
		p.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	// ...and until Close is pending behind it: new readers are then refused.
	for p.mu.TryRLock() {
		p.mu.RUnlock()
		time.Sleep(time.Millisecond)
	}
	if err := p.TrySubmit(func(struct{}) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("TrySubmit during pending Close = %v, want ErrPoolClosed", err)
	}
	close(gate)
	if err := <-submitted; err != nil {
		t.Fatalf("blocked Submit = %v, want admitted", err)
	}
	<-closed
}
