package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrQueueFull is returned by Pool.TrySubmit when the bounded job queue is
// at capacity — the admission-control signal a service maps to backpressure
// (HTTP 429) instead of letting latency grow without bound.
var ErrQueueFull = errors.New("campaign: job queue full")

// ErrPoolClosed is returned by Pool.Submit, Pool.TrySubmit and Map after
// Close, and by TrySubmit while a Close is pending.
var ErrPoolClosed = errors.New("campaign: pool closed")

// Pool is the campaign execution model promoted to a long-running service
// form: a fixed set of workers, each owning one reusable state S built once
// by the per-worker state factory, draining a bounded job queue for the
// lifetime of the pool instead of a single campaign's run range. The same
// determinism contract as Do carries over — which worker executes which job
// is scheduling-dependent, so jobs must be history-insensitive in the state
// they receive (exactly what sim.Machine.Reuse guarantees a sim.Runner or
// scenario.Worker).
//
// A submitted job carries its own completion signal; Map adds index-ordered
// result collection on top. What the pool adds is admission control, in two
// flavours serving two callers of the same daemon:
//
//   - TrySubmit never blocks — a full queue is an explicit ErrQueueFull the
//     interactive request path surfaces as backpressure (429);
//   - Submit blocks until a worker frees queue space or its context ends —
//     the batch path Map drives, where throttling to pool speed is the point.
//
// Jobs must never Submit or Map from worker goroutines: a job blocking on
// its own pool's full queue deadlocks the worker that would drain it.
type Pool[S any] struct {
	jobs    chan func(S)
	workers int
	wg      sync.WaitGroup
	// mu is reader/writer on the channel's liveness: every submitter holds
	// the read side while touching jobs (so the channel cannot be closed
	// under an in-flight send — a panic in Go), and Close takes the write
	// side to flip closed and close the channel. Blocking Submit holds the
	// read lock across its send; that cannot starve Close, because the
	// workers keep draining the queue until close, so every blocked send
	// eventually completes and releases the lock. TrySubmit only tries the
	// read lock: a pending Close blocks new readers, and a worker
	// re-enqueueing a Map drain must not wait behind it.
	mu     sync.RWMutex
	closed bool
}

// newPool is the core behind Options.NewPool. A zero queue capacity still
// admits jobs whenever a worker is ready to receive.
func newPool[S any](workers, queue int, newState func() S) (*Pool[S], error) {
	if queue < 0 {
		return nil, fmt.Errorf("campaign: queue capacity = %d", queue)
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool[S]{jobs: make(chan func(S), queue), workers: workers}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			state := newState()
			for job := range p.jobs {
				job(state)
			}
		}()
	}
	return p, nil
}

// TrySubmit enqueues job without blocking. It returns ErrQueueFull when the
// queue is at capacity and no worker is ready, and ErrPoolClosed once Close
// has been called, even while Close still waits for a blocked Submit; on
// nil it reports the job unsubmittable.
func (p *Pool[S]) TrySubmit(job func(S)) error {
	if job == nil {
		return fmt.Errorf("campaign: nil job")
	}
	if !p.mu.TryRLock() {
		return ErrPoolClosed
	}
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- job:
		return nil
	default:
		return ErrQueueFull
	}
}

// Submit enqueues job, blocking until queue space frees or ctx ends — the
// batch-path counterpart of TrySubmit. It returns context.Cause(ctx) when
// ctx ends first, and ErrPoolClosed when the pool was closed before the
// call; a Close concurrent with a blocked Submit waits for it to return.
// Submitting from a worker goroutine of the same pool is forbidden.
func (p *Pool[S]) Submit(ctx context.Context, job func(S)) error {
	if job == nil {
		return fmt.Errorf("campaign: nil job")
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- job:
		return nil
	case <-ctx.Done(): // nil for a context that never ends
		return context.Cause(ctx)
	}
}

// Map executes fn(state, 0) … fn(state, runs-1) on the pool's workers and
// returns the results in run order, with Do's contract: fn must be
// history-insensitive in the state it receives, progress (when non-nil)
// observes completion serialised with done strictly increasing, and a
// failure reports the lowest-indexed failed run and dispatches no further
// run.
//
// Map submits min(Workers, runs) drain jobs. A drain keeps claiming the
// next run index from a shared counter until none remain, so a run costs
// no queue operation. After each run, a drain that sees other jobs queued
// re-enqueues itself with TrySubmit and returns its worker (on a full queue
// it keeps the worker): a job queued behind a Map (an interactive request,
// another Map's drain) waits at most one run per worker, not for the whole
// batch.
//
// When ctx ends — also while Map waits in Submit — it returns
// context.Cause(ctx) at once. A drain checks ctx before claiming each run,
// so no run starts after that; runs in flight finish on their workers and
// their results are dropped.
//
// Map blocks in Submit while the queue is full, so it must not be called
// from one of the pool's own workers. It returns ErrPoolClosed when the
// pool is closed before any drain is admitted; once one is, every run
// executes unless ctx ends first.
func Map[S, T any](ctx context.Context, p *Pool[S], runs int, progress Progress, fn func(state S, run int) (T, error)) ([]T, error) {
	if err := check(runs, fn); err != nil {
		return nil, err
	}
	out := make([]T, runs)
	var (
		stop   = ctx.Done() // nil for a context that never ends
		next   atomic.Int64 // next run index to dispatch
		failed atomic.Bool  // stop dispatching after the first error
		mu     sync.Mutex   // guards done, errRun, errVal and progress calls
		done   int
		errRun = -1
		errVal error
		// live counts the drains not yet finished (kept across
		// re-enqueues) plus one for the submit loop; the decrement that
		// reaches zero closes finished.
		live     atomic.Int64
		finished = make(chan struct{})
		drain    func(S)
	)
	exit := func() {
		if live.Add(-1) == 0 {
			close(finished)
		}
	}
	drain = func(state S) {
		for {
			select {
			case <-stop:
				exit()
				return
			default:
			}
			r := int(next.Add(1) - 1)
			if r >= runs || failed.Load() {
				exit()
				return
			}
			v, err := fn(state, r)
			if err != nil {
				failed.Store(true)
				mu.Lock()
				if errRun < 0 || r < errRun {
					errRun, errVal = r, err
				}
				mu.Unlock()
				exit()
				return
			}
			out[r] = v // disjoint index per run
			mu.Lock()
			done++
			if progress != nil {
				progress(done, runs)
			}
			mu.Unlock()
			if len(p.jobs) > 0 && p.TrySubmit(drain) == nil {
				return
			}
		}
	}
	live.Store(1)
	for i := 0; i < min(p.Workers(), runs); i++ {
		live.Add(1)
		if err := p.Submit(ctx, drain); err != nil {
			live.Add(-1)
			if i == 0 {
				return nil, err
			}
			break // the admitted drains execute every run
		}
	}
	exit()
	select {
	case <-finished:
	case <-stop:
		return nil, context.Cause(ctx)
	}

	switch {
	case errRun >= 0:
		return nil, fmt.Errorf("campaign: run %d: %w", errRun, errVal)
	case done < runs: // every drain stopped on ctx
		return nil, context.Cause(ctx)
	}
	return out, nil
}

// QueueDepth reports the number of jobs admitted but not yet picked up by a
// worker.
func (p *Pool[S]) QueueDepth() int { return len(p.jobs) }

// QueueCapacity reports the job queue's capacity.
func (p *Pool[S]) QueueCapacity() int { return cap(p.jobs) }

// Workers reports the pool's worker count.
func (p *Pool[S]) Workers() int { return p.workers }

// Close stops intake, lets the workers drain every admitted job, and waits
// for them to exit. Close is idempotent.
func (p *Pool[S]) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
