package campaign

import (
	"errors"
	"fmt"
	"sync"
)

// ErrQueueFull is returned by Pool.TrySubmit when the bounded job queue is
// at capacity — the admission-control signal a service maps to backpressure
// (HTTP 429) instead of letting latency grow without bound.
var ErrQueueFull = errors.New("campaign: job queue full")

// ErrPoolClosed is returned by Pool.Submit and Pool.TrySubmit after Close.
var ErrPoolClosed = errors.New("campaign: pool closed")

// Pool is the campaign execution model promoted to a long-running service
// form: a fixed set of workers, each owning one reusable state S built once
// by the per-worker state factory, draining a bounded job queue for the
// lifetime of the pool instead of a single campaign's run range. The same
// determinism contract as Do carries over — which worker executes which job
// is scheduling-dependent, so jobs must be history-insensitive in the state
// they receive (exactly what sim.Runner guarantees via Machine.Reuse).
//
// Unlike Do there is no result collection or ordering: a service's jobs
// carry their own completion channels. What the pool adds is admission
// control, in two flavours serving two callers of the same daemon:
//
//   - TrySubmit never blocks — a full queue is an explicit ErrQueueFull the
//     interactive request path surfaces as backpressure (429);
//   - Submit blocks until a worker frees queue space — the batch path a job
//     engine drives, where throttling to pool speed is the point.
//
// Jobs must never Submit from worker goroutines: a job blocking on its own
// pool's full queue deadlocks the worker that would drain it.
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
	// eventually completes and releases the lock.
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
// queue is at capacity and no worker is ready, and ErrPoolClosed after
// Close; on nil it reports the job unsubmittable.
func (p *Pool[S]) TrySubmit(job func(S)) error {
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
	default:
		return ErrQueueFull
	}
}

// Submit enqueues job, blocking until queue space frees when the queue is
// at capacity — the batch-path counterpart of TrySubmit. It returns
// ErrPoolClosed when the pool was closed before the call; a Close
// concurrent with a blocked Submit waits for the send to land (the job is
// then drained like any other admitted job). Submitting from a worker
// goroutine of the same pool is forbidden — see the type comment.
func (p *Pool[S]) Submit(job func(S)) error {
	if job == nil {
		return fmt.Errorf("campaign: nil job")
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.jobs <- job
	return nil
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
