package campaign

import (
	"context"
	"fmt"
)

// Options is the single configuration surface for campaign execution. One
// value of Options[S] describes how work is executed: how many workers,
// what reusable per-worker state they carry, how deep the job queue is when
// the pool runs in service form, and who observes progress. The two
// execution shapes consume the same value:
//
//   - Do(opts, runs, fn) — a finite campaign: fan runs out across the
//     workers, collect results in run index order (bit-identical to the
//     serial loop), return them;
//   - opts.NewPool() — a long-running service pool draining submitted jobs
//     (and Map calls) until Close.
//
// The zero value is usable: DefaultWorkers workers, zero-value per-worker
// state, an unbuffered queue, no progress observer.
type Options[S any] struct {
	// Workers sizes the pool; ≤ 0 means DefaultWorkers. For Do, 1 forces
	// the serial in-caller path (no goroutines, one state value).
	Workers int
	// PerWorkerState builds one S per worker before its first run; the
	// worker then carries that S across every run it executes, which is
	// what amortises expensive per-run setup (a machine, program
	// instances, buffers) to zero on the hot path. Nil means the zero value
	// of S. Because which worker executes which run is
	// scheduling-dependent, run functions must be history-insensitive in
	// the state they receive — fn(state, r) must return the same value
	// whatever runs the state served before, exactly the guarantee
	// sim.Machine.Reuse provides.
	PerWorkerState func() S
	// Queue bounds the service pool's job queue (NewPool only; Do
	// ignores it). Zero still admits jobs whenever a worker is ready to
	// receive; negative is rejected.
	Queue int
	// Progress, when non-nil, observes run completion in Do: called with
	// (done, total), serialised, done strictly increasing from 1. Pools
	// have no run range, so NewPool ignores it.
	Progress Progress
}

// state returns the per-worker state factory, defaulting to the zero value
// of S.
func (o Options[S]) state() func() S {
	if o.PerWorkerState != nil {
		return o.PerWorkerState
	}
	return func() S { var zero S; return zero }
}

// Do executes fn(state, 0) … fn(state, runs-1) under the options and returns
// the results ordered by run index — the unified campaign entry point. Each
// worker receives its own PerWorkerState() value and keeps it across its
// whole run slice; results are collected in index order, so the output is
// bit-identical to the serial loop whenever fn is history-insensitive (see
// Options.PerWorkerState). On failure Do reports the error of the
// lowest-indexed failed run and stops dispatching new runs.
//
// With more than one worker and run, Do opens a pool of min(Workers, runs)
// workers for the call and Maps the runs on it; otherwise the runs execute
// serially on the calling goroutine with a single state value.
func Do[S, T any](opts Options[S], runs int, fn func(state S, run int) (T, error)) ([]T, error) {
	if err := check(runs, fn); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers = min(workers, runs); workers > 1 {
		p, err := newPool(workers, 0, opts.state())
		if err != nil {
			return nil, err
		}
		defer p.Close()
		return Map(context.Background(), p, runs, opts.Progress, fn)
	}
	state := opts.state()()
	out := make([]T, runs)
	for r := 0; r < runs; r++ {
		v, err := fn(state, r)
		if err != nil {
			return nil, fmt.Errorf("campaign: run %d: %w", r, err)
		}
		out[r] = v
		if opts.Progress != nil {
			opts.Progress(r+1, runs)
		}
	}
	return out, nil
}

// NewPool starts the long-running service form of the options: Workers
// goroutines, each carrying one PerWorkerState() value, draining a job
// queue of capacity Queue until Close. See Pool for the submission and
// backpressure contract.
func (o Options[S]) NewPool() (*Pool[S], error) {
	return newPool(o.Workers, o.Queue, o.state())
}
