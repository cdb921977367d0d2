// Package campaign is the deterministic parallel measurement engine behind
// every multi-run protocol in the reproduction. The paper's methodology
// (§III.B) collects on the order of 1,000 maximum-contention runs per
// benchmark for the MBPTA/EVT fit; each run is an independent simulation
// with its own derived seed, so a campaign is embarrassingly parallel —
// provided no two runs share mutable state. The engine enforces exactly
// that: every worker owns its platform (a sim.Runner, whose machine is
// reinitialised bit-identically for each run), every run gets its own
// program instance from a factory, and results are aggregated in run
// order, so a parallel campaign's output is bit-identical to the serial
// loop it replaces.
//
// Three forms are provided, all configured by one Options value:
//
//   - Do, the ordered worker pool: fan any indexed job set out across
//     goroutines, each worker carrying reusable state, collect results in
//     index order, report progress;
//   - Options.NewPool, the same workers as a long-running service pool
//     draining submitted jobs;
//   - Spec, the maximum-contention campaign: a platform Config, a program
//     factory and a seed schedule, collected into the ordered sample vector
//     the MBPTA pipeline consumes.
package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Progress observes campaign completion. It is called with the number of
// runs finished so far and the campaign size, serialised (never from two
// goroutines at once) and with done strictly increasing from 1 to total.
type Progress func(done, total int)

// DefaultWorkers is the worker count used when a campaign does not set one:
// the process's GOMAXPROCS, i.e. one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// execute is the ordered worker-pool core behind Do: per-worker reusable
// state from newState, index-ordered result collection, lowest-indexed
// error, serialised progress. With workers ≤ 1 the runs execute serially on
// the calling goroutine with a single state value and no goroutine
// machinery.
func execute[S, T any](runs, workers int, progress Progress, newState func() S, fn func(state S, run int) (T, error)) ([]T, error) {
	if runs < 0 {
		return nil, fmt.Errorf("campaign: runs = %d", runs)
	}
	if fn == nil {
		return nil, fmt.Errorf("campaign: nil run function")
	}
	if newState == nil {
		return nil, fmt.Errorf("campaign: nil state factory")
	}
	out := make([]T, runs)
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > runs {
		workers = runs
	}

	if workers <= 1 {
		state := newState()
		for r := 0; r < runs; r++ {
			v, err := fn(state, r)
			if err != nil {
				return nil, fmt.Errorf("campaign: run %d: %w", r, err)
			}
			out[r] = v
			if progress != nil {
				progress(r+1, runs)
			}
		}
		return out, nil
	}

	var (
		next   atomic.Int64 // next run index to dispatch
		failed atomic.Bool  // stop dispatching after the first error
		mu     sync.Mutex   // guards done, errRun, errVal and progress calls
		done   int
		errRun = -1
		errVal error
		wg     sync.WaitGroup
	)
	next.Store(-1)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				r := int(next.Add(1))
				if r >= runs || failed.Load() {
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
					return
				}
				out[r] = v // disjoint index per worker iteration
				mu.Lock()
				done++
				if progress != nil {
					progress(done, runs)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if errRun >= 0 {
		return nil, fmt.Errorf("campaign: run %d: %w", errRun, errVal)
	}
	return out, nil
}

// SeedStride is the golden-ratio increment of the default seed schedule —
// the same constant the measurement protocol has always used to derive
// per-run seeds, kept so parallel campaigns reproduce historical sample
// vectors exactly.
const SeedStride = 0x9e3779b97f4a7c15
