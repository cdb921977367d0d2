// Package campaign is the deterministic parallel measurement engine behind
// every multi-run protocol in the reproduction. The paper's methodology
// (§III.B) collects on the order of 1,000 maximum-contention runs per
// benchmark for the MBPTA/EVT fit; each run is an independent simulation
// with its own derived seed, so a campaign is embarrassingly parallel —
// provided no two runs share mutable state. The engine enforces exactly
// that: every worker owns one reusable state value (a sim.Runner or a
// scenario.Worker, whose machine is reinitialised bit-identically for each
// run), and results are aggregated in run order, so a parallel campaign's
// output is bit-identical to the serial loop it replaces. The package
// knows nothing of the simulator: what a run computes, and from which
// program instances, is the caller's run function.
//
// Pool is the one set of workers: every goroutine the package starts is
// one of a Pool's. Two forms use it, both configured by one Options value:
//
//   - Options.NewPool, a long-running pool draining submitted jobs, and
//     Map, which runs an indexed job set on such a pool until its context
//     ends and collects the results in index order;
//   - Do, a finite campaign: Map on a pool opened for the call (or a
//     serial loop in the caller for one worker).
package campaign

import (
	"fmt"
	"runtime"
)

// Progress observes campaign completion. It is called with the number of
// runs finished so far and the campaign size, serialised (never from two
// goroutines at once) and with done strictly increasing from 1 to total.
type Progress func(done, total int)

// DefaultWorkers is the worker count used when a campaign does not set one:
// the process's GOMAXPROCS, i.e. one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// check rejects a run count or run function no campaign can execute.
func check[S, T any](runs int, fn func(S, int) (T, error)) error {
	if runs < 0 {
		return fmt.Errorf("campaign: runs = %d", runs)
	}
	if fn == nil {
		return fmt.Errorf("campaign: nil run function")
	}
	return nil
}

// SeedStride is the golden-ratio increment of the default seed schedule —
// the same constant the measurement protocol has always used to derive
// per-run seeds, kept so parallel campaigns reproduce historical sample
// vectors exactly.
const SeedStride = 0x9e3779b97f4a7c15
