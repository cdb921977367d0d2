package main

import (
	"sort"

	"creditbus/internal/stats"
)

// pct is the type-7 p-quantile of xs (0 for no samples). Failed units are
// +Inf samples: they sort last, so any quantile that reaches them is +Inf.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

// windowed is the median over windows (a job, or a slice of the open loop)
// of each window's p-quantile. An oversubscribed virtual machine can halve
// a process's CPU for seconds at a time; a stall that covers fewer than
// half the windows does not move a windowed percentile, while it moves the
// pooled one by however many samples it slowed.
func windowed(windows [][]float64, p float64) float64 {
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			qs = append(qs, pct(w, p))
		}
	}
	return median(qs)
}

func flatten(windows [][]float64) []float64 {
	var all []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	return all
}

// tailSupported reports whether the p-quantile of n samples has at least ten
// samples beyond it, the rule under which a tail percentile is a
// measurement rather than an extrapolation: p99 needs 1,000 samples.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mix derives a well-spread 64-bit value from a seed and an index (the
// splitmix64 finaliser), so every input the benchmark makes is a pure
// function of --seed.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ledgerCounts are one simulation run's event counts, read through a probe.
type ledgerCounts struct {
	steps, grants, l1, l2 float64
}

// ledgerCosts are the unit costs the layer ledger replays on their own, ns.
type ledgerCosts struct {
	horizon, advance, pick, l1, l2 float64
}

// coverage is the share of a run's measured time the ledger accounts for:
// every engine step computes a bus horizon and advances the bus, every
// grant is one arbiter pick, and every cache access costs a replayed access.
// The core pipeline is not in the ledger yet, so coverage stays below 1.
func coverage(c ledgerCounts, k ledgerCosts, runNS float64) float64 {
	if runNS <= 0 {
		return 0
	}
	return (c.steps*(k.horizon+k.advance) + c.grants*k.pick + c.l1*k.l1 + c.l2*k.l2) / runNS
}
