// Package exp regenerates every quantitative artefact of the paper — the
// §II illustrative example, Table I's cost inventory, Figure 1, and the
// supporting claims (§IV results, §III.A H-CBA variants) — plus the
// extension sweep that exercises the §I "virtually unbounded slowdown"
// argument. cmd/experiments prints these; bench_test.go wraps them as
// testing.B benchmarks. EXPERIMENTS.md records paper-vs-measured values.
package exp

// Options tunes an experiment campaign.
type Options struct {
	// Runs is the number of randomised runs per configuration. The paper
	// uses 1,000; the default is 30, which already stabilises means to
	// ~1%.
	Runs int
	// Seed is the campaign's base seed; every (configuration, run) pair
	// derives its own seed from it.
	Seed uint64
	// MaxOps truncates workload traces (0 = full length). Tests use this
	// to keep campaigns fast; reported numbers use full traces.
	MaxOps int
	// Workers is the number of simulation runs in flight (0 = GOMAXPROCS,
	// 1 = serial). Campaign results are bit-identical at any worker count:
	// every run owns its machine and program instance and results are
	// aggregated in run order.
	Workers int
	// Progress, when non-nil, observes run completion of each campaign the
	// experiment executes: called serially with (done, total), done
	// strictly increasing per campaign.
	Progress func(done, total int)
	// PerCycle forces the per-cycle reference stepping engine for every
	// simulation the experiment runs. The default — false — uses
	// event-horizon stepping, which is bit-identical and several times
	// faster (see sim.Config.ForcePerCycle).
	PerCycle bool
}

// withDefaults fills in zero fields.
func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 30
	}
	if o.Seed == 0 {
		o.Seed = 0x20170327 // the paper's conference date
	}
	return o
}

// runSeed derives a deterministic per-run seed: distinct experiments and
// configurations must not share cache/arbiter randomness.
func (o Options) runSeed(config, run int) uint64 {
	z := o.Seed ^ uint64(config)*0x9e3779b97f4a7c15 ^ uint64(run)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
