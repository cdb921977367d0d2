package sim

import (
	"fmt"

	"creditbus/internal/bus"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
)

// DefaultLimit bounds single runs; generous against the ~10^5..10^6-cycle
// benchmarks so that only genuine deadlocks hit it.
const DefaultLimit = 200_000_000

// Result aggregates one run's observables.
type Result struct {
	// TaskCycles is the execution time of the task under analysis.
	TaskCycles int64
	// WallCycles is the machine cycle count when the run ended.
	WallCycles int64
	// CPU is the TuA core's cycle accounting.
	CPU cpu.Stats
	// Bus is the TuA master's bus statistics.
	Bus bus.MasterStats
	// Utilisation is overall bus occupancy.
	Utilisation float64
	// L1HitRate and L2HitRate are the TuA's cache hit rates.
	L1HitRate, L2HitRate float64
	// MemCounts is the per-transaction-kind traffic (whole machine).
	MemCounts map[mem.Kind]int64
}

func (m *Machine) result(tua int) Result {
	r := Result{
		TaskCycles:  m.TaskCycles(tua),
		WallCycles:  m.cycle,
		Utilisation: m.sharedBus.Utilisation(),
		Bus:         m.sharedBus.Stats(tua),
		MemCounts:   map[mem.Kind]int64{},
	}
	if c := m.cores[tua]; c != nil {
		r.CPU = c.Stats()
	}
	if m.l1s[tua] != nil {
		r.L1HitRate = m.l1s[tua].Stats().HitRate()
	}
	if m.l2s[tua] != nil {
		r.L2HitRate = m.l2s[tua].Stats().HitRate()
	}
	for _, k := range mem.Kinds() {
		r.MemCounts[k] = m.memctl.Count(k)
	}
	return r
}

// Kind selects how a run meets contention. Its values are the scenario
// schema's `run` strings, so a scenario converts its kind without a table.
type Kind string

const (
	// KindIsolation runs the TuA's program alone, every other core idle —
	// the paper's ISO scenario, in operation mode (isolation measurements
	// run the deployment configuration).
	KindIsolation Kind = "isolation"
	// KindWCET runs the TuA's program against Table I contention injectors
	// on every other core — the paper's CON scenario, in WCET-estimation
	// mode: contender REQ always set, MaxL holds, COMP gating when CBA is
	// on, TuA budget starting empty.
	KindWCET Kind = "wcet"
	// KindWorkloads runs one program per core in operation mode (e.g. the
	// §II illustrative scenario with real streaming co-runners) until the
	// TuA finishes; co-runners keep generating contention throughout.
	KindWorkloads Kind = "workloads"
)

// Validate reports whether k is one of the run kinds.
func (k Kind) Validate() error {
	_, err := k.mode()
	return err
}

// mode is the analysis mode a run of kind k forces on its configuration.
func (k Kind) mode() (core.Mode, error) {
	switch k {
	case KindIsolation, KindWorkloads:
		return core.OperationMode, nil
	case KindWCET:
		return core.WCETMode, nil
	}
	return 0, fmt.Errorf("sim: unknown run kind %q", k)
}

// RunSpec is everything one run takes besides the platform configuration.
type RunSpec struct {
	// Kind selects the scenario and forces the configuration's Mode.
	Kind Kind
	// Program is the TuA's program with every other core idle: shorthand
	// for a Programs vector holding only the TuA entry. Set one, not both.
	Program cpu.Program
	// Programs holds one program per core; nil leaves a core idle (or, in
	// WCET mode, injector-driven). Isolation and WCET runs take only a TuA
	// program. No program may be empty — an empty co-runner cannot
	// generate the contention the run asks for — and Run rewinds each one
	// (Program.Reset) first, so instances may serve consecutive runs. The
	// slice is only read, never retained.
	Programs []cpu.Program
	// Seed determines every random aspect of the run (see NewMachine).
	Seed uint64
	// Probe, when non-nil, observes the machine after every step.
	Probe Probe
	// OnGrant, when non-nil, sees every bus grant of the run (injector and
	// co-runner traffic included) in grant order, on the runner's
	// goroutine — what stats.Fairness consumes. Run detaches it on return.
	OnGrant func(bus.GrantEvent)
}

// Probe observes a machine at step granularity: a probed run invokes it
// after every engine step (one cycle on the per-cycle engine, one event
// step on the fast engine), the final one included. Probes must only read —
// any mutation corrupts the run. They exist for the invariant oracles of
// internal/scengen, which check budget bounds and bus conservation at every
// observation point; a nil Probe leaves the run untouched.
type Probe func(*Machine)

// runTuA steps m until the TuA's program finishes, invoking probe (when
// non-nil) after every step. It fails once limit cycles pass first — a
// deadlock guard that trips at the same cycle on both engines, because
// stepWithin parks at the limit instead of executing an event beyond it.
// It is Runner.Run's step loop; the TuA core must have a program.
func (m *Machine) runTuA(limit int64, probe Probe) error {
	tua := m.cores[m.cfg.TuA]
	for !tua.Done() {
		if m.cycle >= limit {
			return fmt.Errorf("sim: limit of %d cycles reached before TuA completion", limit)
		}
		m.step(limit)
		if probe != nil {
			probe(m)
		}
	}
	return nil
}

// emptyProgram reports whether p yields no operations. The probe consumes
// one operation and rewinds, which the Program contract makes lossless.
func emptyProgram(p cpu.Program) bool {
	p.Reset()
	_, ok := p.Next()
	p.Reset()
	return !ok
}

// LoopedProgram wraps a trace so that it restarts forever — used for
// co-runner tasks that must generate contention for the whole run.
type LoopedProgram struct{ inner cpu.Program }

// NewLooped returns a program that replays inner endlessly.
func NewLooped(inner cpu.Program) *LoopedProgram { return &LoopedProgram{inner: inner} }

// Next implements cpu.Program.
func (l *LoopedProgram) Next() (cpu.Op, bool) {
	op, ok := l.inner.Next()
	if !ok {
		l.inner.Reset()
		op, ok = l.inner.Next()
		if !ok {
			return cpu.Op{}, false // empty inner program
		}
	}
	return op, true
}

// Reset implements cpu.Program.
func (l *LoopedProgram) Reset() { l.inner.Reset() }

// Clone implements cpu.Cloner when the inner program does; it returns nil
// (meaning "not cloneable", see cpu.TryClone) otherwise.
func (l *LoopedProgram) Clone() cpu.Program {
	inner, ok := cpu.TryClone(l.inner)
	if !ok {
		return nil
	}
	return &LoopedProgram{inner: inner}
}
