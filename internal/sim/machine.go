package sim

import (
	"math/bits"

	"creditbus/internal/bitset"
	"creditbus/internal/bus"
	"creditbus/internal/cache"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
)

// Machine is one assembled platform instance. Build it with NewMachine,
// drive it with Tick or Step; Runner.Run builds, reuses and drives machines
// for complete runs. Machines are single-goroutine objects.
type Machine struct {
	cfg Config

	cores     []*cpu.Core // nil for idle or injector-driven masters
	ports     []*port
	l1s, l2s  []*cache.Cache
	sharedBus *bus.Bus
	credit    *core.Arbiter
	signals   *core.Signals
	memctl    *mem.Controller

	injectors    []int       // masters driven by WCET-mode contention injectors
	injectorBits bitset.Set  // the same masters as a bitset, for word-level reposting
	live         []*cpu.Core // non-nil cores, for the fast path's hot loops
	coreNext     []int64     // flat next-event scratch, one entry per live core
	cycle        int64
	busNext      int64 // bus horizon recorded by the last nextEventCycle

	// onComplete is the bus completion callback, bound by the first Reuse
	// so later ones hand the same func value back to the bus instead of
	// allocating a fresh closure per run.
	onComplete func(master int, tag uint64)
}

// NewMachine builds a platform running programs[i] on core i. A nil program
// leaves the core idle. In WCET-estimation mode every core except cfg.TuA
// must have a nil program: those masters are driven by Table I contention
// injectors instead (REQ always set, MaxL holds).
//
// seed determines every random aspect of the run — cache placement and
// replacement of each cache, and the arbitration policy's draws — so equal
// seeds give bit-identical runs and MBPTA collects across distinct seeds.
// The machine is the zero Machine reinitialised by Reuse, the one
// construction path.
func NewMachine(cfg Config, programs []cpu.Program, seed uint64) (*Machine, error) {
	m := new(Machine)
	if err := m.Reuse(cfg, programs, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// Cycle returns the elapsed simulated cycles.
func (m *Machine) Cycle() int64 { return m.cycle }

// Bus exposes the shared bus (statistics, shares).
func (m *Machine) Bus() *bus.Bus { return m.sharedBus }

// SetGrantObserver installs (or, with nil, removes) a callback invoked for
// every bus grant — the hook the fairness instrumentation hangs off.
// Machine.Reuse rebuilds the bus configuration without an observer, so the
// callback must be reinstalled after every Reuse; Runner.Run does exactly
// that for RunSpec.OnGrant.
func (m *Machine) SetGrantObserver(fn func(bus.GrantEvent)) { m.sharedBus.SetOnGrant(fn) }

// Credit exposes the CBA arbiter, or nil when CBA is off.
func (m *Machine) Credit() *core.Arbiter { return m.credit }

// MemController exposes the memory controller statistics.
func (m *Machine) MemController() *mem.Controller { return m.memctl }

// Core returns core i, or nil for idle/injector masters.
func (m *Machine) Core(i int) *cpu.Core { return m.cores[i] }

// L1 returns core i's L1 data cache (nil for idle/injector masters).
func (m *Machine) L1(i int) *cache.Cache { return m.l1s[i] }

// L2 returns core i's L2 partition (nil for idle/injector masters).
func (m *Machine) L2(i int) *cache.Cache { return m.l2s[i] }

// Config returns the platform configuration.
func (m *Machine) Config() Config { return m.cfg }

// Done reports whether every core with a program has finished. Injector
// masters never finish; they are excluded. m.live is exactly the non-nil
// cores, so iterating it (not the sparse slot vector) keeps this hot-loop
// check proportional to the programs actually running.
func (m *Machine) Done() bool {
	for _, c := range m.live {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Tick advances the platform by one cycle: cores issue (possibly posting
// bus requests), WCET injectors keep their REQ lines set, then the bus
// arbitrates, updates budgets and delivers completions.
func (m *Machine) Tick() {
	m.cycle++
	for _, c := range m.live {
		c.Tick()
	}
	m.repostInjectors()
	m.sharedBus.Tick()
}

// repostInjectors re-asserts the REQ line of every injector without an
// outstanding request (Table I: REQ_{2,3,4} always set; contender holds are
// MaxL). The grantable set is injectorBits ∧ ¬pending, diffed word by word
// against the bus's pending set: between grants this is a few word ANDs,
// not a loop over a thousand injectors.
func (m *Machine) repostInjectors() {
	if len(m.injectors) == 0 {
		return
	}
	hold := m.cfg.Latency.MaxHold()
	pend := m.sharedBus.PendingWords()
	for w, inj := range m.injectorBits {
		// The word is snapshotted before posting: MustPost flips bits only
		// in pend[w], never in a word still to be visited... and only for
		// masters already removed from this snapshot.
		for free := inj &^ pend[w]; free != 0; free &= free - 1 {
			i := w<<6 + bits.TrailingZeros64(free)
			m.sharedBus.MustPost(i, bus.Request{Hold: hold})
		}
	}
}

// TaskCycles returns core i's execution time in cycles (the paper's
// per-task measure).
func (m *Machine) TaskCycles(i int) int64 {
	if m.cores[i] == nil {
		return 0
	}
	return m.cores[i].Stats().Cycles
}
