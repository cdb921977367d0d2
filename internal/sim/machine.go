package sim

import (
	"fmt"
	"math/bits"

	"creditbus/internal/bitset"
	"creditbus/internal/bus"
	"creditbus/internal/cache"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
	"creditbus/internal/rng"
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

	// onComplete is the bus completion callback, bound once at construction
	// so Reuse can hand the same func value back to the bus instead of
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
func NewMachine(cfg Config, programs []cpu.Program, seed uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(programs) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d programs for %d cores", len(programs), cfg.Cores)
	}

	m := &Machine{cfg: cfg}

	seeds := rng.New(seed)
	policySeed := seeds.Uint64()

	credit, err := cfg.buildCredit()
	if err != nil {
		return nil, err
	}
	m.credit = credit
	if credit != nil && cfg.Mode == core.WCETMode {
		m.signals = core.NewSignals(credit, core.WCETMode, cfg.TuA)
	}

	m.memctl, err = mem.NewController(cfg.Latency)
	if err != nil {
		return nil, err
	}

	m.onComplete = func(master int, _ uint64) {
		if p := m.ports[master]; p != nil {
			p.onComplete()
		}
	}
	m.sharedBus, err = bus.New(bus.Config{
		Masters:    cfg.Cores,
		MaxHold:    cfg.Latency.MaxHold(),
		Policy:     cfg.buildPolicy(policySeed),
		Credit:     credit,
		Signals:    m.signals,
		OnComplete: m.onComplete,
	})
	if err != nil {
		return nil, err
	}

	m.cores = make([]*cpu.Core, cfg.Cores)
	m.ports = make([]*port, cfg.Cores)
	m.l1s = make([]*cache.Cache, cfg.Cores)
	m.l2s = make([]*cache.Cache, cfg.Cores)
	m.injectorBits = bitset.New(cfg.Cores)

	for i := 0; i < cfg.Cores; i++ {
		if cfg.Mode == core.WCETMode && i != cfg.TuA {
			if programs[i] != nil {
				return nil, fmt.Errorf("sim: WCET mode: core %d must be injector-driven (nil program)", i)
			}
			m.injectors = append(m.injectors, i)
			m.injectorBits.Set(i)
			continue
		}
		if programs[i] == nil {
			continue // idle core
		}
		l1, err := cache.New(cache.Config{
			Sets: cfg.L1Sets, Ways: cfg.L1Ways, LineBytes: cfg.LineBytes,
			PlacementSeed: seeds.Uint64(), ReplacementSeed: seeds.Uint64(),
		})
		if err != nil {
			return nil, err
		}
		l2, err := cache.New(cache.Config{
			Sets: cfg.L2Sets, Ways: cfg.L2Ways, LineBytes: cfg.LineBytes,
			WriteBack: true, AllocOnWrite: true,
			PlacementSeed: seeds.Uint64(), ReplacementSeed: seeds.Uint64(),
		})
		if err != nil {
			return nil, err
		}
		m.l1s[i], m.l2s[i] = l1, l2
		p := &port{machine: m, id: i, l1: l1, l2: l2}
		m.ports[i] = p
		m.cores[i] = cpu.NewCore(programs[i], p)
		m.live = append(m.live, m.cores[i])
	}
	m.coreNext = make([]int64, len(m.live))
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

// Signals exposes the Table I signal block, or nil outside WCET mode.
func (m *Machine) Signals() *core.Signals { return m.signals }

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
