package sim

import (
	"fmt"

	"creditbus/internal/arbiter"
	"creditbus/internal/bitset"
	"creditbus/internal/bus"
	"creditbus/internal/cache"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
	"creditbus/internal/rng"
)

// This file is the machine-pooling layer: Reuse reinitialises an existing
// Machine in place for a new (cfg, programs, seed) triple, recycling every
// component whose constructor inputs are unchanged — cores, ports, caches,
// bus state, arbitration policy, CBA budgets, COMP latches, memory
// controller — instead of reallocating them. Measurement campaigns rerun
// one platform configuration thousands of times with only the seed (and
// program cursor) varying, so after the first run the hot path allocates
// nothing; a structural change (different core count, policy kind, cache
// geometry, ...) falls back to rebuilding exactly the components it
// invalidates.
//
// The correctness bar is bit-identity: a reused machine must be
// indistinguishable from NewMachine(cfg, programs, seed). Two properties
// carry that:
//
//   - seed discipline — Reuse derives the policy seed and the per-core
//     cache placement/replacement seeds from the run seed in exactly
//     NewMachine's order (policy first, then four draws per program-bearing
//     core in index order), so every random stream starts from the same
//     state either way;
//   - reset depth — every recycled component exposes a reset that restores
//     its just-built state (cpu.Core.Rebind, cache.Cache.Reuse,
//     bus.Bus.Reuse, core.Arbiter.Reset, core.Signals.Reset,
//     mem.Controller.Reset, arbiter.Reseeder), with no counter, latch,
//     buffer or rng surviving from the previous run.
//
// The reuse-differential suite (reuse_test.go, scenario.TestReuseDifferential
// and the scengen reuse oracle) enforces bit-identity over the full corpus
// and the randomized scenario space on both engines.

// creditShapeEqual reports whether buildCredit would produce an identical
// arbiter under both configurations, i.e. whether the existing credit
// filter (possibly nil) can be recycled with a plain Reset.
func creditShapeEqual(a, b Config) bool {
	return a.Credit == b.Credit &&
		a.Cores == b.Cores &&
		a.Latency.MaxHold() == b.Latency.MaxHold() &&
		a.Mode == b.Mode &&
		a.TuA == b.TuA
}

// policyShapeEqual reports whether buildPolicy would produce an identical
// policy (up to the per-run seed) under both configurations, i.e. whether
// the existing policy can be recycled with a Reseed/Reset.
func policyShapeEqual(a, b Config) bool {
	if a.Policy != b.Policy || a.Cores != b.Cores || !int64sEqual(a.Weights, b.Weights) {
		return false
	}
	switch b.Policy {
	case PolicyTDMA:
		// TDMA's slot width is MaxHold.
		return a.Latency.MaxHold() == b.Latency.MaxHold()
	case PolicyPropFair:
		return a.PFAvgShift == b.PFAvgShift
	case PolicyMTS:
		if len(a.MTSTimescales) != len(b.MTSTimescales) {
			return false
		}
		for i := range a.MTSTimescales {
			if a.MTSTimescales[i] != b.MTSTimescales[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reuse reinitialises the machine in place as NewMachine(cfg, programs,
// seed) would build it, recycling allocated components wherever the new
// configuration permits. On success the machine is bit-identical to a
// fresh one — same component states, same random streams, same
// step-for-step behaviour on both engines. On error the machine may be
// partially reinitialised and must be discarded (exactly as a failed
// NewMachine yields no machine); the errors themselves match NewMachine's.
func (m *Machine) Reuse(cfg Config, programs []cpu.Program, seed uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(programs) != cfg.Cores {
		return fmt.Errorf("sim: %d programs for %d cores", len(programs), cfg.Cores)
	}

	old := m.cfg

	// Seed discipline: one stream, same draw order as NewMachine.
	var seeds rng.Stream
	seeds.Reseed(seed)
	policySeed := seeds.Uint64()

	// CBA filter and Table I signal block.
	if creditShapeEqual(old, cfg) {
		if m.credit != nil {
			m.credit.Reset()
		}
	} else {
		credit, err := cfg.buildCredit()
		if err != nil {
			return err
		}
		m.credit = credit
		m.signals = nil // bound to the replaced arbiter; rebuild below
	}
	if m.credit != nil && cfg.Mode == core.WCETMode {
		if m.signals != nil && m.signals.TuA() == cfg.TuA {
			m.signals.Reset()
		} else {
			m.signals = core.NewSignals(m.credit, core.WCETMode, cfg.TuA)
		}
	} else {
		m.signals = nil
	}

	// Memory controller: latency model unchanged means a counter reset.
	if m.memctl.Latency() == cfg.Latency {
		m.memctl.Reset()
	} else {
		memctl, err := mem.NewController(cfg.Latency)
		if err != nil {
			return err
		}
		m.memctl = memctl
	}

	// Arbitration policy: recycled and re-armed with the run's policy seed
	// (randomised policies restart their stream exactly as a fresh
	// construction would; deterministic ones reset), rebuilt on a shape
	// change.
	var pol arbiter.Policy
	if policyShapeEqual(old, cfg) {
		pol = m.sharedBus.Policy()
		if r, ok := pol.(arbiter.Reseeder); ok {
			r.Reseed(policySeed)
		} else {
			pol.Reset()
		}
	} else {
		pol = cfg.buildPolicy(policySeed)
	}

	if err := m.sharedBus.Reuse(bus.Config{
		Masters:    cfg.Cores,
		MaxHold:    cfg.Latency.MaxHold(),
		Policy:     pol,
		Credit:     m.credit,
		Signals:    m.signals,
		OnComplete: m.onComplete,
	}); err != nil {
		return err
	}

	// Per-core slots, in index order so cache seed draws line up with
	// NewMachine's.
	if len(m.cores) != cfg.Cores {
		m.cores = make([]*cpu.Core, cfg.Cores)
		m.ports = make([]*port, cfg.Cores)
		m.l1s = make([]*cache.Cache, cfg.Cores)
		m.l2s = make([]*cache.Cache, cfg.Cores)
	}
	m.injectors = m.injectors[:0]
	m.live = m.live[:0]
	if words := bitset.Words(cfg.Cores); cap(m.injectorBits) >= words {
		m.injectorBits = m.injectorBits[:words]
		m.injectorBits.Reset()
	} else {
		m.injectorBits = bitset.New(cfg.Cores)
	}
	for i := 0; i < cfg.Cores; i++ {
		if cfg.Mode == core.WCETMode && i != cfg.TuA {
			if programs[i] != nil {
				return fmt.Errorf("sim: WCET mode: core %d must be injector-driven (nil program)", i)
			}
			m.clearSlot(i)
			m.injectors = append(m.injectors, i)
			m.injectorBits.Set(i)
			continue
		}
		if programs[i] == nil {
			m.clearSlot(i)
			continue
		}
		l1cfg := cache.Config{
			Sets: cfg.L1Sets, Ways: cfg.L1Ways, LineBytes: cfg.LineBytes,
			PlacementSeed: seeds.Uint64(), ReplacementSeed: seeds.Uint64(),
		}
		l2cfg := cache.Config{
			Sets: cfg.L2Sets, Ways: cfg.L2Ways, LineBytes: cfg.LineBytes,
			WriteBack: true, AllocOnWrite: true,
			PlacementSeed: seeds.Uint64(), ReplacementSeed: seeds.Uint64(),
		}
		if err := m.reuseCache(&m.l1s[i], l1cfg); err != nil {
			return err
		}
		if err := m.reuseCache(&m.l2s[i], l2cfg); err != nil {
			return err
		}
		if m.ports[i] != nil {
			m.ports[i].reset(m.l1s[i], m.l2s[i])
		} else {
			m.ports[i] = &port{machine: m, id: i, l1: m.l1s[i], l2: m.l2s[i]}
		}
		if m.cores[i] != nil {
			m.cores[i].Rebind(programs[i])
		} else {
			m.cores[i] = cpu.NewCore(programs[i], m.ports[i])
		}
		m.live = append(m.live, m.cores[i])
	}

	if cap(m.coreNext) >= len(m.live) {
		m.coreNext = m.coreNext[:len(m.live)]
	} else {
		m.coreNext = make([]int64, len(m.live))
	}

	m.cfg = cfg
	m.cycle = 0
	m.busNext = 0
	return nil
}

// reuseCache reinitialises *slot in place when one exists, building it
// fresh otherwise.
func (m *Machine) reuseCache(slot **cache.Cache, cfg cache.Config) error {
	if *slot != nil {
		return (*slot).Reuse(cfg)
	}
	c, err := cache.New(cfg)
	if err != nil {
		return err
	}
	*slot = c
	return nil
}

// clearSlot empties core slot i (idle or injector-driven masters own no
// core, port or caches).
func (m *Machine) clearSlot(i int) {
	m.cores[i] = nil
	m.ports[i] = nil
	m.l1s[i] = nil
	m.l2s[i] = nil
}
