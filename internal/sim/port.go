package sim

import (
	"fmt"

	"creditbus/internal/bus"
	"creditbus/internal/cache"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
)

// stallReason records why a core is blocked on its port.
type stallReason int

const (
	stallNone     stallReason = iota
	stallLoad                 // waiting for a load transaction
	stallAtomic               // waiting for an atomic transaction (and prior stores)
	stallStoreBuf             // store buffer full
)

// inflightKind tags the single outstanding bus transaction of this master.
type inflightKind int

const (
	inflightNone inflightKind = iota
	inflightLoad
	inflightStore
	inflightAtomic
)

// port is one core's data-side memory interface: private write-through L1,
// a store buffer, and a single-outstanding-transaction window onto the
// shared bus backed by the core's L2 partition and the memory controller.
//
// Ordering model (documented simplifications of the LEON3 data path):
// loads may bypass buffered stores (no forwarding hazards are modelled);
// atomics drain the store buffer before issuing; one bus transaction per
// master can be outstanding, so a load arriving while a store transaction is
// in flight waits for it.
type port struct {
	machine *Machine
	id      int
	l1      *cache.Cache
	l2      *cache.Cache

	storeBuf     []uint64 // queued store addresses (head first)
	blockedStore uint64   // store the core is stalled on (storeBuf full)
	inflight     inflightKind
	inflightAddr uint64
	pendingLoad  uint64 // load waiting for the master slot
	hasPending   bool
	pendingAtom  uint64 // atomic waiting for slot + drained stores
	hasAtomic    bool
	stall        stallReason
}

var _ cpu.Port = (*port)(nil)

// Begin implements cpu.Port.
func (p *port) Begin(op cpu.Op) bool {
	switch op.Kind {
	case cpu.OpLoad:
		if p.l1.Access(op.Addr, false).Hit {
			return true
		}
		p.pendingLoad, p.hasPending = op.Addr, true
		p.stall = stallLoad
		p.issue()
		return false
	case cpu.OpStore:
		// Write-through: update L1 if present (no allocate), then buffer
		// the bus write.
		p.l1.Access(op.Addr, true)
		if len(p.storeBuf) >= p.machine.cfg.StoreBufferDepth {
			p.blockedStore = op.Addr
			p.stall = stallStoreBuf
			p.issue()
			return false
		}
		p.storeBuf = append(p.storeBuf, op.Addr)
		p.issue()
		return true
	case cpu.OpAtomic:
		p.pendingAtom, p.hasAtomic = op.Addr, true
		p.stall = stallAtomic
		p.issue()
		return false
	default:
		panic(fmt.Sprintf("sim: port.Begin with op kind %v", op.Kind))
	}
}

// issue posts the next transaction if the master slot is free. Priority:
// the stalling load first (the core is blocked on it), then buffered
// stores, then the atomic once the store buffer has drained.
func (p *port) issue() {
	if p.inflight != inflightNone || !p.machine.sharedBus.CanPost(p.id) {
		return
	}
	switch {
	case p.hasPending:
		addr := p.pendingLoad
		kind := p.classifyLoad(addr)
		p.post(inflightLoad, addr, kind)
	case len(p.storeBuf) > 0:
		addr := p.storeBuf[0]
		kind := p.classifyStore(addr)
		p.post(inflightStore, addr, kind)
	case p.hasAtomic:
		p.post(inflightAtomic, p.pendingAtom, mem.AtomicRMW)
	}
}

// classifyLoad performs the L2 side of a load miss and returns the bus
// transaction kind. The partition is private to this core, so applying the
// state change at post time is equivalent to applying it at completion.
func (p *port) classifyLoad(addr uint64) mem.Kind {
	res := p.l2.Access(addr, false)
	switch {
	case res.Hit:
		return mem.L2ReadHit
	case res.EvictedDirty:
		return mem.MissDirty
	default:
		return mem.MissClean
	}
}

// classifyStore performs the L2 side of a buffered store (write-back,
// write-allocate partition).
func (p *port) classifyStore(addr uint64) mem.Kind {
	res := p.l2.Access(addr, true)
	switch {
	case res.Hit:
		return mem.L2WriteHit
	case res.EvictedDirty:
		return mem.MissDirty
	default:
		return mem.MissClean
	}
}

func (p *port) post(kind inflightKind, addr uint64, k mem.Kind) {
	hold := p.machine.memctl.Price(k)
	p.inflight = kind
	p.inflightAddr = addr
	p.machine.sharedBus.MustPost(p.id, bus.Request{Hold: hold, Tag: uint64(k)})
}

// onComplete handles this master's bus transaction completion.
func (p *port) onComplete() {
	done := p.inflight
	addr := p.inflightAddr
	p.inflight = inflightNone

	switch done {
	case inflightLoad:
		p.l1.Fill(addr)
		p.hasPending = false
		if p.stall == stallLoad {
			p.stall = stallNone
			p.machine.cores[p.id].Resume()
		}
	case inflightStore:
		// Pop by shifting down instead of re-slicing from the front: the
		// backing array stays anchored, so the buffer reaches its depth
		// capacity once and then never allocates again (the campaign hot
		// path is allocation-free after warm-up).
		n := copy(p.storeBuf, p.storeBuf[1:])
		p.storeBuf = p.storeBuf[:n]
		if p.stall == stallStoreBuf {
			p.storeBuf = append(p.storeBuf, p.blockedStore)
			p.stall = stallNone
			p.machine.cores[p.id].Resume()
		}
	case inflightAtomic:
		p.hasAtomic = false
		if p.stall == stallAtomic {
			p.stall = stallNone
			p.machine.cores[p.id].Resume()
		}
	default:
		panic("sim: completion with no transaction in flight")
	}
	p.issue()
}

// reset returns the port to its just-built state for a new run, keeping the
// machine binding and the store buffer's backing array (machine reuse must
// not allocate). l1/l2 rebind the caches, which reuse may have rebuilt.
func (p *port) reset(l1, l2 *cache.Cache) {
	p.l1, p.l2 = l1, l2
	p.storeBuf = p.storeBuf[:0]
	p.blockedStore = 0
	p.inflight = inflightNone
	p.inflightAddr = 0
	p.pendingLoad, p.hasPending = 0, false
	p.pendingAtom, p.hasAtomic = 0, false
	p.stall = stallNone
}

// drained reports whether the port has no queued or in-flight work.
func (p *port) drained() bool {
	return p.inflight == inflightNone && !p.hasPending && !p.hasAtomic &&
		len(p.storeBuf) == 0 && p.stall == stallNone
}
