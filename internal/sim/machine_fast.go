package sim

import (
	"creditbus/internal/bus"
	"creditbus/internal/cpu"
)

// This file is the event-horizon stepping engine: instead of ticking every
// component once per simulated cycle, the machine asks each component for
// the next cycle at which its externally visible state can change, advances
// all the uneventful cycles in between in closed form, and executes only the
// event cycle itself as a full per-cycle Tick.
//
// The horizon of each component:
//
//   - a core: the tick at which it next consumes an operation (aluLeft+1, an
//     ALU burst being pre-merged by cpu.Core.NextEventIn), or never while it
//     is stalled on memory or finished;
//   - a WCET contention injector: nothing — its re-post after a grant is
//     folded into the step boundary (postInjectors), where the Post
//     bookkeeping is cycle-for-cycle identical to the per-cycle engine's;
//   - the bus: the completion cycle of the transaction in flight, or — idle —
//     the first cycle a pending master clears visibility, CBA eligibility and
//     the COMP gate simultaneously, pushed to the next slot boundary for
//     TDMA (bus.Horizon).
//
// Every skipped cycle is provably uneventful: no operation issues, no
// request posts, no arbitration can succeed and no completion fires. In
// particular Policy.PickBits is never invoked during a skipped cycle (the
// bus calls it only when some master is eligible, and the bus horizon is
// exactly the first such cycle), so randomised policies — lottery, random
// permutations — draw their random numbers at precisely the same cycles, in
// the same order, as under per-cycle stepping. Budgets refill by the closed
// form of Eq. 1, min(b + Δ·w_i, cap); occupancy, wait and stall counters
// advance linearly. The result is bit-identical simulation (asserted by
// differential_test.go across every policy × credit kind × mode) at a
// fraction of the work during 28/56-cycle bus holds, long ALU bursts and
// credit refill gaps.

// Step advances the machine by one event step: all uneventful cycles up to
// the next component horizon in bulk, then the event cycle itself as a full
// Tick. It advances at least one cycle. Driving a machine with any mix of
// Step and Tick is valid — Step merely skips what Tick would have done
// anyway.
func (m *Machine) Step() {
	m.stepWithin(bus.NoEvent)
}

// stepWithin is Step bounded by a cycle limit: when the next event lies past
// the limit it only advances (bulk) up to the limit and leaves the event
// unexecuted, so Runner.Run's deadlock guard trips at exactly the same cycle
// count as under per-cycle stepping.
//
// The event cycle itself runs as a full Tick only when the bus needs it
// (its horizon is the event). An event forced by a core alone — consuming an
// operation, possibly posting a request — runs as coreTick: the cores tick
// per-cycle but the bus advances by closed form, which is bit-identical
// because before the bus horizon no arbitration can succeed, a request
// posted this cycle is not arbitrable until the arbitration latency has
// passed (so it cannot create an event this cycle), and the COMP latches
// stay monotone until the next full Tick's Signals.Update.
func (m *Machine) stepWithin(limit int64) {
	m.postInjectors()
	next := m.nextEventCycle()
	if next > limit {
		if n := limit - m.cycle; n > 0 {
			m.advance(n)
		}
		return
	}
	if next == bus.NoEvent {
		// No component can ever act again (every program finished, or a
		// deadlocked configuration) and the caller set no limit: advance a
		// single reference cycle instead of bulk-jumping to the sentinel,
		// so a bare Step loop ticks an idle machine one cycle at a time
		// exactly like Tick would.
		m.Tick()
		return
	}
	if skip := next - m.cycle - 1; skip > 0 {
		m.advance(skip)
	}
	if m.busNext <= next {
		wasBusy := m.sharedBus.Busy()
		m.Tick()
		// A completion is almost always followed by an arbitration that
		// grants (the paper's scenarios keep the bus saturated), so run the
		// next cycle as a full Tick straight away rather than paying a
		// horizon recomputation to discover it. An exact Tick is always
		// bit-identical — only skipping cycles needs proof — so this is
		// pure heuristic; the guard keeps the run loops' exit cycle counts
		// untouched (they stop on Done / TuA-done between steps).
		if wasBusy && !m.sharedBus.Busy() && m.cycle < limit && !m.stepDone() {
			m.Tick()
		}
		return
	}
	m.cycle++
	for _, c := range m.live {
		c.Tick()
	}
	m.sharedBus.Advance(1)
}

// stepDone reports whether a run loop could stop at the current cycle: the
// whole machine is done, or the task under analysis is (Runner.Run's
// condition). stepWithin must not advance past such a cycle on its own.
func (m *Machine) stepDone() bool {
	if tua := m.cores[m.cfg.TuA]; tua != nil && tua.Done() {
		return true
	}
	return m.Done()
}

// postInjectors re-posts the request line of any injector whose previous
// request was just granted, attributing the post to the upcoming cycle.
// Under per-cycle stepping the re-post happens inside the next Tick (cycle
// m.cycle+1, before the bus advances), so Post computes visibleAt from the
// same bus cycle either way and the bookkeeping is bit-identical; doing it
// at the step boundary means the re-post cycle needs no exact Tick of its
// own and the bulk window can run straight through it. This relies on
// Policy.OnRequest being insensitive to call order within a cycle, which
// holds for every policy in this module (FIFO records only the arrival
// cycle; the others ignore OnRequest).
func (m *Machine) postInjectors() {
	m.repostInjectors()
}

// step advances by one engine-appropriate step: a single Tick under
// ForcePerCycle, an event step otherwise.
func (m *Machine) step(limit int64) {
	if m.cfg.ForcePerCycle {
		m.Tick()
		return
	}
	m.stepWithin(limit)
}

// nextEventCycle returns the earliest cycle any component needs per-cycle
// handling, recording the bus's own horizon in m.busNext so the step can
// tell a bus event from a core-only event. It is ≥ m.cycle+1; bus.NoEvent
// means no component can act without external input (a genuine deadlock —
// Runner.Run's limit guard handles it).
func (m *Machine) nextEventCycle() int64 {
	// Two passes: gather every live core's relative horizon into the flat
	// scratch vector, then take the min over contiguous memory. At large
	// populations the gather is the only part that chases pointers; the min
	// is a straight-line sweep the hardware prefetcher can stream.
	for i, c := range m.live {
		m.coreNext[i] = c.NextEventIn()
	}
	next := bus.NoEvent
	for _, in := range m.coreNext {
		if in != cpu.NoEvent {
			if at := m.cycle + in; at < next {
				next = at
			}
		}
	}
	m.busNext = m.sharedBus.Horizon()
	if m.busNext < next {
		next = m.busNext
	}
	return next
}

// advance replays n guaranteed-uneventful cycles in closed form across every
// component. The machine and bus cycle counters stay in lockstep, as under
// Tick.
func (m *Machine) advance(n int64) {
	m.cycle += n
	for _, c := range m.live {
		c.AdvanceIdle(n)
	}
	m.sharedBus.Advance(n)
}
