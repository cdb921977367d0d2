// Package bus models the non-split AMBA-style shared bus of the paper's
// platform: masters (cores) post requests that, once granted, hold the bus
// for their full duration — there are no split transactions, so a granted
// request occupies the bus for up to MaxL cycles (atomic operations and
// dirty-eviction misses being the worst case).
//
// Arbitration takes one cycle (§III.C: "arbitration decisions are performed
// in one clock cycle"): a request posted during cycle t is arbitrable from
// t+1, so an L2 hit holding the bus for 5 cycles has the paper's 6-cycle
// total turnaround. The arbitration pipeline is:
//
//	pending ∧ visible → COMP gate (Table I) → CBA budget filter → policy
//
// where the COMP gate and the CBA filter are optional; with both absent the
// bus is the paper's baseline (e.g. plain random permutations).
package bus

import (
	"fmt"
	"math/bits"

	"creditbus/internal/arbiter"
	"creditbus/internal/bitset"
	"creditbus/internal/core"
)

// Request is one bus transaction request.
type Request struct {
	// Hold is how many cycles the transaction occupies the bus once
	// granted (1..MaxHold).
	Hold int64
	// Tag is opaque to the bus and returned in completion and trace
	// callbacks; the memory hierarchy uses it to identify transactions.
	Tag uint64
}

// GrantEvent describes one grant for tracing.
type GrantEvent struct {
	Master int
	Cycle  int64 // first cycle of bus occupancy
	Hold   int64
	Wait   int64 // cycles spent arbitrable before the grant
	Tag    uint64
}

// Config assembles a bus.
type Config struct {
	// Masters is the number of bus masters. Required.
	Masters int
	// MaxHold is MaxL; Post rejects longer holds. Required.
	MaxHold int64
	// Policy is the underlying arbitration policy. Required.
	Policy arbiter.Policy
	// Credit optionally installs the CBA filter in front of Policy.
	Credit *core.Arbiter
	// Signals optionally installs the Table I COMP gate (WCET-estimation
	// mode); requires Credit.
	Signals *core.Signals
	// ArbLatency is the number of cycles between posting a request and it
	// becoming arbitrable. Defaults to 1 (the paper's registered request
	// wires). Set to -1 for 0 latency (idealised analytical scenarios).
	ArbLatency int64
	// OnComplete, if set, is called at the end of the cycle in which a
	// transaction releases the bus.
	OnComplete func(master int, tag uint64)
	// OnGrant, if set, is called for every grant (tracing).
	OnGrant func(GrantEvent)
}

// MasterStats aggregates per-master bus statistics.
type MasterStats struct {
	Requests    int64 // requests posted
	Grants      int64 // requests granted (== completed + in flight)
	HeldCycles  int64 // cycles this master occupied the bus
	WaitCycles  int64 // cycles spent arbitrable but not granted
	MaxWait     int64 // longest single-request wait
	TotalWait   int64 // sum of per-request waits
	Completions int64 // transactions fully served
}

// Bus is the non-split shared bus. Not safe for concurrent use: the
// simulator drives it from a single goroutine, one Tick per cycle.
//
// Per-master state is flat struct-of-arrays — request sets as bitsets,
// visibility/hold/tag vectors as contiguous slices — so an arbitration
// decision over n masters costs a few word-level ANDs plus the policy's
// pick over the set bits, not an O(n) scan, and the idle-bus horizon is one
// pass over the pending bits. Wait accounting is lazy (see Stats), which
// removes the per-cycle O(n) wait loops Tick and Advance used to run.
type Bus struct {
	cfg        Config
	arbLatency int64
	sched      arbiter.Scheduler // non-nil iff Policy implements Scheduler

	cycle     int64
	holder    int
	remaining int64
	holderTag uint64

	// pending marks masters with a posted, ungranted request; visible is
	// the subset whose arbitration-latency register has clocked
	// (visibleAt ≤ the cycle of the last refreshVisible). visible ⊆ pending
	// always: Post sets only pending, a grant clears both.
	pending bitset.Set
	visible bitset.Set

	// queue holds posted masters awaiting visibility, in post order. Post
	// cycles are monotone and the arbitration latency constant, so the
	// queued visibleAt values are non-decreasing: refreshVisible pops a
	// prefix instead of rescanning all masters. A master has at most one
	// queued entry — a grant requires visibility, which requires the pop,
	// before CanPost opens again — so Masters entries suffice.
	queue []int32
	qhead int
	qlen  int

	visibleAt []int64
	hold      []int64
	tag       []uint64

	eligible bitset.Set // scratch for the arbitration mask

	masterStats []MasterStats
	busyCycles  int64
	idleCycles  int64
}

// validate checks a bus configuration and resolves the arbitration latency.
func validate(cfg Config) (arbLatency int64, err error) {
	if cfg.Masters <= 0 {
		return 0, fmt.Errorf("bus: Masters = %d, need > 0", cfg.Masters)
	}
	if cfg.MaxHold <= 0 {
		return 0, fmt.Errorf("bus: MaxHold = %d, need > 0", cfg.MaxHold)
	}
	if cfg.Policy == nil {
		return 0, fmt.Errorf("bus: Policy is required")
	}
	if cfg.Credit != nil {
		if cfg.Credit.Masters() != cfg.Masters {
			return 0, fmt.Errorf("bus: Credit has %d masters, bus has %d",
				cfg.Credit.Masters(), cfg.Masters)
		}
		if cfg.Credit.MaxHold() != cfg.MaxHold {
			return 0, fmt.Errorf("bus: Credit MaxHold %d != bus MaxHold %d",
				cfg.Credit.MaxHold(), cfg.MaxHold)
		}
	}
	if cfg.Signals != nil && cfg.Credit == nil {
		return 0, fmt.Errorf("bus: Signals (COMP gate) requires Credit")
	}
	lat := cfg.ArbLatency
	switch {
	case lat == 0:
		lat = 1
	case lat == -1:
		lat = 0
	case lat < -1:
		return 0, fmt.Errorf("bus: ArbLatency = %d invalid", cfg.ArbLatency)
	}
	return lat, nil
}

// New validates cfg and builds an idle bus at cycle 0.
func New(cfg Config) (*Bus, error) {
	lat, err := validate(cfg)
	if err != nil {
		return nil, err
	}
	b := &Bus{
		cfg:         cfg,
		arbLatency:  lat,
		holder:      -1,
		pending:     bitset.New(cfg.Masters),
		visible:     bitset.New(cfg.Masters),
		queue:       make([]int32, cfg.Masters),
		visibleAt:   make([]int64, cfg.Masters),
		hold:        make([]int64, cfg.Masters),
		tag:         make([]uint64, cfg.Masters),
		eligible:    bitset.New(cfg.Masters),
		masterStats: make([]MasterStats, cfg.Masters),
	}
	b.sched, _ = cfg.Policy.(arbiter.Scheduler)
	return b, nil
}

// Reuse reinitialises the bus in place for a new configuration: the
// machine-pooling equivalent of New. Per-master state is recycled whenever
// the master count fits the existing buffers (campaigns rerun a fixed
// platform, so the steady state allocates nothing); a larger master count
// grows them once. The configuration's Policy, Credit and Signals are
// installed as given but NOT reset here — the caller owns their lifecycle
// (it may be handing over freshly reseeded components, which a blanket
// Reset would rewind to a stale seed). A reused bus is bit-identical to
// New(cfg).
func (b *Bus) Reuse(cfg Config) error {
	lat, err := validate(cfg)
	if err != nil {
		return err
	}
	words := bitset.Words(cfg.Masters)
	if cap(b.visibleAt) >= cfg.Masters && cap(b.queue) >= cfg.Masters && cap(b.pending) >= words {
		b.pending = b.pending[:words]
		b.visible = b.visible[:words]
		b.eligible = b.eligible[:words]
		b.queue = b.queue[:cfg.Masters]
		b.visibleAt = b.visibleAt[:cfg.Masters]
		b.hold = b.hold[:cfg.Masters]
		b.tag = b.tag[:cfg.Masters]
		b.masterStats = b.masterStats[:cfg.Masters]
		b.pending.Reset()
		b.visible.Reset()
		b.eligible.Reset()
		for m := 0; m < cfg.Masters; m++ {
			b.visibleAt[m] = 0
			b.hold[m] = 0
			b.tag[m] = 0
			b.masterStats[m] = MasterStats{}
		}
	} else {
		b.pending = bitset.New(cfg.Masters)
		b.visible = bitset.New(cfg.Masters)
		b.eligible = bitset.New(cfg.Masters)
		b.queue = make([]int32, cfg.Masters)
		b.visibleAt = make([]int64, cfg.Masters)
		b.hold = make([]int64, cfg.Masters)
		b.tag = make([]uint64, cfg.Masters)
		b.masterStats = make([]MasterStats, cfg.Masters)
	}
	b.qhead, b.qlen = 0, 0
	b.cfg = cfg
	b.arbLatency = lat
	b.sched, _ = cfg.Policy.(arbiter.Scheduler)
	b.cycle = 0
	b.holder = -1
	b.remaining = 0
	b.holderTag = 0
	b.busyCycles = 0
	b.idleCycles = 0
	return nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Bus {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Cycle returns the number of completed Ticks.
func (b *Bus) Cycle() int64 { return b.cycle }

// Policy exposes the installed arbitration policy — machine reuse recycles
// it (reseeding via arbiter.Reseeder) instead of rebuilding it per run.
func (b *Bus) Policy() arbiter.Policy { return b.cfg.Policy }

// SetOnGrant installs (or, with nil, removes) the per-grant observer after
// construction. Reuse replaces the whole Config, so an observer does not
// survive reinitialisation — reinstall it after every Reuse.
func (b *Bus) SetOnGrant(fn func(GrantEvent)) { b.cfg.OnGrant = fn }

// Masters returns the number of masters.
func (b *Bus) Masters() int { return b.cfg.Masters }

// Busy reports whether a transaction currently holds the bus.
func (b *Bus) Busy() bool { return b.holder >= 0 }

// Holder returns the master holding the bus, or -1.
func (b *Bus) Holder() int { return b.holder }

// CanPost reports whether master m may post a request: at most one
// not-yet-granted request per master. A master may post while its current
// transaction still holds the bus — the AMBA request line stays asserted
// during a transfer, which is what enables back-to-back grants (and models
// Table I's permanently-set contender REQ signals).
func (b *Bus) CanPost(m int) bool {
	return m >= 0 && m < b.cfg.Masters && !b.pending.Test(m)
}

// Pending reports whether master m has a posted, not-yet-granted request.
func (b *Bus) Pending(m int) bool { return b.pending.Test(m) }

// PendingWords exposes the pending set's backing words (read-only for the
// caller). The machine's injector layer diffs its injector bitset against
// it to find re-postable masters without scanning all of them.
func (b *Bus) PendingWords() bitset.Set { return b.pending }

// Arbitrable reports whether master m has a pending request that is already
// visible to the arbiter (the arbitration-latency register has clocked it).
func (b *Bus) Arbitrable(m int) bool {
	return b.pending.Test(m) && b.visibleAt[m] <= b.cycle
}

// Post submits a request for master m during the upcoming cycle; it becomes
// arbitrable ArbLatency cycles later.
func (b *Bus) Post(m int, r Request) error {
	if m < 0 || m >= b.cfg.Masters {
		return fmt.Errorf("bus: Post from master %d of %d", m, b.cfg.Masters)
	}
	if r.Hold <= 0 || r.Hold > b.cfg.MaxHold {
		return fmt.Errorf("bus: hold %d outside [1,%d]", r.Hold, b.cfg.MaxHold)
	}
	if !b.CanPost(m) {
		return fmt.Errorf("bus: master %d already has an outstanding request", m)
	}
	b.pending.Set(m)
	b.visibleAt[m] = b.cycle + 1 + b.arbLatency
	b.queue[(b.qhead+b.qlen)%len(b.queue)] = int32(m)
	b.qlen++
	b.hold[m] = r.Hold
	b.tag[m] = r.Tag
	b.masterStats[m].Requests++
	b.cfg.Policy.OnRequest(m, b.visibleAt[m])
	return nil
}

// refreshVisible clocks the visibility register up to cycle now: queued
// masters whose visibleAt has passed move into the visible set. The queue
// is ordered by visibleAt (Post cycles are monotone, the latency constant),
// so this pops a prefix and each posted request is popped exactly once over
// its lifetime.
func (b *Bus) refreshVisible(now int64) {
	for b.qlen > 0 {
		m := int(b.queue[b.qhead])
		if b.visibleAt[m] > now {
			break
		}
		b.visible.Set(m)
		b.qhead++
		if b.qhead == len(b.queue) {
			b.qhead = 0
		}
		b.qlen--
	}
}

// MustPost is Post that panics on error, for injectors with by-construction
// valid requests.
func (b *Bus) MustPost(m int, r Request) {
	if err := b.Post(m, r); err != nil {
		panic(err)
	}
}

// arbitrate computes the eligibility mask and asks the policy for a grant.
// Called only while the bus is idle, during the (single) arbitration cycle.
// The mask is pending ∧ visible ∧ COMP ∧ budget-eligible, assembled with
// word-level ANDs over the layers' bitsets; the per-master predicate it
// evaluates is identical to the old linear scan's.
func (b *Bus) arbitrate(now int64) {
	b.refreshVisible(now)
	if !b.visible.Any() {
		return
	}
	e := b.eligible
	e.CopyFrom(b.visible)
	if b.cfg.Signals != nil {
		b.cfg.Signals.AndCompeting(e)
	}
	if b.cfg.Credit != nil {
		b.cfg.Credit.AndEligible(e)
	}
	if !e.Any() {
		return
	}
	m, ok := b.cfg.Policy.PickBits(e, now)
	if !ok {
		return
	}
	if m < 0 || m >= b.cfg.Masters || !e.Test(m) {
		panic(fmt.Sprintf("bus: policy %s picked invalid master %d", b.cfg.Policy.Name(), m))
	}
	wait := now - b.visibleAt[m]
	st := &b.masterStats[m]
	st.Grants++
	st.TotalWait += wait
	if wait > st.MaxWait {
		st.MaxWait = wait
	}
	// Lazy wait accounting: the request waited cycles [visibleAt, now-1],
	// exactly the cycles the per-cycle wait loop used to count for it.
	st.WaitCycles += wait
	b.pending.Clear(m)
	b.visible.Clear(m)
	b.holder = m
	b.remaining = b.hold[m]
	b.holderTag = b.tag[m]
	b.cfg.Policy.OnGrant(m, now)
	if b.cfg.Signals != nil {
		b.cfg.Signals.OnGrant(m)
	}
	if b.cfg.OnGrant != nil {
		b.cfg.OnGrant(GrantEvent{Master: m, Cycle: now, Hold: b.hold[m], Wait: wait, Tag: b.tag[m]})
	}
}

// Tick advances the bus by one cycle: arbitrate if idle, update CBA budgets
// and COMP latches, account occupancy, and deliver completions.
func (b *Bus) Tick() {
	b.cycle++
	now := b.cycle

	// COMP latches update combinationally from REQ1 before arbitration:
	// contenders whose budget is full start competing in the very cycle
	// the TuA's request is first arbitrated (§III.B: contention is created
	// "as soon as possible").
	if b.cfg.Signals != nil {
		tua := b.cfg.Signals.TuA()
		b.cfg.Signals.Update(b.pending.Test(tua) && b.visibleAt[tua] <= now)
	}

	if b.holder < 0 {
		b.arbitrate(now)
	}

	if b.cfg.Credit != nil {
		b.cfg.Credit.Tick(b.holder)
	}

	if b.holder >= 0 {
		b.busyCycles++
		b.masterStats[b.holder].HeldCycles++
		b.remaining--
	} else {
		b.idleCycles++
	}

	// No per-master wait loop: waits accrue at grant time, and Stats adds
	// the live request's share on read.

	if b.holder >= 0 && b.remaining == 0 {
		m, tag := b.holder, b.holderTag
		b.masterStats[m].Completions++
		b.holder = -1
		if b.cfg.OnComplete != nil {
			b.cfg.OnComplete(m, tag)
		}
	}
}

// Run ticks the bus n cycles.
func (b *Bus) Run(n int64) {
	for i := int64(0); i < n; i++ {
		b.Tick()
	}
}

// NoEvent is the Horizon sentinel for "no bus-side event without external
// input": an idle bus whose pending masters can never become arbitrable on
// their own (typically none pending at all).
const NoEvent = int64(1<<63 - 1)

// Horizon returns the next cycle at which the bus's externally visible state
// can change and which must therefore be executed with a full Tick — the
// completion cycle of the transaction in flight, or, on an idle bus, the
// first cycle at which some pending master becomes arbitrable AND eligible
// (visible past the arbitration latency, over its CBA threshold, COMP-gated
// on) and the policy can pick. Every cycle strictly between Cycle() and the
// horizon is uneventful: no grant can happen (so randomised policies draw
// nothing), no completion fires, and only the linear counters move — which
// is exactly what Advance replays in closed form.
//
// The cycle arithmetic mirrors Tick's internal order: arbitration at cycle τ
// sees budgets after τ−1 credit Ticks (credit updates after arbitration
// within a Tick), and the COMP latch update at τ runs before arbitration, so
// a latch that sets at τ enables a grant at τ.
func (b *Bus) Horizon() int64 {
	if b.holder >= 0 {
		return b.cycle + b.remaining
	}
	floor := b.cycle + 1
	if b.cfg.Credit == nil && b.cfg.Signals == nil && b.sched == nil {
		// Plain work-conserving bus: any visible master can be picked on
		// the very next cycle, and with none visible the earliest event is
		// the visibility queue's head (minimal over pending masters — the
		// queue is visibleAt-ordered). O(words), no per-master pass.
		b.refreshVisible(b.cycle)
		if b.visible.Any() {
			return floor
		}
		if b.qlen > 0 {
			return b.visibleAt[int(b.queue[b.qhead])]
		}
		return NoEvent
	}
	best := NoEvent
	for w, word := range b.pending {
		for word != 0 {
			m := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			t := b.visibleAt[m]
			if t < floor {
				t = floor
			}
			if b.cfg.Credit != nil {
				// On an idle bus every budget refills each cycle, so the
				// eligibility crossing is a fixed future cycle.
				if k := b.cfg.Credit.CyclesUntilEligible(m); k > 0 {
					if c := floor + k; c > t {
						t = c
					}
				}
			}
			if b.cfg.Signals != nil && !b.cfg.Signals.Competing(m) {
				// WCET-mode contender whose COMP latch is not set: the latch
				// needs a saturated budget while the TuA has a request ready.
				// If the TuA is not even pending, the latch cannot set before
				// the TuA posts — and posting is a machine-level event that
				// re-computes horizons — so m contributes no bus event now.
				tua := b.cfg.Signals.TuA()
				if !b.pending.Test(tua) {
					continue
				}
				s := b.visibleAt[tua]
				if k := b.cfg.Credit.CyclesUntilSaturated(m); k > 0 {
					if c := floor + k; c > s {
						s = c
					}
				}
				if s > t {
					t = s
				}
			}
			if b.sched != nil {
				t = b.sched.NextPickCycle(t)
			}
			if t < best {
				best = t
			}
		}
	}
	return best
}

// Advance replays n uneventful cycles in closed form: occupancy, wait and
// credit counters move exactly as n Ticks would, but no arbitration,
// completion, COMP-latch or policy interaction takes place. The caller must
// guarantee the cycles really are uneventful, i.e. Cycle()+n < Horizon();
// violating the contract with a transaction in flight panics, because a
// skipped completion would corrupt the simulation silently.
//
// COMP latches are deliberately not advanced: their set condition (budget
// saturated ∧ TuA request ready) is monotone over an uneventful window —
// budgets of non-holders only refill and no grant clears anything — so the
// single Signals.Update of the next full Tick lands the latches in exactly
// the per-cycle state.
func (b *Bus) Advance(n int64) {
	if n <= 0 {
		if n == 0 {
			return
		}
		panic(fmt.Sprintf("bus: Advance(%d)", n))
	}
	if b.holder >= 0 {
		if n >= b.remaining {
			panic(fmt.Sprintf("bus: Advance(%d) past completion in %d", n, b.remaining))
		}
		b.busyCycles += n
		b.masterStats[b.holder].HeldCycles += n
		b.remaining -= n
	} else {
		b.idleCycles += n
	}
	if b.cfg.Credit != nil {
		b.cfg.Credit.TickN(b.holder, n)
	}
	b.cycle += n
	// Wait counters need no replay: lazy accounting recovers the window's
	// share at grant time (or in Stats for a still-pending request).
}

// Stats returns a copy of master m's statistics. WaitCycles for granted
// requests accrues at grant time; a still-pending visible request has
// waited cycles [visibleAt, cycle] — the live component added here — so the
// returned counters match the per-cycle accounting at every read point.
func (b *Bus) Stats(m int) MasterStats {
	st := b.masterStats[m]
	if b.pending.Test(m) {
		if v := b.visibleAt[m]; v <= b.cycle {
			st.WaitCycles += b.cycle - v + 1
		}
	}
	return st
}

// BusyCycles returns the number of cycles the bus was occupied.
func (b *Bus) BusyCycles() int64 { return b.busyCycles }

// IdleCycles returns the number of cycles the bus was free.
func (b *Bus) IdleCycles() int64 { return b.idleCycles }

// Utilisation returns busy cycles over total cycles (0 before any Tick).
func (b *Bus) Utilisation() float64 {
	if b.cycle == 0 {
		return 0
	}
	return float64(b.busyCycles) / float64(b.cycle)
}

// CycleShare returns the fraction of all elapsed cycles master m held the
// bus — the quantity CBA makes fair.
func (b *Bus) CycleShare(m int) float64 {
	if b.cycle == 0 {
		return 0
	}
	return float64(b.masterStats[m].HeldCycles) / float64(b.cycle)
}

// SlotShare returns master m's fraction of all grants — the quantity
// slot-fair policies make fair.
func (b *Bus) SlotShare(m int) float64 {
	var total int64
	for i := range b.masterStats {
		total += b.masterStats[i].Grants
	}
	if total == 0 {
		return 0
	}
	return float64(b.masterStats[m].Grants) / float64(total)
}
