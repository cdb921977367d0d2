package bus

import (
	"math"
	"strings"
	"testing"

	"creditbus/internal/arbiter"
	"creditbus/internal/bitset"
	"creditbus/internal/core"
)

// saturate keeps the listed masters always requesting with fixed holds:
// whenever a master can post, it posts. Runs the bus for n cycles.
func saturate(b *Bus, holds map[int]int64, n int64) {
	for i := int64(0); i < n; i++ {
		for m, h := range holds {
			if b.CanPost(m) {
				b.MustPost(m, Request{Hold: h})
			}
		}
		b.Tick()
	}
}

func TestConfigValidation(t *testing.T) {
	rr := arbiter.NewRoundRobin(4)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"masters", Config{Masters: 0, MaxHold: 56, Policy: rr}, "Masters"},
		{"maxhold", Config{Masters: 4, MaxHold: 0, Policy: rr}, "MaxHold"},
		{"policy", Config{Masters: 4, MaxHold: 56}, "Policy"},
		{"credit masters", Config{Masters: 2, MaxHold: 56, Policy: rr,
			Credit: core.MustNew(core.Homogeneous(4, 56))}, "masters"},
		{"credit maxhold", Config{Masters: 4, MaxHold: 56, Policy: rr,
			Credit: core.MustNew(core.Homogeneous(4, 28))}, "MaxHold"},
		{"signals need credit", Config{Masters: 4, MaxHold: 56, Policy: rr,
			Signals: core.NewSignals(core.MustNew(core.Homogeneous(4, 56)), core.WCETMode, 0)}, "Credit"},
		{"arb latency", Config{Masters: 4, MaxHold: 56, Policy: rr, ArbLatency: -2}, "ArbLatency"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("New error = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestPostValidation(t *testing.T) {
	b := MustNew(Config{Masters: 2, MaxHold: 10, Policy: arbiter.NewRoundRobin(2)})
	if err := b.Post(2, Request{Hold: 5}); err == nil {
		t.Error("post from out-of-range master accepted")
	}
	if err := b.Post(0, Request{Hold: 0}); err == nil {
		t.Error("zero hold accepted")
	}
	if err := b.Post(0, Request{Hold: 11}); err == nil {
		t.Error("hold above MaxHold accepted")
	}
	if err := b.Post(0, Request{Hold: 5}); err != nil {
		t.Fatalf("valid post rejected: %v", err)
	}
	if err := b.Post(0, Request{Hold: 5}); err == nil {
		t.Error("double post accepted")
	}
}

func TestSingleTransactionTiming(t *testing.T) {
	// Post during cycle 1, 1-cycle arbitration latency, 5-cycle hold:
	// granted at cycle 2, completes at the end of cycle 6 — the paper's
	// 6-cycle L2-hit turnaround.
	var completedAt int64 = -1
	var b *Bus
	b = MustNew(Config{
		Masters: 4, MaxHold: 56, Policy: arbiter.NewRoundRobin(4),
		OnComplete: func(m int, tag uint64) {
			if m != 1 || tag != 99 {
				t.Errorf("completion m=%d tag=%d, want 1,99", m, tag)
			}
			completedAt = b.Cycle()
		},
	})
	b.MustPost(1, Request{Hold: 5, Tag: 99})
	b.Run(10)
	if completedAt != 6 {
		t.Fatalf("completed at cycle %d, want 6", completedAt)
	}
	st := b.Stats(1)
	if st.Grants != 1 || st.Completions != 1 || st.HeldCycles != 5 || st.MaxWait != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroArbLatency(t *testing.T) {
	var completedAt int64 = -1
	var b *Bus
	b = MustNew(Config{
		Masters: 2, MaxHold: 56, Policy: arbiter.NewRoundRobin(2), ArbLatency: -1,
		OnComplete: func(int, uint64) { completedAt = b.Cycle() },
	})
	b.MustPost(0, Request{Hold: 5})
	b.Run(10)
	if completedAt != 5 {
		t.Fatalf("completed at cycle %d, want 5 with zero arbitration latency", completedAt)
	}
}

// TestSlotFairnessIsCycleUnfair reproduces the §I/§II phenomenon at bus
// level: under round-robin, a 5-cycle master against three 45-cycle masters
// receives an equal share of slots but only ~3.6% of the cycles.
func TestSlotFairnessIsCycleUnfair(t *testing.T) {
	b := MustNew(Config{Masters: 4, MaxHold: 56, Policy: arbiter.NewRoundRobin(4)})
	holds := map[int]int64{0: 5, 1: 45, 2: 45, 3: 45}
	saturate(b, holds, 280_000)
	// Slot shares: equal within tolerance.
	for m := 0; m < 4; m++ {
		if s := b.SlotShare(m); math.Abs(s-0.25) > 0.01 {
			t.Errorf("slot share of master %d = %.4f, want ~0.25", m, s)
		}
	}
	// Cycle share of the short master: 5/(5+3*45) = 0.0357.
	want := 5.0 / 140.0
	if s := b.CycleShare(0); math.Abs(s-want) > 0.005 {
		t.Errorf("cycle share of short master = %.4f, want ~%.4f", s, want)
	}
	if u := b.Utilisation(); u < 0.99 {
		t.Errorf("utilisation %.4f under saturation, want ~1", u)
	}
}

// TestCBARestoresCycleFairness attaches the CBA filter and checks that the
// same workload now yields cycle shares bounded by 1/N for the streaming
// masters — the long-request masters can no longer hog the bus.
func TestCBARestoresCycleFairness(t *testing.T) {
	credit := core.MustNew(core.Homogeneous(4, 56))
	b := MustNew(Config{
		Masters: 4, MaxHold: 56,
		Policy: arbiter.NewRoundRobin(4),
		Credit: credit,
	})
	holds := map[int]int64{0: 5, 1: 45, 2: 45, 3: 45}
	saturate(b, holds, 280_000)
	for m := 1; m < 4; m++ {
		if s := b.CycleShare(m); s > 0.26 {
			t.Errorf("long master %d cycle share %.4f exceeds CBA cap 0.25", m, s)
		}
	}
	// The short master's share must improve by a wide margin over the
	// slot-fair 0.0357 (the fluid limit is 0.25; waiting out 45-cycle
	// residuals keeps it near 0.08 with deterministic RR tie-breaking).
	if s := b.CycleShare(0); s < 2*0.0357 {
		t.Errorf("short master cycle share %.4f, want ≥ 2× the slot-fair 0.036", s)
	}
	if credit.Underflows() != 0 {
		t.Errorf("budget underflows: %d", credit.Underflows())
	}
}

// TestIllustrativeExampleRoundRobin is the §II arithmetic at bus level: a
// TuA alternating 6-cycle requests with 3 saturating 28-cycle streamers
// under round-robin waits 84 cycles per request.
func TestIllustrativeExampleRoundRobin(t *testing.T) {
	b := MustNew(Config{Masters: 4, MaxHold: 56, Policy: arbiter.NewRoundRobin(4), ArbLatency: -1})
	holds := map[int]int64{0: 6, 1: 28, 2: 28, 3: 28}
	saturate(b, holds, 90_000)
	st := b.Stats(0)
	if st.Completions < 900 {
		t.Fatalf("TuA completions = %d, want ~1000 (period 90)", st.Completions)
	}
	avgWait := float64(st.TotalWait) / float64(st.Grants)
	// Steady-state wait: 3×28 = 84 behind the three streamers, plus a few
	// cycles because the TuA reposts while still holding the bus (the
	// request becomes visible mid-hold, so its measured wait starts
	// earlier than the completion).
	if avgWait < 82 || avgWait > 92 {
		t.Errorf("TuA average wait = %.1f, want ~84..90", avgWait)
	}
}

func TestTDMAOnBusGrantsOnlyAtSlotStarts(t *testing.T) {
	var grants []GrantEvent
	b := MustNew(Config{
		Masters: 2, MaxHold: 10,
		Policy:  arbiter.NewTDMA(2, 10),
		OnGrant: func(e GrantEvent) { grants = append(grants, e) },
	})
	saturate(b, map[int]int64{0: 3, 1: 10}, 200)
	if len(grants) == 0 {
		t.Fatal("no TDMA grants")
	}
	for _, g := range grants {
		if g.Cycle%10 != 0 {
			t.Errorf("grant at cycle %d is not a slot start", g.Cycle)
		}
		owner := int(g.Cycle / 10 % 2)
		if g.Master != owner {
			t.Errorf("cycle %d granted to %d, slot owner is %d", g.Cycle, g.Master, owner)
		}
	}
	// TDMA wastes the remainder of short-request slots: utilisation < 1.
	if u := b.Utilisation(); u > 0.99 {
		t.Errorf("TDMA utilisation %.3f; expected idle time from 3-cycle requests in 10-cycle slots", u)
	}
}

// TestWorkConservation: with a work-conserving policy and no CBA, the bus is
// never idle while an arbitrable request exists.
func TestWorkConservation(t *testing.T) {
	b := MustNew(Config{Masters: 3, MaxHold: 20, Policy: arbiter.NewRoundRobin(3)})
	idleWithArbitrable := 0
	for i := int64(0); i < 10_000; i++ {
		for m := 0; m < 3; m++ {
			if b.CanPost(m) {
				b.MustPost(m, Request{Hold: int64(3 + m*5)})
			}
		}
		// A master arbitrable before the tick is still arbitrable during
		// it; if the coming cycle is idle anyway, work conservation broke.
		anyArb := false
		for m := 0; m < 3; m++ {
			anyArb = anyArb || b.Arbitrable(m)
		}
		idleBefore := b.IdleCycles()
		b.Tick()
		if anyArb && b.IdleCycles() > idleBefore {
			idleWithArbitrable++
		}
	}
	if idleWithArbitrable > 0 {
		t.Errorf("bus idle on %d cycles with arbitrable requests", idleWithArbitrable)
	}
}

func TestCompGateBlocksContendersUntilTuARequests(t *testing.T) {
	// WCET mode: contenders (masters 1..3) post constantly, but COMP keeps
	// them out of arbitration until the TuA (master 0) has a request
	// pending. The first contender grant must not precede the first TuA
	// post becoming visible.
	credit := core.MustNew(core.Config{
		Masters: 4, MaxHold: 56,
		StartEmpty: []bool{true, false, false, false},
	})
	signals := core.NewSignals(credit, core.WCETMode, 0)
	var first *GrantEvent
	b := MustNew(Config{
		Masters: 4, MaxHold: 56,
		Policy:  arbiter.NewRoundRobin(4),
		Credit:  credit,
		Signals: signals,
		OnGrant: func(e GrantEvent) {
			if first == nil {
				g := e
				first = &g
			}
		},
	})
	// Contenders saturate for 300 cycles with no TuA activity: nothing may
	// be granted.
	saturate(b, map[int]int64{1: 56, 2: 56, 3: 56}, 300)
	if first != nil {
		t.Fatalf("contender granted at cycle %d before any TuA request", first.Cycle)
	}
	// TuA posts; its budget started empty and already refilled during the
	// 300 idle cycles, so it is eligible. Contenders' COMP bits latch.
	b.MustPost(0, Request{Hold: 6})
	saturate(b, map[int]int64{1: 56, 2: 56, 3: 56}, 400)
	if first == nil {
		t.Fatal("nothing granted after TuA request")
	}
	st := b.Stats(0)
	if st.Completions != 1 {
		t.Fatalf("TuA completions = %d, want 1", st.Completions)
	}
	// With COMP latched, contenders do compete: at least one contender
	// grant must have happened while the TuA was waiting or after.
	contGrants := int64(0)
	for m := 1; m < 4; m++ {
		contGrants += b.Stats(m).Grants
	}
	if contGrants == 0 {
		t.Error("contenders never competed after COMP latched")
	}
}

func TestResetReproducibility(t *testing.T) {
	run := func(b *Bus) (int64, int64) {
		saturate(b, map[int]int64{0: 5, 1: 30, 2: 56, 3: 17}, 50_000)
		return b.Stats(0).Completions, b.BusyCycles()
	}
	cfg := Config{
		Masters: 4, MaxHold: 56,
		Policy: arbiter.NewRandomPermutation(4, 12345),
		Credit: core.MustNew(core.Homogeneous(4, 56)),
	}
	b := MustNew(cfg)
	c1, busy1 := run(b)
	// Reuse restarts the bus; the caller owns the components' lifecycle.
	cfg.Policy.Reset()
	cfg.Credit.Reset()
	if err := b.Reuse(cfg); err != nil {
		t.Fatal(err)
	}
	if b.Cycle() != 0 || b.Busy() || b.Stats(0).Requests != 0 {
		t.Fatal("Reuse left state behind")
	}
	c2, busy2 := run(b)
	if c1 != c2 || busy1 != busy2 {
		t.Fatalf("runs after Reuse diverge: completions %d vs %d, busy %d vs %d", c1, c2, busy1, busy2)
	}
}

func TestWaitAccounting(t *testing.T) {
	// Master 1 posts while master 0 holds the bus for 20 cycles; its wait
	// must equal the cycles between becoming arbitrable and its grant.
	b := MustNew(Config{Masters: 2, MaxHold: 56, Policy: arbiter.NewRoundRobin(2)})
	b.MustPost(0, Request{Hold: 20})
	b.Run(3) // master 0 granted at cycle 2, holds 2..21
	b.MustPost(1, Request{Hold: 5})
	// Master 1 visible at cycle 5 (posted during cycle 4), granted at 22.
	b.Run(30)
	st := b.Stats(1)
	if st.Grants != 1 {
		t.Fatalf("grants = %d, want 1", st.Grants)
	}
	if st.MaxWait != 17 {
		t.Errorf("MaxWait = %d, want 17 (visible cycle 5, granted cycle 22)", st.MaxWait)
	}
	if st.WaitCycles != 17 {
		t.Errorf("WaitCycles = %d, want 17", st.WaitCycles)
	}
}

type badPolicy struct{}

func (badPolicy) Name() string                           { return "BAD" }
func (badPolicy) OnRequest(int, int64)                   {}
func (badPolicy) PickBits(bitset.Set, int64) (int, bool) { return 3, true } // always picks 3
func (badPolicy) OnGrant(int, int64)                     {}
func (badPolicy) Reset()                                 {}

func TestPolicyMisbehaviourPanics(t *testing.T) {
	b := MustNew(Config{Masters: 4, MaxHold: 10, Policy: badPolicy{}})
	b.MustPost(0, Request{Hold: 5}) // only master 0 eligible; policy picks 3
	defer func() {
		if recover() == nil {
			t.Fatal("bus accepted an ineligible pick")
		}
	}()
	b.Run(5)
}

func TestStarvationFreedomUnderCBA(t *testing.T) {
	// Every master saturating with mixed holds: no master's single-request
	// wait may exceed the arbiter's conservative bound.
	credit := core.MustNew(core.Homogeneous(4, 56))
	b := MustNew(Config{
		Masters: 4, MaxHold: 56,
		Policy: arbiter.NewRandomPermutation(4, 99),
		Credit: credit,
	})
	saturate(b, map[int]int64{0: 5, 1: 56, 2: 33, 3: 56}, 500_000)
	for m := 0; m < 4; m++ {
		st := b.Stats(m)
		if st.Completions == 0 {
			t.Errorf("master %d starved: no completions", m)
		}
		if bound := credit.WorstCaseWait(m); st.MaxWait > bound {
			t.Errorf("master %d max wait %d exceeds bound %d", m, st.MaxWait, bound)
		}
	}
}
