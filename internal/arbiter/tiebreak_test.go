package arbiter

import (
	"testing"
	"testing/quick"
)

// This file pins the tie-breaking order of every policy — who wins when
// several masters are simultaneously eligible — and the Scheduler contract
// at slot-boundary horizon edges (the TDMA push path the event-horizon
// engine relies on). The generic contract tests in arbiter_test.go check
// that picks are legal; these check that they are the *documented* ones.

func TestRoundRobinTieBreakFollowsPriorityPointer(t *testing.T) {
	rr := NewRoundRobin(4)
	// Fresh policy: pointer at 0, so 0 beats every simultaneous rival.
	if m, ok := pick(rr, allEligible(4), 0); !ok || m != 0 {
		t.Fatalf("fresh pick = %d,%v, want 0", m, ok)
	}
	// After a grant to m, m+1 outranks everyone — including m itself.
	for _, grant := range []int{2, 3, 0} {
		rr.OnGrant(grant, 0)
		want := (grant + 1) % 4
		if m, ok := pick(rr, allEligible(4), 0); !ok || m != want {
			t.Fatalf("after grant to %d: pick = %d,%v, want %d", grant, m, ok, want)
		}
	}
	// The scan wraps: pointer at 3 with only masters 0 and 2 eligible picks
	// 0 (first from 3 going 3→0→1→2).
	rr.OnGrant(2, 0) // pointer = 3
	if m, ok := pick(rr, []bool{true, false, true, false}, 0); !ok || m != 0 {
		t.Fatalf("wrap-around pick = %d,%v, want 0", m, ok)
	}
}

func TestFixedPriorityTieBreakIsIndexOrder(t *testing.T) {
	p := NewFixedPriority(5)
	for lowest := 0; lowest < 5; lowest++ {
		e := make([]bool, 5)
		for m := lowest; m < 5; m++ {
			e[m] = true
		}
		if m, ok := pick(p, e, 0); !ok || m != lowest {
			t.Fatalf("eligible {%d..4}: pick = %d,%v, want %d", lowest, m, ok, lowest)
		}
		// Grants never shift fixed priorities.
		p.OnGrant(4, 0)
	}
}

func TestFIFOThreeWayTieBreaksByIndexNotCallOrder(t *testing.T) {
	f := NewFIFO(4)
	// Same arrival cycle recorded in descending master order: the pick order
	// must still be ascending master index, then the later arrival.
	f.OnRequest(3, 10)
	f.OnRequest(1, 10)
	f.OnRequest(2, 10)
	f.OnRequest(0, 11)
	e := allEligible(4)
	for _, want := range []int{1, 2, 3, 0} {
		m, ok := pick(f, e, 12)
		if !ok || m != want {
			t.Fatalf("pick = %d,%v, want %d", m, ok, want)
		}
		f.OnGrant(m, 12)
		e[m] = false
	}
}

func TestLotterySingleEligibleIgnoresTickets(t *testing.T) {
	// With one competitor the draw is forced, whatever the weights — and it
	// must still consume deterministic rng so same-seed runs stay aligned.
	a := NewLottery(3, []int64{1, 1000, 1}, 5)
	b := NewLottery(3, []int64{1, 1000, 1}, 5)
	for i := int64(0); i < 50; i++ {
		only := int(i) % 3
		e := make([]bool, 3)
		e[only] = true
		ma, ok := pick(a, e, i)
		if !ok || ma != only {
			t.Fatalf("single eligible %d: pick = %d,%v", only, ma, ok)
		}
		if mb, _ := pick(b, e, i); mb != ma {
			t.Fatal("same-seed lotteries diverged on forced picks")
		}
	}
}

func TestRandomPermutationTieBreakIsPermutationOrder(t *testing.T) {
	// Within a round, the winner among simultaneous rivals is the one
	// earliest in the drawn permutation: grant the full round under full
	// contention, then replay the same seed pairwise — every pairwise pick
	// must match the full-round order.
	const n = 4
	p := NewRandomPermutation(n, 17)
	order := make([]int, 0, n)
	e := allEligible(n)
	for i := 0; i < n; i++ {
		m, ok := pick(p, e, int64(i))
		if !ok {
			t.Fatal("no pick under full contention")
		}
		p.OnGrant(m, int64(i))
		order = append(order, m)
	}
	q := NewRandomPermutation(n, 17)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e := make([]bool, n)
			e[order[i]], e[order[j]] = true, true
			if m, ok := pick(q, e, 0); !ok || m != order[i] {
				t.Fatalf("pair {%d,%d}: pick = %d,%v, want %d (round order %v)",
					order[i], order[j], m, ok, order[i], order)
			}
			// No grant: the round state must not advance on a mere pick.
		}
	}
}

func TestTDMANextPickCycleHorizonEdges(t *testing.T) {
	td := NewTDMA(4, 56)
	cases := []struct {
		from, want int64
	}{
		{-5, 0},            // pre-history clamps to the first slot
		{0, 0},             // already on a boundary: no push
		{1, 56},            // just past a boundary: full wait
		{55, 56},           // last cycle of a slot
		{56, 56},           // exactly the next boundary
		{57, 112},          // one past it
		{4 * 56, 4 * 56},   // rotation wrap boundary
		{4*56 + 1, 5 * 56}, // and just past the wrap
	}
	for _, c := range cases {
		if got := td.NextPickCycle(c.from); got != c.want {
			t.Errorf("NextPickCycle(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

// TestTDMASchedulerContract is the property the event-horizon engine relies
// on: between from and NextPickCycle(from) the policy leaves the bus idle
// (so those cycles can be skipped in bulk), and at the returned cycle the
// slot owner is grantable.
func TestTDMASchedulerContract(t *testing.T) {
	f := func(slotSel uint8, fromRaw uint16) bool {
		slotLen := int64(slotSel%13) + 1
		td := NewTDMA(3, slotLen)
		from := int64(fromRaw)
		next := td.NextPickCycle(from)
		if next < from {
			return false
		}
		e := allEligible(3)
		// Every strictly earlier cycle ≥ from must refuse to pick…
		for c := from; c < next; c++ {
			if _, ok := pick(td, e, c); ok {
				return false
			}
		}
		// …and the boundary itself must grant its owner.
		m, ok := pick(td, e, next)
		return ok && m == td.SlotOwner(next) && td.SlotStart(next)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTDMAOwnerUnchangedWithinSlot(t *testing.T) {
	td := NewTDMA(4, 7)
	for cycle := int64(0); cycle < 4*7*2; cycle++ {
		want := int((cycle / 7) % 4)
		if got := td.SlotOwner(cycle); got != want {
			t.Fatalf("SlotOwner(%d) = %d, want %d", cycle, got, want)
		}
		if td.SlotStart(cycle) != (cycle%7 == 0) {
			t.Fatalf("SlotStart(%d) wrong", cycle)
		}
	}
}
