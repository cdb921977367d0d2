package core

import (
	"testing"

	"creditbus/internal/bitset"
)

// FuzzCreditArbiterConfig builds arbiters from arbitrary configurations and
// asserts New's contract: it either returns a descriptive error or a fully
// valid arbiter — never a panic, never an arbiter that violates the budget
// invariants. Accepted arbiters are then driven through an arbitrary grant
// schedule with the bulk TickN path checked cycle-for-cycle against the
// per-cycle Tick reference, which is exactly the equivalence the simulator's
// event-horizon engine relies on, while a fuzzed REQ_tua drives the Table I
// COMP latches.
//
// The startEmpty bytes select the mode: the first byte with its low bit set
// marks a WCET-mode TuA at that index (the TuA is the master whose budget
// starts empty); with none, the arbiter runs in operation mode.
func FuzzCreditArbiterConfig(f *testing.F) {
	f.Add(4, int64(56), []byte{1, 1, 1, 1}, int64(0), []byte{}, []byte{}, []byte{}, []byte{3, 7})
	f.Add(4, int64(56), []byte{3, 1, 1, 1}, int64(6), []byte{}, []byte{}, []byte{1, 0, 0, 0}, []byte{20, 1})
	f.Add(2, int64(1), []byte{1, 2}, int64(9), []byte{8}, []byte{12}, []byte{}, []byte{255, 0, 9})
	f.Add(0, int64(-5), []byte{}, int64(-1), []byte{0}, []byte{0}, []byte{1, 1, 1}, []byte{})
	f.Add(3, int64(64), []byte{9, 9, 9}, int64(100), []byte{200, 0, 3}, []byte{255, 255, 255}, []byte{0, 1}, []byte{4, 4, 4, 4})
	f.Add(4, int64(56), []byte{1, 1, 1, 1}, int64(0), []byte{}, []byte{}, []byte{1}, []byte{0, 200, 2, 130, 3, 129})

	f.Fuzz(func(t *testing.T, masters int, maxHold int64, weights []byte,
		scale int64, thresholds, caps, startEmpty, schedule []byte) {
		cfg := Config{Masters: masters, MaxHold: maxHold, Scale: scale}
		for _, w := range weights {
			cfg.Weights = append(cfg.Weights, int64(w))
		}
		for _, v := range thresholds {
			cfg.EligibilityThreshold = append(cfg.EligibilityThreshold, maxHold*int64(v))
		}
		for _, v := range caps {
			cfg.Cap = append(cfg.Cap, maxHold*int64(v))
		}
		for i, v := range startEmpty {
			if v&1 == 1 {
				cfg.Mode, cfg.TuA = WCETMode, i
				break
			}
		}

		arb, err := New(cfg) // must not panic on any input
		if err != nil {
			return
		}
		ref := MustNew(cfg) // a config New accepted must stay acceptable

		n := arb.Masters()
		for i := 0; i < n; i++ {
			if b := arb.Budget(i); b < 0 || b > arb.Cap(i) {
				t.Fatalf("initial budget %d of master %d outside [0,%d]", b, i, arb.Cap(i))
			}
		}

		// Arbitrary holder schedule (including idle), bulk vs per-cycle. Each
		// step runs a latch update with a fuzzed REQ_tua, grants the holder
		// and then holds the bus for the span.
		tua := arb.TuA()
		all := bitset.New(n)
		for i := 0; i < n; i++ {
			all.Set(i)
		}
		mask := bitset.New(n)
		for si := 0; si+1 < len(schedule); si += 2 {
			holder := int(schedule[si])%(n+1) - 1 // -1..n-1
			span := 1 + int64(schedule[si+1])%(2*spanBase(maxHold))
			tuaReady := schedule[si+1] >= 0x80
			arb.Update(tuaReady)
			for i := 0; i < n; i++ {
				if tuaReady && arb.Budget(i) >= arb.Cap(i) && !arb.Competing(i) {
					t.Fatalf("master %d saturated under REQ_tua but its COMP latch is clear", i)
				}
			}
			if holder >= 0 {
				arb.OnGrant(holder)
				if arb.Mode() == WCETMode && holder != tua && arb.Competing(holder) {
					t.Fatalf("grant to contender %d left its COMP latch set", holder)
				}
			}
			if !arb.Competing(tua) {
				t.Fatalf("TuA %d stopped competing", tua)
			}
			mask.CopyFrom(all)
			arb.AndEligible(mask)
			for i := 0; i < n; i++ {
				if arb.Mode() != WCETMode && !arb.Competing(i) {
					t.Fatalf("operation mode: COMP_%d clear", i)
				}
				if want := arb.Eligible(i) && arb.Competing(i); mask.Test(i) != want {
					t.Fatalf("AndEligible bit %d = %v, want eligible ∧ COMP = %v", i, mask.Test(i), want)
				}
			}
			arb.TickN(holder, span)
			for c := int64(0); c < span; c++ {
				ref.Tick(holder)
			}
			for i := 0; i < n; i++ {
				if arb.Budget(i) != ref.Budget(i) {
					t.Fatalf("TickN(%d,%d) diverged from Tick on master %d: %d vs %d",
						holder, span, i, arb.Budget(i), ref.Budget(i))
				}
				if b := arb.Budget(i); b < 0 || b > arb.Cap(i) {
					t.Fatalf("budget %d of master %d outside [0,%d]", b, i, arb.Cap(i))
				}
			}
			if arb.Underflows() != ref.Underflows() {
				t.Fatalf("underflow accounting diverged: %d vs %d", arb.Underflows(), ref.Underflows())
			}
		}
	})
}

// spanBase clamps the schedule span base to a sane positive value.
func spanBase(v int64) int64 {
	if v < 1 {
		return 1
	}
	if v > 1<<20 {
		return 1 << 20
	}
	return v
}
