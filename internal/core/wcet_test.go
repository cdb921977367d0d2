package core

import "testing"

// The tests in this file verify Table I of the paper (EXP-T1 in DESIGN.md):
// the REQ/COMP/BUDG signal semantics in WCET-estimation and operation mode.

func newSignals(t *testing.T, mode Mode) (*Arbiter, *Signals) {
	t.Helper()
	cfg := Homogeneous(4, 56)
	if mode == WCETMode {
		// §III.B: the TuA starts with zero budget at analysis time.
		cfg.StartEmpty = []bool{true, false, false, false}
	}
	a := MustNew(cfg)
	return a, NewSignals(a, mode, 0)
}

func TestTableIOperationModeCompAlwaysSet(t *testing.T) {
	_, s := newSignals(t, OperationMode)
	for m := 0; m < 4; m++ {
		if !s.Competing(m) {
			t.Errorf("operation mode: COMP_%d clear, want set", m)
		}
	}
	// Update and OnGrant must not clear COMP in operation mode.
	s.Update(false)
	s.OnGrant(2)
	for m := 0; m < 4; m++ {
		if !s.Competing(m) {
			t.Errorf("operation mode after grant: COMP_%d clear, want set", m)
		}
	}
}

func TestTableICompLatchSemantics(t *testing.T) {
	a, s := newSignals(t, WCETMode)
	// Initially: contenders full budget, but TuA has no request ready ->
	// COMP must stay clear.
	s.Update(false)
	for m := 1; m < 4; m++ {
		if s.Competing(m) {
			t.Errorf("COMP_%d set without REQ_tua", m)
		}
	}
	// TuA request ready + full budget -> COMP sets.
	s.Update(true)
	for m := 1; m < 4; m++ {
		if !s.Competing(m) {
			t.Errorf("COMP_%d clear despite BUDG==cap ∧ REQ1", m)
		}
	}
	// Latch: stays set after REQ_tua drops.
	s.Update(false)
	for m := 1; m < 4; m++ {
		if !s.Competing(m) {
			t.Errorf("COMP_%d did not latch", m)
		}
	}
	// Grant clears only the granted contender.
	s.OnGrant(2)
	if s.Competing(2) {
		t.Error("COMP_2 not cleared on grant")
	}
	if !s.Competing(1) || !s.Competing(3) {
		t.Error("grant to 2 cleared other COMP bits")
	}
	// Contender 2 just used the bus: its budget is not full, so COMP must
	// not re-latch even with REQ_tua set.
	a.Tick(2) // one busy cycle drains its budget below cap
	s.Update(true)
	if s.Competing(2) {
		t.Errorf("COMP_2 re-latched with budget %d < cap", a.Budget(2))
	}
	// After a full refill it latches again.
	for !a.Eligible(2) {
		a.Tick(-1)
	}
	s.Update(true)
	if !s.Competing(2) {
		t.Error("COMP_2 did not latch after refill")
	}
}

func TestTableITuAAlwaysCompetes(t *testing.T) {
	_, s := newSignals(t, WCETMode)
	if !s.Competing(0) {
		t.Error("TuA COMP treated as clear; Table I marks it unused (—)")
	}
}

func TestSignalsResetClearsLatches(t *testing.T) {
	_, s := newSignals(t, WCETMode)
	s.Update(true)
	s.Reset()
	for m := 1; m < 4; m++ {
		if s.Competing(m) {
			t.Errorf("Reset left COMP_%d set", m)
		}
	}
}

func TestSignalsModeAccessors(t *testing.T) {
	_, s := newSignals(t, WCETMode)
	if s.Mode() != WCETMode || s.TuA() != 0 {
		t.Errorf("accessors: mode=%v tua=%d", s.Mode(), s.TuA())
	}
	if WCETMode.String() != "wcet-estimation" || OperationMode.String() != "operation" {
		t.Errorf("Mode.String: %q / %q", WCETMode, OperationMode)
	}
	if got := Mode(9).String(); got != "Mode(9)" {
		t.Errorf("unknown mode string = %q", got)
	}
}

func TestSignalsValidatesTuA(t *testing.T) {
	a := MustNew(Homogeneous(4, 56))
	defer func() {
		if recover() == nil {
			t.Fatal("NewSignals with bad TuA did not panic")
		}
	}()
	NewSignals(a, WCETMode, 4)
}

func TestStateBitsMatchesPaperScale(t *testing.T) {
	// The paper: one 8-bit saturating counter per core plus a COMP bit —
	// 9 bits per core, 36 bits for the 4-core platform. Cap 224 needs 8
	// bits.
	_, s := newSignals(t, WCETMode)
	if got := s.StateBits(); got != 36 {
		t.Errorf("StateBits = %d, want 36 (4 cores × (8-bit counter + COMP))", got)
	}
}
