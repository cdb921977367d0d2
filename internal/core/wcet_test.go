package core

import (
	"strings"
	"testing"
)

// The tests in this file verify Table I of the paper (EXP-T1 in DESIGN.md):
// the REQ/COMP/BUDG signal semantics in WCET-estimation and operation mode.

func newArbiter(t *testing.T, mode Mode) *Arbiter {
	t.Helper()
	cfg := Homogeneous(4, 56)
	cfg.Mode, cfg.TuA = mode, 0
	return MustNew(cfg)
}

func TestTableIOperationModeCompAlwaysSet(t *testing.T) {
	a := newArbiter(t, OperationMode)
	for m := 0; m < 4; m++ {
		if !a.Competing(m) {
			t.Errorf("operation mode: COMP_%d clear, want set", m)
		}
	}
	// Update and OnGrant must not clear COMP in operation mode.
	a.Update(false)
	a.OnGrant(2)
	for m := 0; m < 4; m++ {
		if !a.Competing(m) {
			t.Errorf("operation mode after grant: COMP_%d clear, want set", m)
		}
	}
}

func TestTableICompLatchSemantics(t *testing.T) {
	a := newArbiter(t, WCETMode)
	// Initially: contenders full budget, but TuA has no request ready ->
	// COMP must stay clear.
	a.Update(false)
	for m := 1; m < 4; m++ {
		if a.Competing(m) {
			t.Errorf("COMP_%d set without REQ_tua", m)
		}
	}
	// TuA request ready + full budget -> COMP sets.
	a.Update(true)
	for m := 1; m < 4; m++ {
		if !a.Competing(m) {
			t.Errorf("COMP_%d clear despite BUDG==cap ∧ REQ1", m)
		}
	}
	// Latch: stays set after REQ_tua drops.
	a.Update(false)
	for m := 1; m < 4; m++ {
		if !a.Competing(m) {
			t.Errorf("COMP_%d did not latch", m)
		}
	}
	// Grant clears only the granted contender.
	a.OnGrant(2)
	if a.Competing(2) {
		t.Error("COMP_2 not cleared on grant")
	}
	if !a.Competing(1) || !a.Competing(3) {
		t.Error("grant to 2 cleared other COMP bits")
	}
	// Contender 2 just used the bus: its budget is not full, so COMP must
	// not re-latch even with REQ_tua set.
	a.Tick(2) // one busy cycle drains its budget below cap
	a.Update(true)
	if a.Competing(2) {
		t.Errorf("COMP_2 re-latched with budget %d < cap", a.Budget(2))
	}
	// After a full refill it latches again.
	for !a.Eligible(2) {
		a.Tick(-1)
	}
	a.Update(true)
	if !a.Competing(2) {
		t.Error("COMP_2 did not latch after refill")
	}
}

func TestTableITuAAlwaysCompetes(t *testing.T) {
	a := newArbiter(t, WCETMode)
	if !a.Competing(0) {
		t.Error("TuA COMP treated as clear; Table I marks it unused (—)")
	}
}

func TestSignalsResetClearsLatches(t *testing.T) {
	a := newArbiter(t, WCETMode)
	a.Update(true)
	a.Reset()
	for m := 1; m < 4; m++ {
		if a.Competing(m) {
			t.Errorf("Reset left COMP_%d set", m)
		}
	}
}

func TestSignalsModeAccessors(t *testing.T) {
	a := newArbiter(t, WCETMode)
	if a.Mode() != WCETMode || a.TuA() != 0 {
		t.Errorf("accessors: mode=%v tua=%d", a.Mode(), a.TuA())
	}
	if WCETMode.String() != "wcet-estimation" || OperationMode.String() != "operation" {
		t.Errorf("Mode.String: %q / %q", WCETMode, OperationMode)
	}
	if got := Mode(9).String(); got != "Mode(9)" {
		t.Errorf("unknown mode string = %q", got)
	}
}

func TestSignalsValidatesTuA(t *testing.T) {
	cfg := Homogeneous(4, 56)
	cfg.Mode, cfg.TuA = WCETMode, 4
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "TuA") {
		t.Fatalf("New with bad TuA: err = %v, want a TuA range error", err)
	}
}

func TestStateBitsMatchesPaperScale(t *testing.T) {
	// The paper: one 8-bit saturating counter per core plus a COMP bit —
	// 9 bits per core, 36 bits for the 4-core platform. Cap 224 needs 8
	// bits.
	a := newArbiter(t, WCETMode)
	if got := a.StateBits(); got != 36 {
		t.Errorf("StateBits = %d, want 36 (4 cores × (8-bit counter + COMP))", got)
	}
}
