package sim

import (
	"testing"

	"creditbus/internal/cpu"
)

func smallProgram() *cpu.Trace {
	return cpu.NewTrace([]cpu.Op{
		{Kind: cpu.OpLoad, Addr: 0},
		{Kind: cpu.OpALU, Cycles: 3},
		{Kind: cpu.OpStore, Addr: 64},
	})
}

// The emptiness probe must not perturb a valid scenario: programs are
// rewound after probing, so results are unchanged.
func TestRunWorkloadsProbeIsLossless(t *testing.T) {
	cfg := DefaultConfig()
	run := func() int64 {
		programs := []cpu.Program{smallProgram(), NewLooped(smallProgram()), nil, nil}
		res, err := new(Runner).Run(cfg, RunSpec{Kind: KindWorkloads, Programs: programs, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.TaskCycles
	}
	if a, b := run(), run(); a != b || a <= 0 {
		t.Fatalf("runs differ after probe: %d vs %d", a, b)
	}
}

func TestLoopedProgramClone(t *testing.T) {
	l := NewLooped(smallProgram())
	// Advance the original past its first op.
	if _, ok := l.Next(); !ok {
		t.Fatal("looped program empty")
	}
	c, ok := cpu.TryClone(l)
	if !ok {
		t.Fatal("looped trace not cloneable")
	}
	// The clone starts at the beginning and is independent of the original.
	op, ok := c.Next()
	if !ok || op.Kind != cpu.OpLoad {
		t.Fatalf("clone first op = %v/%v, want the load", op, ok)
	}
	// A looped program over a non-cloneable inner must report not-cloneable.
	if _, ok := cpu.TryClone(NewLooped(opaque{})); ok {
		t.Error("looped non-cloneable inner claimed cloneable")
	}
}

// opaque is a Program without Clone.
type opaque struct{}

func (opaque) Next() (cpu.Op, bool) { return cpu.Op{Kind: cpu.OpALU, Cycles: 1}, true }
func (opaque) Reset()               {}
