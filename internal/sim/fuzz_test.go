package sim

import (
	"fmt"
	"reflect"
	"testing"

	"creditbus/internal/core"
	"creditbus/internal/cpu"
)

// FuzzConfigBuild asserts the Config contract: a configuration Validate
// accepts can be built. NewMachine must return a machine or an error for
// it, never panic. A machine that has already run DefaultConfig must
// Reuse into the same configuration with the same error, and without one
// a short run on it must give the fresh machine's Result: that drives
// every rebuild branch of Reuse, the one construction path. The input
// spans the arbitration and credit fields — core count, TuA, any policy
// name, Weights and MTSTimescales of any length, sign and magnitude (empty
// non-nil included), the PF shift, the credit kind and parameters, and the
// mode.
//
// Weights decode two bytes per entry as an int16 shifted left by
// weightShift, timescales six bytes per bucket (Num, Den, Depth); the nil
// flags choose between a nil and an empty non-nil slice when no bytes
// remain.
func FuzzConfigBuild(f *testing.F) {
	w := func(ws ...int16) []byte {
		var b []byte
		for _, v := range ws {
			b = append(b, byte(uint16(v)>>8), byte(v))
		}
		return b
	}
	// The configurations Validate used to accept and NewMachine then
	// panicked on: empty, short and zero lottery tickets, empty non-nil
	// weights under PF/GWF/MTS, an empty non-nil MTS profile.
	f.Add(int16(4), int16(0), "LOT", []byte{}, false, uint8(0), int8(0), []byte{}, true, "off", int16(0), int64(0), int64(0), int64(0), int8(0))
	f.Add(int16(4), int16(0), "LOT", w(1, 2), false, uint8(0), int8(0), []byte{}, true, "cba", int16(0), int64(0), int64(0), int64(0), int8(1))
	f.Add(int16(4), int16(1), "LOT", w(1, 0, 1, 1), false, uint8(0), int8(0), []byte{}, true, "off", int16(0), int64(0), int64(0), int64(0), int8(0))
	f.Add(int16(4), int16(0), "PF", []byte{}, false, uint8(0), int8(3), []byte{}, true, "off", int16(0), int64(0), int64(0), int64(0), int8(0))
	f.Add(int16(4), int16(0), "GWF", []byte{}, false, uint8(0), int8(0), []byte{}, true, "hcba-cap", int16(2), int64(0), int64(0), int64(3), int8(1))
	f.Add(int16(4), int16(0), "MTS", []byte{}, false, uint8(0), int8(0), []byte{}, true, "off", int16(0), int64(0), int64(0), int64(0), int8(0))
	f.Add(int16(4), int16(0), "MTS", w(1, 2, 3, 4), true, uint8(0), int8(0), []byte{}, false, "hcba-weights", int16(1), int64(1), int64(3), int64(0), int8(0))
	// Ticket totals past 2^63: rejected by the MaxWeight bound.
	f.Add(int16(4), int16(0), "LOT", w(1, 1, 1, 1), true, uint8(62), int8(0), []byte{}, true, "off", int16(0), int64(0), int64(0), int64(0), int8(0))

	f.Fuzz(func(t *testing.T, cores, tua int16, policy string, weights []byte, nilWeights bool, weightShift uint8,
		pfShift int8, scales []byte, nilScales bool, credit string, privileged int16, num, den, capFactor int64, mode int8) {
		cfg := DefaultConfig()
		cfg.Cores, cfg.TuA = int(cores), int(tua)
		cfg.Policy = PolicyKind(policy)
		cfg.PFAvgShift = int(pfShift)
		cfg.Mode = core.Mode(mode)
		cfg.Credit = CreditSpec{Kind: CreditKind(credit), Privileged: int(privileged), Num: num, Den: den, CapFactor: capFactor}
		if !nilWeights {
			cfg.Weights = []int64{}
		}
		for i := 0; i+1 < len(weights); i += 2 {
			v := int64(int16(uint16(weights[i])<<8 | uint16(weights[i+1])))
			cfg.Weights = append(cfg.Weights, v<<(weightShift%64))
		}
		if !nilScales {
			cfg.MTSTimescales = []Timescale{}
		}
		for i := 0; i+5 < len(scales); i += 6 {
			v := func(j int) int64 { return int64(int16(uint16(scales[i+j])<<8 | uint16(scales[i+j+1]))) }
			cfg.MTSTimescales = append(cfg.MTSTimescales, Timescale{Num: v(0), Den: v(2), Depth: v(4)})
		}
		if cfg.Validate() != nil {
			return
		}
		// Each machine gets its own program instance: a shared trace cursor
		// would make the two runs diverge.
		programs := func(cfg Config) []cpu.Program {
			p := make([]cpu.Program, cfg.Cores)
			p[cfg.TuA] = cpu.NewTrace([]cpu.Op{{Kind: cpu.OpLoad, Addr: 0x40}})
			return p
		}
		used, err := NewMachine(DefaultConfig(), programs(DefaultConfig()), 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := used.runTuA(DefaultLimit, nil); err != nil {
			t.Fatal(err)
		}

		fresh, errFresh := NewMachine(cfg, programs(cfg), 1)
		if errFresh == nil && fresh == nil {
			t.Fatal("NewMachine returned neither a machine nor an error")
		}
		errUsed := used.Reuse(cfg, programs(cfg), 1)
		if fmt.Sprint(errUsed) != fmt.Sprint(errFresh) {
			t.Fatalf("Reuse error %v, NewMachine error %v", errUsed, errFresh)
		}
		if errFresh != nil {
			return
		}
		const limit = 1 << 16
		errFresh, errUsed = fresh.runTuA(limit, nil), used.runTuA(limit, nil)
		if fmt.Sprint(errUsed) != fmt.Sprint(errFresh) {
			t.Fatalf("reused run error %v, fresh run error %v", errUsed, errFresh)
		}
		if got, want := used.result(cfg.TuA), fresh.result(cfg.TuA); !reflect.DeepEqual(got, want) {
			t.Fatalf("reused machine diverged from a fresh one:\n got %+v\nwant %+v", got, want)
		}
	})
}
