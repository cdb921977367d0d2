package workload

import (
	"reflect"
	"testing"

	"creditbus/internal/cpu"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"a2time", "aifirf", "atomics", "bitmnp", "burst", "cacheb", "canrdr",
		"hitter", "matrix", "puwmod", "rspeed", "stream", "tblook", "ttsprk",
		"ue-mix", "ue-stream", "ue-voice", "ue-web",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %d entries", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, n := range want {
		s, ok := ByName(n)
		if !ok || s.Name != n || s.Build == nil || s.Description == "" {
			t.Errorf("ByName(%q) incomplete: %+v ok=%v", n, s, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName of unknown workload returned ok")
	}
}

func TestFigureOneSetOrder(t *testing.T) {
	set := FigureOneSet()
	want := []string{"cacheb", "canrdr", "matrix", "tblook"}
	for i, s := range set {
		if s.Name != want[i] {
			t.Fatalf("FigureOneSet[%d] = %q, want %q", i, s.Name, want[i])
		}
	}
}

// TestBuildKeepsPrefix: Build is the registry build at the given seed,
// cut to its first ops operations when ops > 0 and the trace is longer.
func TestBuildKeepsPrefix(t *testing.T) {
	for _, name := range Names() {
		s, _ := ByName(name)
		full := s.Build(3).Ops()
		for _, ops := range []int{0, 1, 57, len(full), len(full) + 1} {
			tr, err := Build(name, 3, ops)
			if err != nil {
				t.Fatal(err)
			}
			want := full
			if ops > 0 && ops < len(full) {
				want = full[:ops]
			}
			if !reflect.DeepEqual(tr.Ops(), want) {
				t.Fatalf("Build(%q, 3, %d): %d ops, want the first %d", name, ops, tr.Len(), len(want))
			}
		}
	}
	if _, err := Build("nope", 1, 0); err == nil {
		t.Error("Build of unknown workload succeeded")
	}
}

func TestBuildersDeterministic(t *testing.T) {
	for _, name := range Names() {
		s, _ := ByName(name)
		a := s.Build(7)
		b := s.Build(7)
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ (%d vs %d)", name, a.Len(), b.Len())
		}
		ao, bo := a.Ops(), b.Ops()
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("%s: op %d differs: %+v vs %+v", name, i, ao[i], bo[i])
			}
		}
	}
}

func TestBuildersWellFormed(t *testing.T) {
	for _, name := range Names() {
		s, _ := ByName(name)
		tr := s.Build(1)
		if tr.Len() < 100 {
			t.Errorf("%s: only %d ops", name, tr.Len())
		}
		for i, op := range tr.Ops() {
			switch op.Kind {
			case cpu.OpALU:
				if op.Cycles < 1 {
					t.Fatalf("%s op %d: ALU with %d cycles", name, i, op.Cycles)
				}
			case cpu.OpLoad, cpu.OpStore, cpu.OpAtomic:
				if op.Addr%WordBytes != 0 {
					t.Fatalf("%s op %d: unaligned address %#x", name, i, op.Addr)
				}
			default:
				t.Fatalf("%s op %d: unknown kind %d", name, i, op.Kind)
			}
		}
	}
}

// opMix summarises a trace: counts and total ALU cycles.
func opMix(tr *cpu.Trace) (loads, stores, atomics int, aluCycles int64) {
	for _, op := range tr.Ops() {
		switch op.Kind {
		case cpu.OpLoad:
			loads++
		case cpu.OpStore:
			stores++
		case cpu.OpAtomic:
			atomics++
		case cpu.OpALU:
			aluCycles += op.Cycles
		}
	}
	return
}

func TestTrafficShapes(t *testing.T) {
	// The coarse traffic properties each benchmark is designed around; if
	// a retune breaks these, Figure 1's shape is at risk.
	get := func(n string) *cpu.Trace {
		s, ok := ByName(n)
		if !ok {
			t.Fatalf("missing workload %s", n)
		}
		return s.Build(1)
	}

	// matrix: load-dense, minimal stores (one per 24-iteration inner
	// block), no atomics.
	l, s, a, alu := opMix(get("matrix"))
	if l < 20000 || s > l/40 || a != 0 {
		t.Errorf("matrix mix: loads=%d stores=%d atomics=%d", l, s, a)
	}
	if perLoad := float64(alu) / float64(l); perLoad < 3 || perLoad > 8 {
		t.Errorf("matrix ALU per load = %.1f, want 3..8 (density calibration)", perLoad)
	}

	// cacheb: few ops, heavy ALU blocks, stores present (dirty lines).
	l, s, _, alu = opMix(get("cacheb"))
	if s == 0 {
		t.Error("cacheb must store (dirty evictions)")
	}
	if perIter := float64(alu) / float64(l); perIter < 80 {
		t.Errorf("cacheb ALU per load = %.1f, want ≥ 80 (occupancy under CBA share)", perIter)
	}

	// tblook: sparse main-table fetches — ALU dominates.
	l, _, _, alu = opMix(get("tblook"))
	if perLoad := float64(alu) / float64(l); perLoad < 10 {
		t.Errorf("tblook ALU per load = %.1f, want ≥ 10 (sparse requests)", perLoad)
	}

	// stream: pure loads, almost no ALU.
	l, s, a, alu = opMix(get("stream"))
	if s != 0 || a != 0 || float64(alu)/float64(l) > 1.5 {
		t.Errorf("stream mix: loads=%d stores=%d atomics=%d alu/load=%.1f", l, s, a, float64(alu)/float64(l))
	}

	// atomics: every iteration has an atomic.
	_, _, a, _ = opMix(get("atomics"))
	if a < 500 {
		t.Errorf("atomics workload has only %d atomic ops", a)
	}
}

func TestDistinctSeedsChangeRandomWorkloads(t *testing.T) {
	// Random-pattern workloads must differ across build seeds (the seed is
	// the program identity); deterministic-pattern ones may not.
	for _, name := range []string{"cacheb", "tblook", "ttsprk", "ue-mix", "ue-stream", "ue-voice", "ue-web"} {
		s, _ := ByName(name)
		a, b := s.Build(1), s.Build(2)
		same := true
		ao, bo := a.Ops(), b.Ops()
		if len(ao) != len(bo) {
			same = false
		} else {
			for i := range ao {
				if ao[i] != bo[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 give identical traces", name)
		}
	}
}

// TestUEDemandRanges pins the population workloads to their traffic-type
// demand ranges: per-seed draws must stay inside the UE model's bounds, and
// ue-mix must actually mix types across a fleet's worth of seeds.
func TestUEDemandRanges(t *testing.T) {
	perFrame := func(name string, seed uint64) int {
		s, _ := ByName(name)
		loads, _, _, _ := opMix(s.Build(seed))
		return loads
	}
	for seed := uint64(1); seed <= 50; seed++ {
		// ue-stream: 24 frames of 20–30 loads each.
		if l := perFrame("ue-stream", seed); l < 24*20 || l > 24*30 {
			t.Fatalf("ue-stream seed %d: %d loads outside 24×[20,30]", seed, l)
		}
		// ue-voice: 60 frames of 1–2 loads each.
		if l := perFrame("ue-voice", seed); l < 60*1 || l > 60*2 {
			t.Fatalf("ue-voice seed %d: %d loads outside 60×[1,2]", seed, l)
		}
		// ue-web: 30 bursts of 5–15 accesses (loads + ~10% stores).
		s, _ := ByName("ue-web")
		loads, stores, atomics, _ := opMix(s.Build(seed))
		if acc := loads + stores; acc < 30*5 || acc > 30*15 || atomics != 0 {
			t.Fatalf("ue-web seed %d: %d accesses outside 30×[5,15] (atomics=%d)", seed, acc, atomics)
		}
	}

	// ue-mix over 40 member seeds must produce visibly different volumes —
	// a voice member (≤ 120 light accesses) and a streaming member (≥ 480
	// heavy loads) should both appear in any realistic fleet.
	light, heavy := false, false
	s, _ := ByName("ue-mix")
	for seed := uint64(1); seed <= 40; seed++ {
		loads, _, _, _ := opMix(s.Build(seed))
		if loads <= 120 {
			light = true
		}
		if loads >= 480 {
			heavy = true
		}
	}
	if !light || !heavy {
		t.Fatalf("ue-mix fleet lacks diversity: light=%v heavy=%v", light, heavy)
	}
}

func TestRegionWordAddressing(t *testing.T) {
	r := region{base: 0x1000}
	if got := r.word(0); got != 0x1000 {
		t.Fatalf("word(0) = %#x", got)
	}
	if got := r.word(3); got != 0x1000+3*WordBytes {
		t.Fatalf("word(3) = %#x", got)
	}
}

func TestBuilderMergesALU(t *testing.T) {
	var b builder
	b.alu(3)
	b.alu(4)
	b.load(64)
	b.alu(1)
	tr := b.trace()
	if tr.Len() != 3 {
		t.Fatalf("trace length = %d, want 3 (merged ALU)", tr.Len())
	}
	if op := tr.Ops()[0]; op.Kind != cpu.OpALU || op.Cycles != 7 {
		t.Fatalf("merged ALU op = %+v", op)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	register(Spec{Name: "matrix"})
}
