package scengen

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"creditbus/internal/scenario"
)

// generate draws n named specs from one seeded source, the way cmd/scenfuzz
// does.
func generate(t *testing.T, seed uint64, n int) []scenario.Spec {
	t.Helper()
	src := NewSource(seed)
	out := make([]scenario.Spec, n)
	for i := range out {
		out[i] = Generate(src, fmt.Sprintf("gen-%d-%d", seed, i))
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, 42, 50)
	b := generate(t, 42, 50)
	for i := range a {
		ea, err := a[i].Encode()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := b[i].Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("spec %d differs between equal-seed generators:\n%s\nvs\n%s", i, ea, eb)
		}
	}
	// A different seed must explore a different region of the space.
	c := generate(t, 43, 50)
	same := 0
	for i := range a {
		ea, _ := a[i].Encode()
		ec, _ := c[i].Encode()
		if bytes.Equal(ea, ec) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 generated identical scenario sequences")
	}
}

func TestGenerateValidAndCompilable(t *testing.T) {
	// Generate always returns Validate-clean specs (it panics otherwise);
	// here we additionally require every spec to compile and to cover the
	// sampling space's main axes over a modest draw.
	specs := generate(t, 1, 300)
	runs := map[string]int{}
	credits := map[string]int{}
	policies := map[string]int{}
	multiCore := false
	for _, sp := range specs {
		if _, err := sp.Compile(); err != nil {
			t.Fatalf("%s does not compile: %v", sp.Name, err)
		}
		runs[sp.Run]++
		policies[sp.Policy]++
		if sp.Credit != nil {
			credits[sp.Credit.Kind]++
		} else {
			credits["off"]++
		}
		if sp.Cores > 4 {
			multiCore = true
		}
	}
	for _, kind := range []string{scenario.RunIsolation, scenario.RunWCET, scenario.RunWorkloads} {
		if runs[kind] == 0 {
			t.Errorf("300 draws never produced a %s run", kind)
		}
	}
	for _, kind := range []string{"off", "cba", "hcba-weights", "hcba-cap"} {
		if credits[kind] == 0 {
			t.Errorf("300 draws never produced credit kind %s", kind)
		}
	}
	for _, p := range []string{"RR", "FIFO", "TDMA", "LOT", "RP", "PRI", "PF", "GWF", "MTS"} {
		if policies[p] == 0 {
			t.Errorf("300 draws never produced policy %s", p)
		}
	}
	if !multiCore {
		t.Error("300 draws never left the 4-core platform")
	}
}

func TestByteSourceAlwaysDecodes(t *testing.T) {
	// Any byte string — including the empty one — decodes to a valid spec,
	// and the decoding is deterministic.
	inputs := [][]byte{
		nil,
		{0},
		{0xff},
		bytes.Repeat([]byte{0xab, 0x12}, 40),
		[]byte("arbitrary fuzz bytes that mean nothing"),
	}
	for i, data := range inputs {
		a := Generate(&ByteSource{Data: data}, "bytes")
		b := Generate(&ByteSource{Data: append([]byte(nil), data...)}, "bytes")
		ea, _ := a.Encode()
		eb, _ := b.Encode()
		if !bytes.Equal(ea, eb) {
			t.Fatalf("input %d decoded differently on replay", i)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("input %d decoded to an invalid spec: %v", i, err)
		}
	}
}

// TestCheckGeneratedScenarios is the oracle integration test: a sample of
// generated scenarios must pass every invariant on both engines. The full
// campaign lives in cmd/scenfuzz (CI runs -n 500); this keeps the package
// self-verifying.
func TestCheckGeneratedScenarios(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 6
	}
	for _, sp := range generate(t, 7, n) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			vs, err := Check(sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				t.Errorf("%s", v)
			}
		})
	}
}

func TestMetamorphicOracleDetectsDoctoredResult(t *testing.T) {
	// The oracle layer must actually bite: doctor a contended result to
	// claim fewer task cycles than isolation and to have lost a grant — both
	// must be flagged.
	sp := generate(t, 11, 1)[0]
	sp.Run = scenario.RunWCET
	sp.Workloads = sp.Workloads[:1]
	sp.Workloads[0].Loop = false
	// A store-free TuA keeps the task-cycle monotonicity branch armed
	// (the oracle disarms it when buffered stores can realign the
	// private L2's replacement draws).
	sp.Workloads[0].Name = "hitter"
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	seed := c.Seeds[0]
	real, err := c.RunOn(new(scenario.Worker), seed, scenario.EngineFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	doctored := real
	doctored.TaskCycles = 1
	// Push the grant count past the store-buffer drain slack the oracle
	// grants to trailing transactions. The genuine isolation-vs-contended
	// delta can itself sit anywhere within ±slack, so the push must clear
	// 2·slack+1 to land outside the window regardless of where it started.
	doctored.Bus.Grants += 2*(int64(c.Config.StoreBufferDepth)+1) + 1
	vs := checkMetamorphic(c, seed, doctored)
	var sawCycles, sawGrants bool
	for _, v := range vs {
		if strings.Contains(v.Detail, "sped the TuA up") {
			sawCycles = true
		}
		if strings.Contains(v.Detail, "bus grants") {
			sawGrants = true
		}
	}
	if !sawCycles || !sawGrants {
		t.Fatalf("doctored result not fully flagged: cycles=%v grants=%v (%v)", sawCycles, sawGrants, vs)
	}
	// And the genuine result is clean.
	if vs := checkMetamorphic(c, seed, real); len(vs) != 0 {
		t.Fatalf("genuine result flagged: %v", vs)
	}
}

func TestMinimizeShrinksToPredicateCore(t *testing.T) {
	// A synthetic failure that depends only on TDMA + credit being present:
	// the minimizer must strip everything else while preserving both.
	src := NewSource(3)
	var sp scenario.Spec
	found := false
	for i := 0; i < 5000 && !found; i++ {
		sp = Generate(src, "shrink-me")
		found = sp.Policy == "TDMA" && sp.Credit != nil && sp.Run == scenario.RunWorkloads &&
			len(sp.Workloads) > 1 && sp.Platform != nil
	}
	if !found {
		t.Fatal("generator never produced a TDMA+credit workloads spec with overrides")
	}
	failing := func(c scenario.Spec) bool { return c.Policy == "TDMA" && c.Credit != nil }
	minimal := Minimize(sp, failing, 500)

	if err := minimal.Validate(); err != nil {
		t.Fatalf("minimized spec invalid: %v", err)
	}
	if !failing(minimal) {
		t.Fatal("minimized spec no longer fails the predicate")
	}
	if len(minimal.Workloads) != 1 {
		t.Errorf("workloads not shrunk: %d entries", len(minimal.Workloads))
	}
	if len(minimal.Seeds.Expand()) != 1 {
		t.Errorf("seed schedule not shrunk: %v", minimal.Seeds)
	}
	if minimal.Platform != nil {
		t.Error("platform overrides not stripped")
	}
	if minimal.Credit.Kind != "cba" {
		t.Errorf("credit not simplified: %+v", minimal.Credit)
	}
	if minimal.Name != sp.Name {
		t.Errorf("minimization renamed the spec: %q", minimal.Name)
	}
	// Round trip: the repro file form must load back to the same spec.
	data, err := minimal.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := minimal.Encode()
	e2, _ := back.Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatal("minimized spec does not round-trip through its repro encoding")
	}
}

// TestKnownFindings pins the scenario-space discoveries of the fuzzing
// campaigns, committed as repro specs under testdata/:
//
//   - pri-starvation: fixed priority + WCET injectors above the TuA + no
//     credit has no defined WCET (the TuA starves; the paper's §II
//     argument). The run oracle must keep reporting the tripped limit, and
//     the generator must keep the region out of its sampling space.
//   - storebuf-drain: the contended run retires with one more trailing
//     store posted than isolation — legal store-buffer drain wiggle, which
//     the metamorphic traffic oracle must keep tolerating in both
//     directions.
//   - l2-drain-luck (PR 6's widened space): contention shifts the TuA's
//     store-buffer drain, realigning its private L2's randomised
//     replacement draws, and the contended run retires 2·(mem−l2hit)
//     cycles EARLIER than isolation — so the metamorphic oracle must keep
//     the task-cycle monotonicity check disarmed for TuAs with stores.
func TestKnownFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("pri-starvation runs to the cycle limit")
	}
	specs, err := scenario.LoadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			vs, err := Check(sp)
			if err != nil {
				t.Fatal(err)
			}
			switch sp.Name {
			case "pri-starvation":
				if len(vs) != 1 || vs[0].Oracle != "run" {
					t.Fatalf("want exactly the unbounded-run violation, got %v", vs)
				}
			default:
				for _, v := range vs {
					t.Errorf("%s", v)
				}
			}
		})
	}
}

func TestMinimizeReturnsPassingSpecUnchanged(t *testing.T) {
	sp := generate(t, 5, 1)[0]
	got := Minimize(sp, func(scenario.Spec) bool { return false }, 50)
	e1, _ := sp.Encode()
	e2, _ := got.Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatal("a passing spec was mutated")
	}
}
