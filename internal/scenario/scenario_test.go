package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"creditbus/internal/campaign"
	"creditbus/internal/sim"
)

func intp(v int) *int { return &v }

// validSpec returns a minimal valid wcet spec tests mutate.
func validSpec() Spec {
	return Spec{
		Name: "t",
		Run:  RunWCET,
		Workloads: []Workload{
			{Core: 0, Name: "matrix", Ops: 200},
		},
		Seeds: Seeds{List: []uint64{3}},
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","run":"wcet","typo_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","run":"wcet","workloads":[]} {"trailing":true}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","run":"wcet","workloads":[]} @@@`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "file stem"},
		{"bad name", func(s *Spec) { s.Name = "a/b" }, "file stem"},
		{"bad run", func(s *Spec) { s.Run = "contention" }, "run ="},
		{"bad policy", func(s *Spec) { s.Policy = "EDF" }, "unknown policy"},
		{"bad credit", func(s *Spec) { s.Credit = &Credit{Kind: "tokens"} }, "unknown credit kind"},
		{"bad engine", func(s *Spec) { s.Engine = "warp" }, "engine ="},
		{"tua range", func(s *Spec) { s.TuA = intp(7) }, "out of range"},
		{"no workloads", func(s *Spec) { s.Workloads = nil }, "no workloads"},
		{"core range", func(s *Spec) { s.Workloads[0].Core = 4 }, "out of range"},
		{"unknown workload", func(s *Spec) { s.Workloads[0].Name = "dhrystone" }, "unknown workload"},
		{"negative ops", func(s *Spec) { s.Workloads[0].Ops = -1 }, "ops"},
		{"weight without LOT", func(s *Spec) { s.Workloads[0].Weight = 2 }, "weighted policies"},
		// Tickets are bounded like every weight. Unbounded, four tickets
		// of 2^62 wrap the lottery's draw total to 0 and stall the run.
		{"lottery weight too large", func(s *Spec) { s.Policy = "LOT"; s.Workloads[0].Weight = 1 << 62 }, "outside [1, 1048576]"},
		{"bad criticality", func(s *Spec) { s.Workloads[0].Criticality = "MID" }, "criticality"},
		{"loop outside workloads run", func(s *Spec) { s.Workloads[0].Loop = true }, "loop"},
		{"tua without workload", func(s *Spec) { s.TuA = intp(1) }, "no workload"},
		{"num without den", func(s *Spec) { s.Credit = &Credit{Kind: "hcba-weights", Num: 1} }, "set both"},
		{"share >= 1", func(s *Spec) { s.Credit = &Credit{Kind: "hcba-weights", Num: 3, Den: 3} }, "< 1"},
		{"weights on cba", func(s *Spec) { s.Credit = &Credit{Kind: "cba", Num: 1, Den: 2} }, "hcba-weights"},
		{"cap on weights", func(s *Spec) { s.Credit = &Credit{Kind: "hcba-weights", Num: 1, Den: 2, CapFactor: 2} }, "hcba-cap"},
		{"cap factor 1", func(s *Spec) { s.Credit = &Credit{Kind: "hcba-cap", CapFactor: 1} }, "cap_factor"},
		{"negative cores", func(s *Spec) { s.Cores = -3 }, "cores ="},
		{"privileged range", func(s *Spec) { s.Credit = &Credit{Kind: "hcba-cap", Privileged: intp(9)} }, "privileged"},
		{"privileged on plain cba", func(s *Spec) { s.Credit = &Credit{Kind: "cba", Privileged: intp(2)} }, "hcba-"},
		{"privileged 0 with nonzero tua", func(s *Spec) {
			s.TuA = intp(1)
			s.Workloads[0].Core = 1
			s.Credit = &Credit{Kind: "hcba-weights", Privileged: intp(0)}
		}, "not expressible"},
		{"seeds list plus base", func(s *Spec) { s.Seeds = Seeds{Base: 1, List: []uint64{2}} }, "exclusive"},
		{"seeds list plus runs", func(s *Spec) { s.Seeds = Seeds{Runs: 2, List: []uint64{2}} }, "exclusive"},
		{"seeds list plus stride", func(s *Spec) { s.Seeds = Seeds{Stride: 3, List: []uint64{2}} }, "exclusive"},
		{"negative seeds runs", func(s *Spec) { s.Seeds = Seeds{Runs: -1} }, "seeds.runs"},
		{"duplicate list seeds", func(s *Spec) { s.Seeds = Seeds{List: []uint64{7, 3, 7}} }, "duplicate seeds"},
		{"seed schedule wraps", func(s *Spec) { s.Seeds = Seeds{Base: math.MaxUint64 - 5, Runs: 3, Stride: 3} }, "overflows"},
		{"seed stride product wraps", func(s *Spec) { s.Seeds = Seeds{Runs: 3, Stride: math.MaxUint64} }, "overflows"},
		{"negative platform", func(s *Spec) { s.Platform = &Platform{L1Sets: -4} }, "platform.l1_sets"},
		{"invalid cache geometry", func(s *Spec) { s.Platform = &Platform{L1Sets: 3} }, "L1"},
		{"empty fair block", func(s *Spec) {
			s.Policy = "PF"
			s.Fair = &Fair{}
		}, "fair block is empty"},
		{"avg_shift without PF", func(s *Spec) {
			s.Policy = "GWF"
			s.Fair = &Fair{AvgShift: 2}
		}, "avg_shift only applies to policy PF"},
		{"avg_shift range", func(s *Spec) {
			s.Policy = "PF"
			s.Fair = &Fair{AvgShift: 31}
		}, "avg_shift"},
		{"timescales without MTS", func(s *Spec) {
			s.Policy = "PF"
			s.Fair = &Fair{Timescales: []TimescaleSpec{{Num: 1, Den: 64, Depth: 4}}}
		}, "timescales only apply to policy MTS"},
		{"too many timescales", func(s *Spec) {
			s.Policy = "MTS"
			s.Fair = &Fair{Timescales: make([]TimescaleSpec, 9)}
		}, "≤ 8"},
		{"timescale field range", func(s *Spec) {
			s.Policy = "MTS"
			s.Fair = &Fair{Timescales: []TimescaleSpec{{Num: 1, Den: 0, Depth: 4}}}
		}, "timescales[0].den"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestValidateMultiWorkloadRules(t *testing.T) {
	s := validSpec()
	s.Run = RunWorkloads
	s.Workloads = []Workload{
		{Core: 0, Name: "matrix", Ops: 200, Criticality: CritHigh},
		{Core: 0, Name: "stream", Loop: true},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "two workloads on core 0") {
		t.Fatalf("duplicate core accepted: %v", err)
	}

	s.Workloads = []Workload{
		{Core: 0, Name: "matrix", Ops: 200, Criticality: CritHigh},
		{Core: 1, Name: "stream", Loop: true, Criticality: CritHigh},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "both HI") {
		t.Fatalf("two HI cores accepted: %v", err)
	}

	s.Workloads = []Workload{
		{Core: 0, Name: "matrix", Ops: 200, Criticality: CritHigh, Loop: true},
		{Core: 1, Name: "stream", Loop: true},
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "must terminate") {
		t.Fatalf("looping TuA accepted: %v", err)
	}

	// wcet takes exactly one workload: the injectors are synthesised.
	s = validSpec()
	s.Workloads = append(s.Workloads, Workload{Core: 1, Name: "stream"})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "exactly one workload") {
		t.Fatalf("wcet co-runner accepted: %v", err)
	}
}

func TestTuAFromCriticality(t *testing.T) {
	s := validSpec()
	s.Run = RunWorkloads
	s.Workloads = []Workload{
		{Core: 0, Name: "stream", Loop: true, Criticality: CritLow},
		{Core: 2, Name: "matrix", Ops: 200, Criticality: CritHigh},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.TuA() != 2 || c.Config.TuA != 2 {
		t.Fatalf("TuA = %d/%d, want 2 (the HI core)", c.TuA(), c.Config.TuA)
	}

	// An explicit tua that contradicts the HI core is an error.
	s.TuA = intp(0)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "HI-criticality") {
		t.Fatalf("contradictory tua accepted: %v", err)
	}
}

func TestSeedsExpand(t *testing.T) {
	if got := (Seeds{List: []uint64{9, 8}}).Expand(); !reflect.DeepEqual(got, []uint64{9, 8}) {
		t.Fatalf("list: %v", got)
	}
	if got := (Seeds{Base: 5, Runs: 3, Stride: 10}).Expand(); !reflect.DeepEqual(got, []uint64{5, 15, 25}) {
		t.Fatalf("stride: %v", got)
	}
	// Default stride is the module-wide campaign schedule.
	got := Seeds{Base: 7, Runs: 2}.Expand()
	want := []uint64{7, 7 + campaign.SeedStride}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default stride: %v, want %v", got, want)
	}
	// Zero value: one run at seed 0.
	if got := (Seeds{}).Expand(); !reflect.DeepEqual(got, []uint64{0}) {
		t.Fatalf("zero: %v", got)
	}
}

// TestSeedsValidateOverflowBoundary pins the overflow rejection exactly at
// the uint64 edge: the largest derived seed landing on MaxUint64 is legal,
// one past it is not. Before the check, Base + i·Stride wrapped silently and
// an even stride could revisit earlier seeds — duplicate runs that skew
// campaign statistics and collide content-addressed result keys.
func TestSeedsValidateOverflowBoundary(t *testing.T) {
	// Last seed exactly MaxUint64: base + (runs-1)·stride = 2^64-1.
	ok := Seeds{Base: math.MaxUint64 - 20, Runs: 3, Stride: 10}
	if err := ok.Validate(); err != nil {
		t.Fatalf("schedule ending exactly at MaxUint64 rejected: %v", err)
	}
	if got := ok.Expand(); got[2] != math.MaxUint64 {
		t.Fatalf("last seed %d, want MaxUint64", got[2])
	}
	// One past the edge wraps.
	bad := Seeds{Base: math.MaxUint64 - 19, Runs: 3, Stride: 10}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("wrapping schedule accepted: %v", err)
	}
	// The classic collision shape: an even power-of-two stride returns to
	// base after two steps — exactly what the validator must refuse.
	collide := Seeds{Base: 1, Runs: 3, Stride: 1 << 63}
	if err := collide.Validate(); err == nil {
		t.Fatal("seed-colliding schedule accepted")
	}
	// The default schedule wraps by design (modular golden-ratio stepping,
	// odd stride, injective): runs big enough to wrap must stay accepted —
	// the corpus' multiseed scenarios depend on it.
	def := Seeds{Base: 537, Runs: 6}
	if err := def.Validate(); err != nil {
		t.Fatalf("default-stride schedule rejected: %v", err)
	}
	seen := map[uint64]bool{}
	for _, s := range def.Expand() {
		if seen[s] {
			t.Fatalf("default schedule collided at seed %d", s)
		}
		seen[s] = true
	}
	// Duplicate List entries double-bill runs.
	if err := (Seeds{List: []uint64{5, 5}}).Validate(); err == nil {
		t.Fatal("duplicate list seeds accepted")
	}
}

func TestCompileConfig(t *testing.T) {
	s := Spec{
		Name:     "cfg",
		Cores:    2,
		Policy:   "TDMA",
		Platform: &Platform{L1Sets: 32, MemLatency: 40},
		Credit:   &Credit{Kind: "hcba-weights", Num: 1, Den: 2},
		Run:      RunWCET,
		Engine:   EnginePerCycle,
		TuA:      intp(1),
		Workloads: []Workload{
			{Core: 1, Name: "canrdr", Ops: 100},
		},
		Seeds: Seeds{List: []uint64{1, 2}},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	def := sim.DefaultConfig()
	cfg := c.Config
	if cfg.Cores != 2 || cfg.Policy != sim.PolicyTDMA || cfg.TuA != 1 {
		t.Fatalf("cores/policy/tua: %+v", cfg)
	}
	if cfg.Credit.Kind != sim.CreditHCBAWeights || cfg.Credit.Num != 1 || cfg.Credit.Den != 2 {
		t.Fatalf("credit: %+v", cfg.Credit)
	}
	if cfg.L1Sets != 32 || cfg.L1Ways != def.L1Ways || cfg.Latency.Mem != 40 || cfg.Latency.L2Hit != def.Latency.L2Hit {
		t.Fatalf("platform overrides: %+v", cfg)
	}
	if !cfg.ForcePerCycle {
		t.Fatal("engine per-cycle not applied")
	}
	if len(c.Seeds) != 2 {
		t.Fatalf("seeds: %v", c.Seeds)
	}
	if p := c.Program(1); p == nil {
		t.Fatal("no TuA program")
	}
	if p := c.Program(0); p != nil {
		t.Fatal("idle core got a program")
	}
}

func TestLotteryWeights(t *testing.T) {
	s := validSpec()
	s.Policy = "LOT"
	s.Run = RunWorkloads
	s.Workloads = []Workload{
		{Core: 0, Name: "matrix", Ops: 200, Weight: 6, Criticality: CritHigh},
		{Core: 2, Name: "stream", Loop: true},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{6, 1, 1, 1}
	if !reflect.DeepEqual(c.Config.Weights, want) {
		t.Fatalf("tickets %v, want %v", c.Config.Weights, want)
	}

	// No weights stated: keep the policy's unweighted default.
	s.Workloads[0].Weight = 0
	c, err = s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Config.Weights != nil {
		t.Fatalf("tickets %v, want nil", c.Config.Weights)
	}
}

// TestResultsParallelDeterminism: a scenario campaign is bit-identical at
// any worker count, like every other campaign in the module.
func TestResultsParallelDeterminism(t *testing.T) {
	s := validSpec()
	s.Seeds = Seeds{List: []uint64{3, 4, 5, 6}}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := c.Results(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := c.Results(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel scenario results diverge from serial")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := validSpec()
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Results(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(results)
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatal("snapshot does not round-trip")
	}
	// Canonical form: encoding is byte-stable.
	again, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatal("snapshot encoding is not byte-stable")
	}
	if _, err := c.Snapshot(results[:0]); err == nil {
		t.Fatal("snapshot with wrong result count accepted")
	}
}
