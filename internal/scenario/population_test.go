package scenario

import (
	"reflect"
	"strings"
	"testing"

	"creditbus/internal/sim"
)

// popSpec returns a valid workloads spec with one population, for tests to
// mutate.
func popSpec() Spec {
	return Spec{
		Name:  "pop",
		Cores: 8,
		Run:   RunWorkloads,
		Workloads: []Workload{
			{Core: 0, Name: "matrix", Ops: 200, Criticality: CritHigh},
		},
		Populations: []Population{
			{FromCore: 1, ToCore: 6, Name: "stream", Loop: true, Seed: 5, SeedStride: 2},
		},
		Seeds: Seeds{List: []uint64{3}},
	}
}

func TestPopulationValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"outside workloads run", func(s *Spec) {
			s.Run = RunWCET
			s.Workloads[0].Loop = false
			s.Workloads[0].Criticality = ""
		}, "only applies to workloads runs"},
		{"negative from", func(s *Spec) { s.Populations[0].FromCore = -1 }, "core range"},
		{"to beyond cores", func(s *Spec) { s.Populations[0].ToCore = 8 }, "core range"},
		{"inverted range", func(s *Spec) { s.Populations[0].FromCore = 5; s.Populations[0].ToCore = 2 }, "core range"},
		{"overlaps workload", func(s *Spec) { s.Populations[0].FromCore = 0 }, "already has a workload"},
		{"overlaps workload non-tua", func(s *Spec) {
			s.Workloads = append(s.Workloads, Workload{Core: 3, Name: "stream", Loop: true})
		}, "already has a workload"},
		{"overlapping populations", func(s *Spec) {
			s.Populations = append(s.Populations, Population{FromCore: 6, ToCore: 7, Name: "stream", Loop: true})
		}, "already has a workload"},
		{"covers tua", func(s *Spec) {
			s.TuA = intp(3)
			s.Workloads = append(s.Workloads, Workload{Core: 3, Name: "hitter"})
		}, "already has a workload"},
		{"unknown workload", func(s *Spec) { s.Populations[0].Name = "dhrystone" }, "unknown workload"},
		{"negative ops", func(s *Spec) { s.Populations[0].Ops = -1 }, "ops"},
		{"negative weight", func(s *Spec) { s.Populations[0].Weight = -2 }, "weight"},
		{"weight without LOT", func(s *Spec) { s.Populations[0].Weight = 2 }, "weighted policies"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := popSpec()
			c.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestPopulationCoversTuA pins the dedicated error for a population over the
// resolved TuA core (distinct from plain overlap: the TuA has no explicit
// workload yet, so the range itself is the first conflict detected).
func TestPopulationCoversTuA(t *testing.T) {
	s := popSpec()
	s.Workloads[0].Criticality = ""
	s.TuA = intp(3)
	s.Workloads[0].Core = 3
	// Population 1..6 now covers the TuA core 3, which also carries the
	// explicit workload — overlap fires first.
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "already has a workload") {
		t.Fatalf("overlap with TuA workload: %v", err)
	}
	// Move the explicit workload off the range but point tua inside it.
	s.Workloads[0].Core = 7
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "covers the TuA core 3") {
		t.Fatalf("population covering a workload-less TuA: %v", err)
	}
}

func TestMaxCoresValidation(t *testing.T) {
	s := popSpec()
	s.Cores = sim.MaxCores + 1
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "supported maximum") {
		t.Fatalf("cores above maximum accepted: %v", err)
	}

	// Out-of-range references at large populations name the platform size.
	s = popSpec()
	s.Cores = 600
	s.Workloads = append(s.Workloads, Workload{Core: 600, Name: "stream", Loop: true})
	err = s.Validate()
	if err == nil || !strings.Contains(err.Error(), "out of range [0,600)") {
		t.Fatalf("out-of-range workload core at 600 cores: %v", err)
	}

	// The maximum itself is fine (validation only; no compile).
	s = popSpec()
	s.Cores = sim.MaxCores
	if err := s.Validate(); err != nil {
		t.Fatalf("spec at MaxCores rejected: %v", err)
	}

	cfg := sim.DefaultConfig()
	cfg.Cores = sim.MaxCores + 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "supported maximum") {
		t.Fatalf("sim config above maximum accepted: %v", err)
	}
}

func TestPopulationExpansion(t *testing.T) {
	s := popSpec()
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for core := 1; core <= 6; core++ {
		src := s.Populations[0].member(core)
		if src.Name != "stream" || !src.Loop {
			t.Fatalf("core %d source = %+v", core, src)
		}
		wantSeed := uint64(5 + (core-1)*2)
		if src.Seed != wantSeed {
			t.Fatalf("core %d seed = %d, want %d", core, src.Seed, wantSeed)
		}
		want, err := buildProgram(&src)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Program(core); !reflect.DeepEqual(got, want.Clone()) {
			t.Fatalf("population member core %d runs %v, not its member workload", core, got)
		}
	}
	if c.Program(7) != nil {
		t.Fatal("core outside the population got a program")
	}

	// Defaults: seed 0 → base 1, stride 0 → 1.
	s.Populations[0].Seed = 0
	s.Populations[0].SeedStride = 0
	if got := s.Populations[0].member(4).Seed; got != 4 {
		t.Fatalf("default-seed member on core 4 has seed %d, want 4", got)
	}
}

func TestPopulationLotteryTickets(t *testing.T) {
	s := popSpec()
	s.Policy = "LOT"
	s.Populations[0].Weight = 3
	s.Workloads[0].Weight = 6
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{6, 3, 3, 3, 3, 3, 3, 1}
	if !reflect.DeepEqual(c.Config.Weights, want) {
		t.Fatalf("tickets %v, want %v", c.Config.Weights, want)
	}
}

// TestPopulationRunsBothEngines runs a small populated scenario end to end on
// both engines and checks bit-identity — populations feed the same compile
// path as explicit entries, so the engine-equivalence guarantee must carry
// over unchanged.
func TestPopulationRunsBothEngines(t *testing.T) {
	s := popSpec()
	s.Populations[0].Loop = false
	s.Populations[0].Ops = 40
	s.Workloads[0].Ops = 120
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.RunOn(new(sim.Runner), 3, EngineFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.RunOn(new(sim.Runner), 3, EnginePerCycle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatal("populated scenario diverges between engines")
	}
}
