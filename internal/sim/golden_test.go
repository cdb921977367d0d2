package sim

import (
	"testing"

	"creditbus/internal/cpu"
	"creditbus/internal/workload"
)

// TestGoldenDeterminism pins exact cycle counts for fixed seeds: the whole
// stack (rng, caches, arbitration, CBA, WCET injectors) is deterministic,
// so any change to these numbers means simulated timing changed and
// EXPERIMENTS.md must be re-validated. Update the constants deliberately,
// never to silence the test.
func TestGoldenDeterminism(t *testing.T) {
	build := func(name string, n int) cpu.Program {
		tr, err := workload.Build(name, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	type golden struct {
		name     string
		credit   CreditKind
		con      bool
		workload string
		ops      int
		seed     uint64
	}
	cases := []golden{
		{"rp-iso", CreditOff, false, "canrdr", 4000, 11},
		{"cba-iso", CreditCBA, false, "canrdr", 4000, 11},
		{"rp-con", CreditOff, true, "matrix", 6000, 11},
		{"cba-con", CreditCBA, true, "matrix", 6000, 11},
		{"hcba-con", CreditHCBAWeights, true, "tblook", 5000, 11},
	}

	got := map[string]int64{}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Credit.Kind = c.credit
		var res Result
		var err error
		if c.con {
			res, err = new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: build(c.workload, c.ops), Seed: c.seed})
		} else {
			res, err = new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: build(c.workload, c.ops), Seed: c.seed})
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = res.TaskCycles

		// Re-run: must be bit-identical.
		var res2 Result
		if c.con {
			res2, err = new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: build(c.workload, c.ops), Seed: c.seed})
		} else {
			res2, err = new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: build(c.workload, c.ops), Seed: c.seed})
		}
		if err != nil {
			t.Fatalf("%s rerun: %v", c.name, err)
		}
		if res2.TaskCycles != res.TaskCycles {
			t.Fatalf("%s: non-deterministic (%d vs %d)", c.name, res.TaskCycles, res2.TaskCycles)
		}
	}

	want := map[string]int64{
		"rp-iso":   goldenRPIso,
		"cba-iso":  goldenCBAIso,
		"rp-con":   goldenRPCon,
		"cba-con":  goldenCBACon,
		"hcba-con": goldenHCBACon,
	}
	for name, w := range want {
		if w == 0 {
			t.Logf("golden %s: measured %d (constant not yet pinned)", name, got[name])
			continue
		}
		if got[name] != w {
			t.Errorf("golden %s: %d cycles, want %d — simulated timing changed; re-validate EXPERIMENTS.md", name, got[name], w)
		}
	}
}

// Golden values pinned from the initial validated build (see
// EXPERIMENTS.md). A value of 0 means "log only".
const (
	goldenRPIso   int64 = 30206
	goldenCBAIso  int64 = 41100
	goldenRPCon   int64 = 86557
	goldenCBACon  int64 = 83768
	goldenHCBACon int64 = 74561
)
