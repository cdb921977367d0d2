package creditbus_test

import (
	"testing"

	"creditbus"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// TestFastPathCollectMaxContentionVectors is the public-API half of the
// event-horizon differential proof (the Result-level sweep lives in
// internal/sim): for every policy × CBA variant the §III.B measurement
// campaign must return the exact same sample vector under event-horizon
// stepping as under the per-cycle reference engine — same runs, same derived
// seeds, same execution times, in the same order.
func TestFastPathCollectMaxContentionVectors(t *testing.T) {
	truncated := func(name string, ops int) creditbus.Program {
		tr, err := workload.Build(name, 1, ops)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	policies := []sim.PolicyKind{creditbus.PolicyRoundRobin, creditbus.PolicyFIFO,
		creditbus.PolicyTDMA, creditbus.PolicyLottery, creditbus.PolicyRandomPerm,
		creditbus.PolicyPriority, creditbus.PolicyPropFair, creditbus.PolicyGWF,
		creditbus.PolicyMTS}
	credits := []sim.CreditKind{creditbus.CreditOff, creditbus.CreditCBA,
		creditbus.CreditHCBAWeights, creditbus.CreditHCBACap}
	workloads := []struct {
		name string
		ops  int
	}{{"canrdr", 900}, {"matrix", 800}, {"rspeed", 0}}

	for _, policy := range policies {
		for _, credit := range credits {
			for _, wl := range workloads {
				policy, credit, wl := policy, credit, wl
				t.Run(string(policy)+"/"+string(credit)+"/"+wl.name, func(t *testing.T) {
					t.Parallel()
					cfg := creditbus.DefaultConfig()
					cfg.Policy = policy
					cfg.Credit.Kind = credit

					const runs = 5
					fast, err := creditbus.Campaign{Workers: 1}.
						CollectMaxContention(cfg, truncated(wl.name, wl.ops), runs, 7)
					if err != nil {
						t.Fatalf("fast: %v", err)
					}
					cfg.ForcePerCycle = true
					slow, err := creditbus.Campaign{Workers: 1}.
						CollectMaxContention(cfg, truncated(wl.name, wl.ops), runs, 7)
					if err != nil {
						t.Fatalf("per-cycle: %v", err)
					}
					for i := range slow {
						if slow[i] != fast[i] {
							t.Fatalf("sample %d diverged: per-cycle %v, fast %v", i, slow[i], fast[i])
						}
					}
				})
			}
		}
	}
}
