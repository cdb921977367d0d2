package sim

import (
	"testing"

	"creditbus/internal/cpu"
	"creditbus/internal/workload"
)

// The allocation benchmarks pin the machine-pooling layer's value: one
// full max-contention run on a fresh machine per iteration (the
// pre-pooling campaign protocol) against the same run on a warm Runner.
// Run them with -benchmem; B/op and allocs/op of the Reused variant are
// the numbers the BENCH_sim.json allocation gate tracks.

func benchRunSetup(b *testing.B) (Config, *cpu.Trace) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Credit.Kind = CreditCBA
	s, ok := workload.ByName("canrdr")
	if !ok {
		b.Fatal("missing workload canrdr")
	}
	return cfg, s.Build(1)
}

// BenchmarkMachineRunFresh builds a new platform every run.
func BenchmarkMachineRunFresh(b *testing.B) {
	cfg, proto := benchRunSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, _ := cpu.TryClone(proto)
		if _, err := new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: prog, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineRunReused recycles one machine across all runs — the
// steady state of a pooled campaign worker.
func BenchmarkMachineRunReused(b *testing.B) {
	cfg, proto := benchRunSetup(b)
	var rn Runner
	if _, err := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: proto.Clone(), Seed: 0}); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, _ := cpu.TryClone(proto)
		if _, err := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: prog, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
