package sim

import (
	"reflect"
	"strings"
	"testing"

	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
	"creditbus/internal/workload"
)

// trimmed returns the first n ops of a workload as a fresh program, to keep
// integration tests fast while preserving the access pattern.
func trimmed(t *testing.T, name string, n int) *cpu.Trace {
	t.Helper()
	tr, err := workload.Build(name, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Cores = 0 }, "Cores"},
		{func(c *Config) { c.TuA = 9 }, "TuA"},
		{func(c *Config) { c.StoreBufferDepth = 0 }, "StoreBufferDepth"},
		{func(c *Config) { c.Latency.Mem = 0 }, "latency"},
		{func(c *Config) { c.Policy = "XX" }, "policy"},
		{func(c *Config) { c.Credit.Kind = "zz" }, "credit"},
		{func(c *Config) { c.L1Sets = 3 }, "L1"},
		{func(c *Config) { c.L2Ways = 0 }, "L2"},
		// Lottery tickets are Weights, bounded like every other weight.
		{func(c *Config) { c.Policy, c.Weights = PolicyLottery, []int64{1, 2} }, "2 Weights for 4 cores"},
		{func(c *Config) { c.Policy, c.Weights = PolicyLottery, []int64{1, 0, 1, 1} }, "Weights[1] = 0"},
		{func(c *Config) { c.Policy, c.Weights = PolicyLottery, []int64{1, 1, MaxWeight + 1, 1} }, "Weights[2]"},
		{func(c *Config) { c.Policy, c.Weights = PolicyRoundRobin, []int64{1, 1, 1, 1} }, "only apply"},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
			t.Errorf("mutation expecting %q: got %v", c.want, err)
		}
	}
}

func TestNewMachineValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewMachine(cfg, nil, 1); err == nil {
		t.Error("program count mismatch accepted")
	}
	// WCET mode with a program on a contender core must fail.
	cfg.Mode = core.WCETMode
	cfg.Credit.Kind = CreditCBA
	programs := make([]cpu.Program, 4)
	programs[0] = trimmed(t, "matrix", 100)
	programs[1] = trimmed(t, "matrix", 100)
	if _, err := NewMachine(cfg, programs, 1); err == nil {
		t.Error("WCET mode accepted a contender program")
	}

	// Empty non-nil vectors mean unset, like nil: Validate accepts these
	// and NewMachine must build them.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Policy, c.Weights = PolicyLottery, []int64{} },
		func(c *Config) { c.Policy, c.Weights = PolicyPropFair, []int64{} },
		func(c *Config) { c.Policy, c.Weights = PolicyGWF, []int64{} },
		func(c *Config) { c.Policy, c.Weights = PolicyMTS, []int64{} },
		func(c *Config) { c.Policy, c.MTSTimescales = PolicyMTS, []Timescale{} },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewMachine(cfg, make([]cpu.Program, cfg.Cores), 1); err != nil {
			t.Errorf("%s: %v", cfg.Policy, err)
		}
	}
}

func TestIsolationDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	prog := func() cpu.Program { return trimmed(t, "canrdr", 3000) }
	a, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: prog(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: prog(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskCycles != b.TaskCycles {
		t.Fatalf("same-seed runs: %d vs %d cycles", a.TaskCycles, b.TaskCycles)
	}
	c, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: prog(), Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.TaskCycles == a.TaskCycles {
		t.Log("distinct seeds produced equal cycles (possible but unlikely); not failing")
	}
}

func TestPlacementRandomisationChangesExecutionTime(t *testing.T) {
	// tblook's 48 KiB table exceeds the 32 KiB L2 partition: hit rate, and
	// with it execution time, must vary across run seeds (the MBPTA
	// prerequisite).
	cfg := DefaultConfig()
	seen := map[int64]bool{}
	for seed := uint64(1); seed <= 6; seed++ {
		r, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: trimmed(t, "tblook", 4000), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		seen[r.TaskCycles] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct execution times over 6 seeds; randomisation broken", len(seen))
	}
}

func TestHitterTrafficIsL2Hits(t *testing.T) {
	cfg := DefaultConfig()
	r, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: trimmed(t, "hitter", 8000), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hits := r.MemCounts[mem.L2ReadHit]
	misses := r.MemCounts[mem.MissClean] + r.MemCounts[mem.MissDirty]
	// Beyond the cold pass (512 lines), random placement keeps a small
	// conflict-miss tail (~5%), so hit-dominated means ≈4:1 here.
	if hits < 4*misses {
		t.Fatalf("hitter traffic: %d L2 hits vs %d misses; want hit-dominated", hits, misses)
	}
	if r.L1HitRate > 0.2 {
		t.Fatalf("hitter L1 hit rate %.3f; the workload is built to miss L1", r.L1HitRate)
	}
}

func TestStreamTrafficIsMemoryMisses(t *testing.T) {
	cfg := DefaultConfig()
	r, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: trimmed(t, "stream", 4000), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.MemCounts[mem.MissClean] < 1500 {
		t.Fatalf("stream produced only %d clean misses", r.MemCounts[mem.MissClean])
	}
	if r.MemCounts[mem.L2ReadHit] > r.MemCounts[mem.MissClean]/10 {
		t.Fatalf("stream unexpectedly hit L2 %d times", r.MemCounts[mem.L2ReadHit])
	}
}

func TestAtomicsProduceMaxLengthTransactions(t *testing.T) {
	cfg := DefaultConfig()
	r, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: trimmed(t, "atomics", 1000), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.MemCounts[mem.AtomicRMW] < 100 {
		t.Fatalf("atomics workload produced %d RMW transactions", r.MemCounts[mem.AtomicRMW])
	}
}

func TestStoreBufferAbsorbsStores(t *testing.T) {
	// canrdr stores once per message; with a functioning store buffer the
	// core should rarely stall on stores (execution time far below the
	// fully-serialised bound).
	cfg := DefaultConfig()
	r, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: trimmed(t, "canrdr", 6000), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.CPU.Stores == 0 {
		t.Fatal("no stores executed")
	}
	// Serialised bound: every store also stalling ~6 cycles.
	if r.CPU.StallCycles > r.TaskCycles/2 {
		t.Fatalf("stalls %d of %d cycles; store buffer not absorbing", r.CPU.StallCycles, r.TaskCycles)
	}
}

// TestIllustrativeExampleOnPlatform reproduces §II end to end on the full
// platform: a dense short-request task (hitter: 5-cycle L2 hits) against
// three streaming co-runners (28-cycle memory reads) in operation mode.
//
//   - Under slot-fair round-robin the TuA's slowdown approaches the paper's
//     9.4× arithmetic (diluted here by the TuA's own L2 misses, which are
//     long requests and suffer proportionally less).
//   - With CBA every contender's bandwidth is capped at 1/N, and the TuA's
//     slowdown drops by a large factor. The paper's fluid-limit arithmetic
//     gives 2.8×; on a non-split bus the TuA additionally waits out whole
//     28-cycle contender holds that chain while it refills its own budget,
//     so the measured value sits between 2.8× and ~5×. (This is a genuine
//     property of CBA, not an artefact: CBA caps shares, and the division
//     of the residual is up to the underlying policy — the motivation for
//     H-CBA in §III.A.)
func TestIllustrativeExampleOnPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle contention run")
	}
	task := func() cpu.Program { return trimmed(t, "hitter", 10000) }
	streamers := func() []cpu.Program {
		s, _ := workload.ByName("stream")
		return []cpu.Program{
			nil,
			NewLooped(s.Build(2)),
			NewLooped(s.Build(3)),
			NewLooped(s.Build(4)),
		}
	}

	cfg := DefaultConfig()
	cfg.Policy = PolicyRoundRobin
	iso, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: task(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	progs := streamers()
	progs[0] = task()
	con, err := new(Runner).Run(cfg, RunSpec{Kind: KindWorkloads, Programs: progs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rrSlowdown := float64(con.TaskCycles) / float64(iso.TaskCycles)

	cfg.Credit.Kind = CreditCBA
	isoCBA, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: task(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	progs = streamers()
	progs[0] = task()
	conCBA, err := new(Runner).Run(cfg, RunSpec{Kind: KindWorkloads, Programs: progs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cbaSlowdown := float64(conCBA.TaskCycles) / float64(iso.TaskCycles)

	t.Logf("illustrative: iso=%d rr-con=%.2fx cba-con=%.2fx cba-iso=%.3fx",
		iso.TaskCycles, rrSlowdown, cbaSlowdown,
		float64(isoCBA.TaskCycles)/float64(iso.TaskCycles))

	if rrSlowdown < 6 || rrSlowdown > 11 {
		t.Errorf("round-robin slowdown %.2f, paper's arithmetic gives ~9.4", rrSlowdown)
	}
	if cbaSlowdown > 5.5 {
		t.Errorf("CBA slowdown %.2f far above the cycle-fair regime", cbaSlowdown)
	}
	if cbaSlowdown >= 0.75*rrSlowdown {
		t.Errorf("CBA slowdown %.2f not clearly better than RR %.2f", cbaSlowdown, rrSlowdown)
	}
	// Contender shares must be capped at 1/N by CBA.
	m, err := NewMachine(cfg, append([]cpu.Program{task()}, streamers()[1:]...), 11)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Core(0).Done() {
		m.Tick()
	}
	for i := 1; i < 4; i++ {
		if s := m.Bus().CycleShare(i); s > 0.26 {
			t.Errorf("contender %d share %.3f exceeds the CBA cap", i, s)
		}
	}
}

func TestWCETModeDeterminismAndCompGating(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Credit.Kind = CreditCBA
	prog := func() cpu.Program { return trimmed(t, "canrdr", 2000) }
	a, err := new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: prog(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := new(Runner).Run(cfg, RunSpec{Kind: KindWCET, Program: prog(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskCycles != b.TaskCycles {
		t.Fatalf("WCET-mode same-seed runs differ: %d vs %d", a.TaskCycles, b.TaskCycles)
	}
	// Contention must actually slow the task down.
	iso, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: prog(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskCycles <= iso.TaskCycles {
		t.Fatalf("max contention (%d) not slower than isolation (%d)", a.TaskCycles, iso.TaskCycles)
	}
}

func TestWCETModeTuAStartsWithZeroBudget(t *testing.T) {
	// With CBA in WCET mode the TuA's first bus request cannot be granted
	// before its budget refills from zero: 224 cycles on the default
	// platform. hitter's first op is a load, so its first grant bounds the
	// task's early progress.
	cfg := DefaultConfig()
	cfg.Credit.Kind = CreditCBA
	programs := make([]cpu.Program, cfg.Cores)
	programs[0] = trimmed(t, "hitter", 50)
	cfg.Mode = core.WCETMode
	m, err := NewMachine(cfg, programs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() && m.Cycle() < 100_000 {
		m.Tick()
	}
	if !m.Done() {
		t.Fatal("tiny program did not finish")
	}
	// 50 ops of load+alu(3) in isolation take ~45*9 cycles ≈ 400; the
	// budget preamble forces at least 224 before the very first grant.
	if m.TaskCycles(0) < 224 {
		t.Fatalf("TaskCycles = %d; zero-budget start should delay beyond 224", m.TaskCycles(0))
	}
}

func TestOperationModeContentionSharesCappedByCBA(t *testing.T) {
	if testing.Short() {
		t.Skip("contention run")
	}
	// Four streaming tasks under CBA: every core's bus cycle share must
	// respect the 1/N cap.
	cfg := DefaultConfig()
	cfg.Credit.Kind = CreditCBA
	s, _ := workload.ByName("stream")
	programs := []cpu.Program{
		NewLooped(s.Build(1)),
		NewLooped(s.Build(2)),
		NewLooped(s.Build(3)),
		trimmed(t, "stream", 3000),
	}
	cfg.TuA = 3
	r, err := new(Runner).Run(cfg, RunSpec{Kind: KindWorkloads, Programs: programs, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	// Shares are inspected through a fresh machine run to access the bus.
	m, err := NewMachine(cfg, programs, 9)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Core(3).Done() {
		m.Tick()
	}
	for mi := 0; mi < 4; mi++ {
		if s := m.Bus().CycleShare(mi); s > 0.26 {
			t.Errorf("core %d cycle share %.3f exceeds CBA cap", mi, s)
		}
	}
	if m.Credit().Underflows() != 0 {
		t.Errorf("budget underflows: %d", m.Credit().Underflows())
	}
}

func TestLoopedProgram(t *testing.T) {
	inner := cpu.NewTrace([]cpu.Op{{Kind: cpu.OpALU, Cycles: 1}, {Kind: cpu.OpALU, Cycles: 2}})
	l := NewLooped(inner)
	for i := 0; i < 7; i++ {
		op, ok := l.Next()
		if !ok {
			t.Fatal("looped program ended")
		}
		want := int64(1 + i%2)
		if op.Cycles != want {
			t.Fatalf("iteration %d: cycles %d, want %d", i, op.Cycles, want)
		}
	}
	empty := NewLooped(cpu.NewTrace(nil))
	if _, ok := empty.Next(); ok {
		t.Fatal("empty looped program returned an op")
	}
}

// TestRunWorkloadsValidation: Runner.Run rejects malformed input of every
// run kind before it touches the machine, and a rejection leaves the runner
// usable — its next valid run equals a fresh runner's.
func TestRunWorkloadsValidation(t *testing.T) {
	cfg := DefaultConfig()
	tuaOnly := func(p cpu.Program) []cpu.Program {
		ps := make([]cpu.Program, cfg.Cores)
		ps[cfg.TuA] = p
		return ps
	}
	emptyTrace := func() cpu.Program { return cpu.NewTrace(nil) }
	emptyLooped := func() cpu.Program { return NewLooped(cpu.NewTrace(nil)) }
	badCfg := cfg
	badCfg.Cores = -1

	type rejection struct {
		name string
		cfg  Config
		spec RunSpec
		want string // substring of the error
	}
	cases := []rejection{
		{"unknown kind", cfg, RunSpec{Kind: "iso", Program: smallProgram()}, "unknown run kind"},
		{"invalid config", badCfg, RunSpec{Kind: KindIsolation, Program: smallProgram()}, "Cores = -1"},
		{"both program forms", cfg, RunSpec{Kind: KindWCET, Program: smallProgram(), Programs: tuaOnly(smallProgram())}, "both"},
	}
	for _, kind := range []Kind{KindIsolation, KindWCET, KindWorkloads} {
		k := string(kind)
		cases = append(cases,
			rejection{k + " wrong length", cfg, RunSpec{Kind: kind, Programs: make([]cpu.Program, 2)}, "needs 4 programs"},
			rejection{k + " nil TuA program", cfg, RunSpec{Kind: kind}, "TuA core 0"},
			rejection{k + " nil TuA in vector", cfg, RunSpec{Kind: kind, Programs: make([]cpu.Program, cfg.Cores)}, "TuA core 0"},
			rejection{k + " empty TuA", cfg, RunSpec{Kind: kind, Program: emptyTrace()}, "core 0 is empty"},
			rejection{k + " looped empty TuA", cfg, RunSpec{Kind: kind, Program: emptyLooped()}, "core 0 is empty"},
		)
		if kind != KindWorkloads {
			cases = append(cases, rejection{k + " co-runner", cfg,
				RunSpec{Kind: kind, Programs: []cpu.Program{smallProgram(), NewLooped(smallProgram()), nil, nil}}, "core 1 has a program"})
		}
	}
	// An empty co-runner cannot generate contention: rejected immediately
	// instead of running a contention-free scenario (or, looped, leaning
	// on the deadlock guard).
	cases = append(cases,
		rejection{"workloads empty co-runner", cfg,
			RunSpec{Kind: KindWorkloads, Programs: []cpu.Program{smallProgram(), emptyTrace(), nil, nil}}, "core 1 is empty"},
		rejection{"workloads looped empty co-runner", cfg,
			RunSpec{Kind: KindWorkloads, Programs: []cpu.Program{smallProgram(), emptyLooped(), nil, nil}}, "core 1 is empty"},
	)

	valid := func() RunSpec {
		return RunSpec{Kind: KindWorkloads, Programs: []cpu.Program{smallProgram(), NewLooped(smallProgram()), nil, nil}, Seed: 7}
	}
	want, err := new(Runner).Run(cfg, valid())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rn Runner
			if _, err := rn.Run(cfg, RunSpec{Kind: KindWCET, Program: smallProgram(), Seed: 1}); err != nil {
				t.Fatal(err) // warm the runner so a rejection could corrupt a live machine
			}
			_, err := rn.Run(c.cfg, c.spec)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			got, err := rn.Run(cfg, valid())
			if err != nil {
				t.Fatalf("valid run after the rejection: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run after a rejection diverges from a fresh runner:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestAllWorkloadsRunToCompletionInIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	cfg := DefaultConfig()
	for _, name := range workload.Names() {
		s, _ := workload.ByName(name)
		r, err := new(Runner).Run(cfg, RunSpec{Kind: KindIsolation, Program: s.Build(1), Seed: 77})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if r.TaskCycles <= 0 {
			t.Errorf("%s: zero cycles", name)
		}
		t.Logf("%-8s iso=%8d cycles  util=%.3f l1=%.3f l2=%.3f reqs=%d",
			name, r.TaskCycles, r.Utilisation, r.L1HitRate, r.L2HitRate, r.Bus.Requests)
	}
}
