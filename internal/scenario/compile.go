package scenario

import (
	"creditbus/internal/campaign"
	"creditbus/internal/cpu"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// config translates the declarative fields into a sim.Config. It assumes a
// structurally valid spec (Validate enforces the schema rules); sim.Config's
// own Validate still runs on the result.
func (s Spec) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = s.cores()
	if p := s.Platform; p != nil {
		if p.L1Sets > 0 {
			cfg.L1Sets = p.L1Sets
		}
		if p.L1Ways > 0 {
			cfg.L1Ways = p.L1Ways
		}
		if p.L2Sets > 0 {
			cfg.L2Sets = p.L2Sets
		}
		if p.L2Ways > 0 {
			cfg.L2Ways = p.L2Ways
		}
		if p.LineBytes > 0 {
			cfg.LineBytes = p.LineBytes
		}
		if p.StoreBufferDepth > 0 {
			cfg.StoreBufferDepth = p.StoreBufferDepth
		}
		if p.L2HitLatency > 0 {
			cfg.Latency.L2Hit = p.L2HitLatency
		}
		if p.MemLatency > 0 {
			cfg.Latency.Mem = p.MemLatency
		}
	}
	cfg.Policy = s.policy()
	cfg.Weights = s.coreWeights(cfg.Cores)
	if f := s.Fair; f != nil {
		cfg.PFAvgShift = f.AvgShift
		if len(f.Timescales) > 0 {
			cfg.MTSTimescales = make([]sim.Timescale, len(f.Timescales))
			for i, ts := range f.Timescales {
				cfg.MTSTimescales[i] = sim.Timescale{Num: ts.Num, Den: ts.Den, Depth: ts.Depth}
			}
		}
	}
	cfg.Credit.Kind = s.credit()
	if c := s.Credit; c != nil {
		if c.Privileged != nil {
			cfg.Credit.Privileged = *c.Privileged
		}
		cfg.Credit.Num, cfg.Credit.Den = c.Num, c.Den
		cfg.Credit.CapFactor = c.CapFactor
	}
	if tua, err := s.tua(); err == nil {
		cfg.TuA = tua
	}
	cfg.ForcePerCycle = s.Engine == EnginePerCycle
	return cfg
}

// coreWeights derives sim.Config.Weights from workload weights — lottery
// tickets under LOT, fairness-zoo entitlements under PF/GWF/MTS.
// Weightless cores (and cores without workloads — WCET injectors still
// arbitrate) hold weight 1. Nil when no workload states a weight, which
// keeps the policy's unweighted default.
func (s Spec) coreWeights(cores int) []int64 {
	weighted := false
	tickets := make([]int64, cores)
	for i := range tickets {
		tickets[i] = 1
	}
	for _, w := range s.Workloads {
		if w.Weight > 0 {
			tickets[w.Core] = w.Weight
			weighted = true
		}
	}
	for _, p := range s.Populations {
		if p.Weight > 0 {
			for c := p.FromCore; c <= p.ToCore && c < cores; c++ {
				tickets[c] = p.Weight
			}
			weighted = true
		}
	}
	if !weighted {
		return nil
	}
	return tickets
}

// Compiled is a validated, executable scenario: the sim.Config, the run
// kind, the materialised seed schedule and fresh-program factories for
// every participating core.
type Compiled struct {
	// Spec is the source spec.
	Spec Spec
	// Config is the compiled platform configuration (Engine already
	// applied via ForcePerCycle).
	Config sim.Config
	// Seeds is the materialised run-seed schedule.
	Seeds []uint64

	tua  int
	kind sim.Kind
	// protos holds one built program per core (nil = idle). Prototypes
	// are never executed: Program hands out clones (shared read-only op
	// slice, fresh cursor), so building the trace happens once per
	// scenario instead of once per run.
	protos []cpu.Cloner
}

// Compile validates the spec and resolves everything executable about it.
func (s Spec) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := s.config()
	tua, _ := s.tua()
	c := &Compiled{
		Spec:   s,
		Config: cfg,
		Seeds:  s.Seeds.Expand(),
		tua:    tua,
		kind:   sim.Kind(s.Run),
		protos: make([]cpu.Cloner, cfg.Cores),
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		prog, err := buildProgram(w)
		if err != nil {
			return nil, err
		}
		c.protos[w.Core] = prog
	}
	// Populations expand to per-member Workload entries with derived seeds.
	// Members of the same population running the same workload at different
	// seeds share nothing: each gets its own prototype, so cloning per run
	// stays per-core independent exactly as with explicit entries.
	for i := range s.Populations {
		p := s.Populations[i]
		for core := p.FromCore; core <= p.ToCore; core++ {
			w := p.member(core)
			prog, err := buildProgram(&w)
			if err != nil {
				return nil, err
			}
			c.protos[core] = prog
		}
	}
	return c, nil
}

// buildProgram instantiates one Workload entry's program: a trace, looped
// when the entry asks for it. Both always clone.
func buildProgram(w *Workload) (cpu.Cloner, error) {
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	tr, err := workload.Build(w.Name, seed, w.Ops)
	if err != nil {
		return nil, err
	}
	if w.Loop {
		return sim.NewLooped(tr), nil
	}
	return tr, nil
}

// TuA returns the resolved task-under-analysis core.
func (c *Compiled) TuA() int { return c.tua }

// Program returns a fresh instance of the program on the given core, or
// nil for an idle core. Fresh per call: machines consume the program
// cursor, so parallel runs must never share an instance.
func (c *Compiled) Program(core int) cpu.Program {
	if core < 0 || core >= len(c.protos) || c.protos[core] == nil {
		return nil
	}
	return c.protos[core].Clone()
}

// Programs builds a fresh full per-core program vector.
func (c *Compiled) Programs() []cpu.Program {
	out := make([]cpu.Program, len(c.protos))
	for i := range c.protos {
		out[i] = c.Program(i)
	}
	return out
}

// RunSeed executes one run on a fresh machine, on the spec's engine.
func (c *Compiled) RunSeed(seed uint64) (sim.Result, error) {
	return c.RunOn(new(Worker), seed, "", nil)
}

// Worker is one campaign worker's reusable execution state: a recycled
// sim.Machine (via sim.Runner) plus one program instance per core of the
// Compiled it last ran. Every scenario unit — a campaign seed, a shard
// unit, a /v1/run seed — runs on one. The zero value is ready to use; a
// Worker is a single-goroutine object and keeps its last Compiled until
// its next run.
type Worker struct {
	rn    sim.Runner
	c     *Compiled
	progs []cpu.Program
}

// RunOn executes one run of c on w. Results are bit-identical to a fresh
// RunSeed whatever w served before: Machine.Reuse restores the platform
// (enforced corpus-wide by TestReuseDifferential and the scengen reuse
// oracle), w's programs are cloned from c only when w last ran a different
// Compiled, and sim.Runner.Run rewinds them otherwise. A non-empty engine
// (EngineFast or EnginePerCycle) overrides the spec's; a non-nil probe
// observes every step (scengen's invariant oracles). Goroutines may share
// one Compiled as long as each owns its Worker.
func (c *Compiled) RunOn(w *Worker, seed uint64, engine string, probe sim.Probe) (sim.Result, error) {
	if w.c != c {
		w.c, w.progs = c, c.Programs()
	}
	cfg := c.Config
	if engine != "" {
		cfg.ForcePerCycle = engine == EnginePerCycle
	}
	return w.rn.Run(cfg, sim.RunSpec{Kind: c.kind, Programs: w.progs, Seed: seed, Probe: probe})
}

// Results executes the whole seed schedule through the campaign engine and
// returns per-seed results in schedule order — bit-identical at any worker
// count, exactly like every other campaign in the module. Each worker runs
// its share of the schedule on one Worker.
func (c *Compiled) Results(workers int, progress campaign.Progress) ([]sim.Result, error) {
	return campaign.Do(campaign.Options[*Worker]{
		Workers:        workers,
		Progress:       progress,
		PerWorkerState: func() *Worker { return new(Worker) },
	}, len(c.Seeds),
		func(w *Worker, r int) (sim.Result, error) {
			return c.RunOn(w, c.Seeds[r], "", nil)
		})
}
