package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"creditbus"
	"creditbus/internal/campaign"
	"creditbus/internal/cpu"
	"creditbus/internal/scenario"
	"creditbus/internal/sim"
)

// kind is one way a workload runs a simulation: a platform configuration, a
// run kind and a fresh program instance per run.
type kind struct {
	cfg   sim.Config
	run   string               // scenario.RunWCET, RunIsolation or RunWorkloads
	prog  func() cpu.Program   // the TuA's program (wcet, isolation)
	progs func() []cpu.Program // one program per core (workloads)
}

func kindOf(c *scenario.Compiled) kind {
	return kind{
		cfg:   c.Config,
		run:   c.Spec.Run,
		prog:  func() cpu.Program { return c.Program(c.TuA()) },
		progs: c.Programs,
	}
}

// exec runs one simulation on rn. With a nil probe and perCycle false it is
// exactly scenario.Compiled.RunSeedRunner (and, for the MBPTA kind, one run
// of creditbus.Campaign): the digests the traced runs must reproduce prove it.
func (k kind) exec(rn *sim.Runner, seed uint64, perCycle bool, probe sim.Probe) (sim.Result, error) {
	cfg := k.cfg
	cfg.ForcePerCycle = cfg.ForcePerCycle || perCycle
	switch k.run {
	case scenario.RunWCET:
		return rn.MaxContentionProbed(cfg, k.prog(), seed, probe)
	case scenario.RunIsolation:
		return rn.IsolationProbed(cfg, k.prog(), seed, probe)
	default:
		return rn.WorkloadsProbed(cfg, k.progs(), seed, probe)
	}
}

// unit is one simulation run: which kind, which seed.
type unit struct {
	k    int
	seed uint64
}

// runRec is one executed run as the benchmark saw it from outside.
type runRec struct {
	res        sim.Result
	worker     int
	start, end time.Time
	// Filled on traced runs only, through a sim.Probe.
	counts     ledgerCounts
	pending    float64 // mean share of masters with a pending request per step
	underflows int64
}

type worker struct {
	id int
	rn sim.Runner
}

// runUnits executes units through campaign.Do on e.workers pooled runners —
// the engine behind creditbus.Campaign — and returns one record per unit in
// unit order. A non-nil tracer adds a probe to every run and records a
// campaign.job span with one sim.run span per run.
func runUnits(e *env, kinds []kind, units []unit, perCycle bool, tr *tracer, job string) ([]runRec, error) {
	var ids atomic.Int64
	jobSpan := tr.open("campaign.job", -1, job)
	recs, err := campaign.Do(campaign.Options[*worker]{
		Workers:        e.workers,
		PerWorkerState: func() *worker { return &worker{id: int(ids.Add(1) - 1)} },
	}, len(units), func(w *worker, i int) (runRec, error) {
		u := units[i]
		rec := runRec{worker: w.id}
		var probe sim.Probe
		var m *sim.Machine
		var last int64
		var pend float64
		if tr != nil {
			probe = func(mm *sim.Machine) {
				m = mm
				if c := mm.Cycle(); c > last {
					rec.counts.steps++
					last = c
					for _, word := range mm.Bus().PendingWords() {
						pend += float64(bits.OnesCount64(word))
					}
				}
			}
		}
		rec.start = time.Now()
		res, err := kinds[u.k].exec(&w.rn, u.seed, perCycle, probe)
		rec.end = time.Now()
		rec.res = res
		if m != nil {
			rec.fill(m, pend)
			tr.add("sim.run", jobSpan, fmt.Sprintf("%s/run-%d", job, i), rec.start, rec.end)
		}
		return rec, err
	})
	tr.finish(jobSpan)
	return recs, err
}

// fill reads a finished run's event counts off its machine.
func (r *runRec) fill(m *sim.Machine, pend float64) {
	b := m.Bus()
	for i := 0; i < b.Masters(); i++ {
		r.counts.grants += float64(b.Stats(i).Grants)
	}
	for i := 0; i < m.Config().Cores; i++ {
		if c := m.L1(i); c != nil {
			s := c.Stats()
			r.counts.l1 += float64(s.Reads + s.Writes)
		}
		if c := m.L2(i); c != nil {
			s := c.Stats()
			r.counts.l2 += float64(s.Reads + s.Writes)
		}
	}
	if a := m.Credit(); a != nil {
		r.underflows = a.Underflows()
	}
	if r.counts.steps > 0 {
		r.pending = pend / r.counts.steps / float64(b.Masters())
	}
}

func results(recs []runRec) []sim.Result {
	out := make([]sim.Result, len(recs))
	for i, r := range recs {
		out[i] = r.res
	}
	return out
}

// digestOf is the hex SHA-256 over the canonical snapshot encoding of each
// result, in order — the bytes a /v1/run response and a corpus golden file
// carry. With a tracer every encoding is a scenario.encode span.
func digestOf(res []sim.Result, tr *tracer) (string, error) {
	lines := make([][]byte, len(res))
	for i, r := range res {
		t0 := time.Now()
		b, err := json.Marshal(scenario.Snap(r))
		tr.add("scenario.encode", -1, fmt.Sprintf("result-%d", i), t0, time.Now())
		if err != nil {
			return "", err
		}
		lines[i] = b
	}
	return hashLines(lines), nil
}

// snapDigest is digestOf over results already in snapshot form, as a
// /v1/run response carries them.
func snapDigest(snaps []scenario.ResultSnapshot) (string, error) {
	lines := make([][]byte, len(snaps))
	for i, s := range snaps {
		b, err := json.Marshal(s)
		if err != nil {
			return "", err
		}
		lines[i] = b
	}
	return hashLines(lines), nil
}

func hashLines(lines [][]byte) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batch is a workload made of simulation jobs: mbpta-canrdr and arb-1024.
type batch struct {
	e     *env
	kinds []kind
	// specs are the kinds in scenario form, for the service and shard layers.
	specs []scenario.Spec
	job   func(j int) []unit
	jobs  [][]runRec
	// user re-runs a prefix of job 0 through the path a library user calls
	// and reports a mismatch; nil when the job already is that path.
	user func(job0 []sim.Result) error
}

func (b *batch) close() {}

// warm runs a few units so that lazily built state (program traces, code
// and heap pages) is in place before timing, as a user's first campaign
// would have it.
func (b *batch) warm() error {
	units := b.job(0)
	_, err := runUnits(b.e, b.kinds, units[:min(len(units), 2*b.e.workers)], false, nil, "warm")
	return err
}

func (b *batch) measure(budget time.Duration) (sample, error) {
	var s sample
	var jobSecs []float64
	start := time.Now()
	for j := 0; ; j++ {
		// Stop when one more job would overrun the budget by more than half
		// a job, so a run measures for about --seconds whatever the job size.
		if j > 0 && time.Since(start).Seconds()+median(jobSecs)/2 >= budget.Seconds() {
			break
		}
		units := b.job(j)
		t0 := time.Now()
		recs, err := runUnits(b.e, b.kinds, units, false, nil, fmt.Sprintf("job-%d", j))
		d := time.Since(t0).Seconds()
		s.attempted += int64(len(units))
		jobSecs = append(jobSecs, d)
		if err != nil {
			fmt.Fprintf(b.e.log, "FAIL job %d: %v\n", j, err)
			s.failed += int64(len(units))
			s.windows = append(s.windows, []float64{math.Inf(1)})
			continue
		}
		s.rates = append(s.rates, float64(len(units))/d)
		s.windows = append(s.windows, []float64{1e3 * d})
		b.jobs = append(b.jobs, recs)
	}
	return s, nil
}

// verify re-runs a seeded sample of the timed runs on the per-cycle
// reference engine, which must give identical Results, and checks job 0
// against the user path.
func (b *batch) verify() (int, error) {
	type ref struct{ j, i int }
	var all []ref
	for j, recs := range b.jobs {
		for i := range recs {
			all = append(all, ref{j, i})
		}
	}
	if len(all) == 0 {
		return 0, nil
	}
	n := min(len(all), max(b.e.size.verifyMin, int(math.Ceil(0.01*float64(len(all))))))
	rng := rand.New(rand.NewPCG(b.e.seed, 0x7065726379636c65))
	picked := rng.Perm(len(all))[:n]
	units := make([]unit, n)
	for k, p := range picked {
		units[k] = b.job(all[p].j)[all[p].i]
	}
	recs, err := runUnits(b.e, b.kinds, units, true, nil, "verify")
	if err != nil {
		return 0, err
	}
	bad := 0
	for k, p := range picked {
		want := b.jobs[all[p].j][all[p].i].res
		if !reflect.DeepEqual(recs[k].res, want) {
			fmt.Fprintf(b.e.log, "FAIL job %d run %d: per-cycle engine disagrees\n", all[p].j, all[p].i)
			bad++
		}
	}
	fmt.Fprintf(b.e.log, "verify: %d of %d runs re-run on the per-cycle engine, %d mismatches\n", n, len(all), bad)
	if b.user != nil {
		if err := b.user(results(b.jobs[0])); err != nil {
			fmt.Fprintf(b.e.log, "FAIL user path: %v\n", err)
			bad++
		}
	}
	return bad, nil
}

func (b *batch) digest() (string, error) {
	if len(b.jobs) == 0 {
		return "", fmt.Errorf("no job completed")
	}
	return digestOf(results(b.jobs[0]), nil)
}

// trace runs job 0 untraced and traced — the difference is the tracing
// overhead, and the traced digest must equal the untraced one — then drives
// the same runs' specs through the service and shard layers and runs the
// layer ledger.
func (b *batch) trace(tr *tracer, out metrics) (string, error) {
	units := b.job(0)
	t0 := time.Now()
	plain, err := runUnits(b.e, b.kinds, units, false, nil, "job-0")
	if err != nil {
		return "", err
	}
	untraced := time.Since(t0)
	b.jobs = [][]runRec{plain}
	t1 := time.Now()
	recs, err := runUnits(b.e, b.kinds, units, false, tr, "job-0")
	if err != nil {
		return "", err
	}
	traced := time.Since(t1)
	got, err := digestOf(results(recs), tr)
	if err != nil {
		return "", err
	}
	out.set("trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	campaignMetrics(recs, t1, t1.Add(traced), b.e.workers, out)
	// The service and shard layers see the same specs with the job's
	// seeds: one seed per request, a few units per spec in the campaign.
	var bodies [][]byte
	for i, u := range units[:min(len(units), b.e.size.miniRequests)] {
		sp := b.specs[u.k]
		sp.Name = fmt.Sprintf("%s-%d", sp.Name, i)
		sp.Seeds = scenario.Seeds{List: []uint64{u.seed}}
		body, err := sp.Encode()
		if err != nil {
			return "", err
		}
		bodies = append(bodies, body)
	}
	if err := miniService(b.e, tr, bodies, out); err != nil {
		return "", err
	}
	if err := miniShard(b.e, tr, b.specs, mix(b.e.seed, 0), out); err != nil {
		return "", err
	}
	if err := layerLedger(b.e, b.kinds[0], recs, out); err != nil {
		return "", err
	}
	spanMetrics(tr, out)
	return got, nil
}

// campaignMetrics derives the campaign layer's numbers from one traced job:
// how long a run waited for a worker after the previous run on it ended
// (the pool's dispatch cost) and the share of worker time spent simulating.
func campaignMetrics(recs []runRec, start, end time.Time, workers int, out metrics) {
	byWorker := map[int][]runRec{}
	var busy time.Duration
	for _, r := range recs {
		byWorker[r.worker] = append(byWorker[r.worker], r)
		busy += r.end.Sub(r.start)
	}
	var waits []float64
	for _, rs := range byWorker {
		sort.Slice(rs, func(i, j int) bool { return rs[i].start.Before(rs[j].start) })
		prev := start
		for _, r := range rs {
			waits = append(waits, float64(max(0, r.start.Sub(prev).Nanoseconds()))/1e3)
			prev = r.end
		}
	}
	out.set("campaign.wait_us", median(waits), "us")
	out.set("campaign.busy_frac", busy.Seconds()/(float64(workers)*end.Sub(start).Seconds()), "ratio")
}

// mbptaSpec is the MBPTA workload's platform in scenario form: canrdr under
// maximum contention, 4 cores, CBA over random permutations.
func mbptaSpec() scenario.Spec {
	return scenario.Spec{
		Name:      "mbpta-canrdr",
		Cores:     4,
		Policy:    "RP",
		Credit:    &scenario.Credit{Kind: "cba"},
		Run:       scenario.RunWCET,
		Workloads: []scenario.Workload{{Core: 0, Name: "canrdr", Seed: 1}},
		Seeds:     scenario.Seeds{List: []uint64{1}},
	}
}

// openMBPTA sets up the paper's §III.B protocol: campaigns of
// e.size.mbptaRuns runs of canrdr, 4 cores, CBA over random permutations,
// WCET mode, each campaign with its own base seed.
func openMBPTA(e *env) (instance, error) {
	cfg := creditbus.DefaultConfig()
	cfg.Credit.Kind = creditbus.CreditCBA
	prog, err := creditbus.BuildWorkload("canrdr", 1)
	if err != nil {
		return nil, err
	}
	k := kind{cfg: cfg, run: scenario.RunWCET, prog: func() cpu.Program {
		p, _ := cpu.TryClone(prog)
		return p
	}}
	runs := e.size.mbptaRuns
	b := &batch{
		e:     e,
		kinds: []kind{k},
		specs: []scenario.Spec{mbptaSpec()},
		job: func(j int) []unit {
			base := mix(e.seed, uint64(j))
			units := make([]unit, runs)
			for i := range units {
				units[i] = unit{0, base + uint64(i)*campaign.SeedStride}
			}
			return units
		},
	}
	b.user = func(job0 []sim.Result) error {
		n := min(50, len(job0))
		got, err := creditbus.Campaign{Workers: e.workers}.CollectMaxContention(cfg, prog, n, mix(e.seed, 0))
		if err != nil {
			return err
		}
		for i, v := range got {
			if v != float64(job0[i].TaskCycles) {
				return fmt.Errorf("run %d: creditbus.Campaign gives %v cycles, the benchmark %d", i, v, job0[i].TaskCycles)
			}
		}
		return nil
	}
	return b, b.warm()
}

// arbPolicies are the policies arb-1024 rotates through, run by run.
var arbPolicies = []string{"RP", "RR", "FIFO", "LOT", "PF", "GWF", "MTS"}

// arbSpec is 1024-master WCET-mode canrdr (6 ops) under CBA and the given
// policy: 1023 Table I injectors keep every master contending.
func arbSpec(policy string) scenario.Spec {
	return scenario.Spec{
		Name:      "arb-1024-" + policy,
		Cores:     1024,
		Policy:    policy,
		Credit:    &scenario.Credit{Kind: "cba"},
		Run:       scenario.RunWCET,
		Workloads: []scenario.Workload{{Core: 0, Name: "canrdr", Ops: 6}},
		Seeds:     scenario.Seeds{List: []uint64{1}},
	}
}

// openArb sets up arb-1024: jobs of e.size.arbRuns runs, run i under
// arbPolicies[i mod 7], each on pooled runners via the compiled scenario.
func openArb(e *env) (instance, error) {
	b := &batch{e: e}
	for _, p := range arbPolicies {
		sp := arbSpec(p)
		c, err := sp.Compile()
		if err != nil {
			return nil, err
		}
		b.kinds = append(b.kinds, kindOf(c))
		b.specs = append(b.specs, sp)
	}
	runs := e.size.arbRuns
	b.job = func(j int) []unit {
		units := make([]unit, runs)
		for i := range units {
			units[i] = unit{i % len(arbPolicies), mix(e.seed, uint64(j*runs+i))}
		}
		return units
	}
	return b, b.warm()
}
