package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"creditbus/internal/arbiter"
	"creditbus/internal/bitset"
	"creditbus/internal/bus"
	"creditbus/internal/cache"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
	"creditbus/internal/scenario"
	"creditbus/internal/sim"
)

// pickPolicies and pickCores span the arbiter ledger: every policy at the
// paper's 4 masters and at the scale-out populations.
var (
	pickPolicies = []string{"RP", "RR", "FIFO", "PRI", "LOT", "TDMA", "PF", "GWF", "MTS"}
	pickCores    = []int{4, 64, 1024}
)

// layerLedger reports the simulation layers of the traced runs and times
// each engine component on its own at the workload's parameters: the
// arbiter pick per policy, the bus horizon and advance, the credit
// arbiter's TickN, a cache access and a machine reuse. It then checks how
// much of a run's time those unit costs, weighted by the run's own event
// counts, account for (sim.ledger_coverage).
func layerLedger(e *env, k kind, recs []runRec, out metrics) error {
	counts, density, runNS := simMetrics(recs, out)
	d := e.size.ledgerTime
	seed := e.seed
	for _, p := range pickPolicies {
		for _, n := range pickCores {
			v, err := pickNS(p, n, density, seed, d)
			if err != nil {
				return err
			}
			out.set(fmt.Sprintf("arbiter.pick_ns.%s.n%d", p, n), v, "ns")
		}
	}
	cfg := k.cfg
	pick, err := pickNS(string(cfg.Policy), cfg.Cores, density, seed, d)
	if err != nil {
		return err
	}
	horizon, advance, err := busNS(cfg, seed, d)
	if err != nil {
		return err
	}
	out.set("bus.horizon_ns", horizon, "ns")
	out.set("bus.advance_ns", advance, "ns")
	maxL := cfg.Latency.MaxHold()
	out.set("core.tickn_ns.n4", ticknNS(4, maxL, d), "ns")
	out.set("core.tickn_ns.n1024", ticknNS(1024, maxL, d), "ns")
	l1 := accessNS(cache.Config{Sets: cfg.L1Sets, Ways: cfg.L1Ways, LineBytes: cfg.LineBytes, PlacementSeed: seed, ReplacementSeed: seed + 1}, seed, d)
	l2 := accessNS(cache.Config{Sets: cfg.L2Sets, Ways: cfg.L2Ways, LineBytes: cfg.LineBytes, WriteBack: true, AllocOnWrite: true, PlacementSeed: seed, ReplacementSeed: seed + 1}, seed, d)
	out.set("cache.access_ns.l1", l1, "ns")
	out.set("cache.access_ns.l2", l2, "ns")
	reuse, err := reuseUS(k, seed, d)
	if err != nil {
		return err
	}
	out.set("sim.reuse_us", reuse, "us")
	out.set("sim.ledger_coverage", coverage(counts, ledgerCosts{horizon, advance, pick, l1, l2}, runNS), "ratio")
	return nil
}

// simMetrics reports the simulation, bus, credit-arbiter and cache layers of
// traced runs from their probe counts and results, and returns the mean
// per-run counts, the mean share of masters pending per step and the mean
// run time in ns, for the ledger.
func simMetrics(recs []runRec, out metrics) (ledgerCounts, float64, float64) {
	var mean ledgerCounts
	var cycles, ns, pending, util, l1hit, l2hit, underflows float64
	var runUS []float64
	for _, r := range recs {
		d := float64(r.end.Sub(r.start).Nanoseconds())
		runUS = append(runUS, d/1e3)
		ns += d
		cycles += float64(r.res.WallCycles)
		mean.steps += r.counts.steps
		mean.grants += r.counts.grants
		mean.l1 += r.counts.l1
		mean.l2 += r.counts.l2
		pending += r.pending
		util += r.res.Utilisation
		l1hit += r.res.L1HitRate
		l2hit += r.res.L2HitRate
		underflows += float64(r.underflows)
	}
	n := float64(max(1, len(recs)))
	steps := mean.steps
	mean = ledgerCounts{mean.steps / n, mean.grants / n, mean.l1 / n, mean.l2 / n}
	out.set("sim.run_us", median(runUS), "us")
	out.set("sim.steps_per_run", mean.steps, "count")
	out.set("sim.cycles_per_step", cycles/math.Max(1, steps), "count")
	out.set("sim.ns_per_step", ns/math.Max(1, steps), "ns")
	out.set("sim.mcycles_per_s", cycles/math.Max(1, ns)*1e3, "Mcycles/s")
	out.set("bus.grants_per_run", mean.grants, "count")
	out.set("bus.utilisation", util/n, "ratio")
	out.set("core.underflows", underflows, "count")
	out.set("cache.l1_hit_ratio", l1hit/n, "ratio")
	out.set("cache.l2_hit_ratio", l2hit/n, "ratio")
	return mean, pending / n, ns / n
}

// newPolicy builds an arbitration policy by its scenario name, as sim does
// for a configuration without weights.
func newPolicy(name string, n int, seed uint64, maxL int64) (arbiter.Policy, error) {
	switch sim.PolicyKind(name) {
	case sim.PolicyRoundRobin:
		return arbiter.NewRoundRobin(n), nil
	case sim.PolicyFIFO:
		return arbiter.NewFIFO(n), nil
	case sim.PolicyTDMA:
		return arbiter.NewTDMA(n, maxL), nil
	case sim.PolicyLottery:
		return arbiter.NewLottery(n, nil, seed), nil
	case sim.PolicyRandomPerm:
		return arbiter.NewRandomPermutation(n, seed), nil
	case sim.PolicyPriority:
		return arbiter.NewFixedPriority(n), nil
	case sim.PolicyPropFair:
		return arbiter.NewPropFair(n, nil, 0), nil
	case sim.PolicyGWF:
		return arbiter.NewGWF(n, nil), nil
	case sim.PolicyMTS:
		return arbiter.NewMTS(n, nil, nil), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// pickNS times BitPicker.PickBits, each followed by the OnGrant the bus
// would make, over seeded eligibility masks in which each master is set
// with probability density (at least one master always is).
func pickNS(policy string, n int, density float64, seed uint64, d time.Duration) (float64, error) {
	p, err := newPolicy(policy, n, seed, 56)
	if err != nil {
		return 0, err
	}
	bp, ok := p.(arbiter.BitPicker)
	if !ok {
		return 0, fmt.Errorf("policy %s has no BitPicker", policy)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	masks := make([]bitset.Set, 64)
	for i := range masks {
		s := bitset.New(n)
		for m := 0; m < n; m++ {
			if rng.Float64() < density {
				s[m>>6] |= 1 << (m & 63)
			}
		}
		m := rng.IntN(n)
		s[m>>6] |= 1 << (m & 63)
		masks[i] = s
	}
	var cycle int64
	picks := 0
	start := time.Now()
	for time.Since(start) < d {
		for j := 0; j < 256; j++ {
			cycle++
			if m, ok := bp.PickBits(masks[j&63], cycle); ok {
				p.OnGrant(m, cycle)
			}
		}
		picks += 256
	}
	return float64(time.Since(start).Nanoseconds()) / float64(picks), nil
}

// timerFloor is the smallest observed cost of reading the clock twice; it is
// subtracted from calls timed one at a time.
func timerFloor() float64 {
	best := math.Inf(1)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		best = math.Min(best, float64(time.Since(t0).Nanoseconds()))
	}
	return best
}

// busNS replays a standalone bus at the configuration's population, policy
// and credit filter with every master re-posting as soon as its transaction
// completes (as the WCET injectors do), stepping it the way the fast engine
// does: horizon, advance over the uneventful cycles, one exact Tick. It
// returns the mean cost of a Horizon (timed in runs of eight calls on the
// same state, which the call does not change) and of an Advance.
func busNS(cfg sim.Config, seed uint64, d time.Duration) (horizon, advance float64, err error) {
	n := cfg.Cores
	maxL := cfg.Latency.MaxHold()
	pol, err := newPolicy(string(cfg.Policy), n, seed, maxL)
	if err != nil {
		return 0, 0, err
	}
	bc := bus.Config{Masters: n, MaxHold: maxL, Policy: pol}
	if cfg.Credit.Kind != sim.CreditOff {
		if bc.Credit, err = core.New(core.Homogeneous(n, maxL)); err != nil {
			return 0, 0, err
		}
	}
	var done []int
	bc.OnComplete = func(m int, _ uint64) { done = append(done, m) }
	b, err := bus.New(bc)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x627573))
	post := func(m int) { b.MustPost(m, bus.Request{Hold: 1 + rng.Int64N(maxL)}) }
	for m := 0; m < n; m++ {
		post(m)
	}
	floor := timerFloor()
	var th, ta time.Duration
	var nh, na int
	start := time.Now()
	for time.Since(start) < d {
		for j := 0; j < 64; j++ {
			t0 := time.Now()
			var h int64
			for k := 0; k < 8; k++ {
				h = b.Horizon()
			}
			th += time.Since(t0)
			nh += 8
			if h == bus.NoEvent {
				return 0, 0, fmt.Errorf("bus replay deadlocked at cycle %d", b.Cycle())
			}
			if skip := h - b.Cycle() - 1; skip > 0 {
				t1 := time.Now()
				b.Advance(skip)
				ta += time.Since(t1)
				na++
			}
			b.Tick()
			for _, m := range done {
				post(m)
			}
			done = done[:0]
		}
	}
	horizon = float64(th.Nanoseconds()) / float64(nh)
	if na > 0 {
		advance = math.Max(0, float64(ta.Nanoseconds())/float64(na)-floor)
	}
	return horizon, advance, nil
}

// ticknNS times core.Arbiter.TickN on a homogeneous CBA arbiter over n
// masters, cycling the holder (idle included) and the span length.
func ticknNS(n int, maxL int64, d time.Duration) float64 {
	a := core.MustNew(core.Homogeneous(n, maxL))
	calls := 0
	start := time.Now()
	for time.Since(start) < d {
		for j := 0; j < 256; j++ {
			i := calls + j
			a.TickN(i%(n+1)-1, 1+int64(i)%maxL)
		}
		calls += 256
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// accessNS times cache.Access over seeded addresses spread across twice the
// cache's capacity, one access in five a write.
func accessNS(cfg cache.Config, seed uint64, d time.Duration) float64 {
	c := cache.MustNew(cfg)
	rng := rand.New(rand.NewPCG(seed, 0x636163))
	addrs := make([]uint64, 4096)
	span := uint64(2 * cfg.SizeBytes())
	for i := range addrs {
		addrs[i] = rng.Uint64N(span) &^ 7
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < d {
		for j := 0; j < 256; j++ {
			i := calls + j
			c.Access(addrs[i&4095], i%5 == 0)
		}
		calls += 256
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// reuseUS times sim.Machine.Reuse at the kind's configuration: one machine
// is built, then reinitialised in place for fresh programs and seeds.
func reuseUS(k kind, seed uint64, d time.Duration) (float64, error) {
	cfg := k.cfg
	cfg.Mode = core.OperationMode
	if k.run == scenario.RunWCET {
		cfg.Mode = core.WCETMode
	}
	programs := func() []cpu.Program {
		if k.run == scenario.RunWorkloads {
			return k.progs()
		}
		ps := make([]cpu.Program, cfg.Cores)
		ps[cfg.TuA] = k.prog()
		return ps
	}
	m, err := sim.NewMachine(cfg, programs(), seed)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	calls := 0
	for start := time.Now(); time.Since(start) < d || calls < 4; calls++ {
		ps := programs()
		t0 := time.Now()
		if err := m.Reuse(cfg, ps, seed+uint64(calls)); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(calls), nil
}

// spanMetrics derives the per-layer times the spans carry: the scenario
// layer's calls, the handler's self time (its duration minus its replayed
// scenario children), the transport (client time minus handler time for the
// same request index) and the shard layer's chunks, saves and merges.
func spanMetrics(tr *tracer, out metrics) {
	for _, name := range []string{"parse", "compile", "cachekey", "encode"} {
		out.set("scenario."+name+"_us", median(tr.durationsUS("scenario."+name)), "us")
	}
	kids := tr.children()
	handler := map[string]float64{}
	var self []float64
	for _, root := range tr.named("service.replay") {
		var h, scen float64
		for _, c := range kids[root.ID] {
			if c.Name == "service.handler" {
				h = float64(c.dur())
			} else {
				scen += float64(c.dur())
			}
		}
		handler[root.Req] = h
		self = append(self, (h-scen)/1e3)
	}
	out.set("service.handler_us", median(self), "us")
	var transport []float64
	for _, s := range tr.named("http.request") {
		if h, ok := handler[s.Req]; ok {
			transport = append(transport, (float64(s.dur())-h)/1e3)
		}
	}
	out.set("service.transport_us", median(transport), "us")
	out.set("shard.chunk_s", median(tr.durationsUS("shard.chunk"))/1e6, "s")
	out.set("shard.save_ms", median(tr.durationsUS("shard.save"))/1e3, "ms")
	out.set("shard.merge_ms", median(tr.durationsUS("shard.merge"))/1e3, "ms")
	out.set("shard.report_encode_ms", median(tr.durationsUS("shard.encode"))/1e3, "ms")
}
