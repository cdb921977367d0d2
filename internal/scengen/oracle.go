package scengen

import (
	"fmt"
	"reflect"

	"creditbus/internal/scenario"
	"creditbus/internal/sim"
)

// Violation is one invariant breach found by Check. Details are
// deterministic strings (no maps, no addresses), so a fixed-seed fuzzing
// campaign's report is byte-reproducible.
type Violation struct {
	// Oracle names the property: run, differential, conservation, credit,
	// fairness, metamorphic or reuse.
	Oracle string
	// Seed is the run seed the violation occurred under.
	Seed uint64
	// Detail states what was observed against what the invariant demands.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("oracle=%s seed=%d: %s", v.Oracle, v.Seed, v.Detail)
}

// Check runs the spec through the invariant-oracle layer and returns every
// violation found, in deterministic order. For each seed of the schedule:
//
//   - run: both engines complete without error (a validated spec that
//     deadlocks or trips the cycle limit is a finding, not an infra error);
//   - differential: the event-horizon engine's Result is field-for-field
//     identical to the per-cycle reference engine's;
//   - conservation (checked at every step of the fast run): machine and bus
//     cycle counters stay in lockstep, busy+idle cycles partition time, the
//     per-master held cycles sum to the busy cycles, and each master's
//     completions ≤ grants ≤ requests with at most one grant in flight and
//     held ≤ grants·MaxL;
//   - credit (CBA on, same probe): every budget stays within [0, cap], no
//     drain ever underflows, and Eq. 1's conservation bound
//     budget_i(t) + S·held_i(t) ≤ init_i + t·w_i holds — whose budget ≥ 0
//     corollary is the weighted-share cap share_i(t) ≤ w_i/S + init_i/(S·t);
//   - fairness (credit-off wcet runs under PF/GWF/MTS): the symmetric,
//     permanently backlogged contention injectors end the run with
//     near-equal grant counts (pairwise ratio ≤ 1.25, runs with fewer than
//     64 grants per injector skipped);
//   - metamorphic (non-isolation runs): the same TuA program on the same
//     configuration and seed, run in isolation, finishes no later than under
//     contention, with identical instruction/load/store/atomic counts,
//     identical TuA bus request/grant/completion counts and identical cache
//     hit rates — contention may shift the TuA's timing, never its work;
//   - reuse: the run repeated on a recycled machine (scenario.Worker, the
//     campaign engine's per-worker state) yields a Result field-for-field
//     identical to the fresh machine's. The worker is shared across the
//     seed schedule — and driven twice on the first seed, so even
//     single-seed scenarios compare a genuinely reused machine — which
//     makes the fuzzing campaign guard the pooling layer with the same
//     differential rigour as the stepping engine.
//
// The returned error reports infrastructure failures only (the spec failed
// to compile); every simulation-level surprise is a Violation.
func Check(sp scenario.Spec) ([]Violation, error) {
	c, err := sp.Compile()
	if err != nil {
		return nil, fmt.Errorf("scengen: %s: %w", sp.Name, err)
	}
	w := new(scenario.Worker)
	var out []Violation
	for i, seed := range c.Seeds {
		out = append(out, checkSeed(c, w, seed, i > 0)...)
	}
	return out, nil
}

func checkSeed(c *scenario.Compiled, w *scenario.Worker, seed uint64, warm bool) []Violation {
	var out []Violation
	obs := newObserver(c)
	fast, err := c.RunOn(new(scenario.Worker), seed, scenario.EngineFast, obs.probe)
	if err != nil {
		return append(out, Violation{"run", seed, fmt.Sprintf("fast engine: %v", err)})
	}
	out = append(out, obs.violations(seed)...)

	slow, err := c.RunOn(new(scenario.Worker), seed, scenario.EnginePerCycle, nil)
	if err != nil {
		return append(out, Violation{"run", seed, fmt.Sprintf("per-cycle engine: %v", err)})
	}
	if !reflect.DeepEqual(fast, slow) {
		out = append(out, Violation{"differential", seed, fmt.Sprintf(
			"fast engine diverges from per-cycle reference: task cycles %d vs %d, wall %d vs %d",
			fast.TaskCycles, slow.TaskCycles, fast.WallCycles, slow.WallCycles)})
	}

	out = append(out, checkReuse(c, w, seed, fast, warm)...)
	out = append(out, checkMetamorphic(c, seed, fast)...)
	return out
}

// checkReuse is the machine-pooling oracle: the same (spec, seed) run on
// the schedule-shared worker must reproduce the fresh fast-engine Result
// exactly. A cold worker's first pass builds the machine (trivially equal);
// passing twice then compares a machine that already served a full run.
func checkReuse(c *scenario.Compiled, w *scenario.Worker, seed uint64, fresh sim.Result, warm bool) []Violation {
	passes := 2
	if warm {
		passes = 1
	}
	for i := 0; i < passes; i++ {
		reused, err := c.RunOn(w, seed, scenario.EngineFast, nil)
		if err != nil {
			return []Violation{{"reuse", seed, fmt.Sprintf("pooled machine: %v", err)}}
		}
		if !reflect.DeepEqual(fresh, reused) {
			return []Violation{{"reuse", seed, fmt.Sprintf(
				"reused machine diverges from fresh: task cycles %d vs %d, wall %d vs %d",
				reused.TaskCycles, fresh.TaskCycles, reused.WallCycles, fresh.WallCycles)}}
		}
	}
	return nil
}

// checkMetamorphic reruns the spec's TuA program in isolation (same
// configuration, same seed) and compares against the contended result. The
// comparison is seed-exact only when the isolation machine draws the same
// cache seeds for the TuA: true for wcet specs always (injector masters
// never draw), and for workloads specs when no co-runner occupies a
// lower-numbered core than the TuA (the machine seeds program cores in
// index order). Isolation-run specs are their own baseline — nothing to
// compare.
func checkMetamorphic(c *scenario.Compiled, seed uint64, contended sim.Result) []Violation {
	if c.Spec.Run == scenario.RunIsolation {
		return nil
	}
	tua := c.TuA()
	if c.Spec.Run == scenario.RunWorkloads {
		for _, w := range c.Spec.Workloads {
			if w.Core < tua {
				return nil // co-runner before the TuA shifts its cache seeds
			}
		}
		for _, p := range c.Spec.Populations {
			if p.FromCore < tua {
				return nil // population members below the TuA shift its cache seeds
			}
		}
	}
	cfg := c.Config
	cfg.ForcePerCycle = false // engine equality is the differential oracle's job
	iso, err := new(sim.Runner).Run(cfg, sim.RunSpec{Kind: sim.KindIsolation, Program: c.Program(tua), Seed: seed})
	if err != nil {
		return []Violation{{"metamorphic", seed, fmt.Sprintf("isolation baseline: %v", err)}}
	}

	var out []Violation
	// Task-cycle monotonicity holds only for store-free TuAs. Buffered
	// stores drain on bus timing, so contention shifts how the drain
	// interleaves with the loads' accesses to the TuA's own L2 — and with
	// randomised replacement that realignment changes which rng draw each
	// miss consumes, so a load that evicted its own line in isolation can
	// hit under contention (testdata/l2-drain-luck: the contended run is
	// exactly 2·(mem−l2hit) cycles FASTER). A store-free TuA touches the
	// L2 in program order in both runs, making the bound exact.
	if iso.CPU.Stores == 0 && iso.TaskCycles > contended.TaskCycles {
		out = append(out, Violation{"metamorphic", seed, fmt.Sprintf(
			"contention sped the TuA up: isolation %d cycles > contended %d",
			iso.TaskCycles, contended.TaskCycles)})
	}
	type pair struct {
		name     string
		iso, con int64
	}
	// Retired work is program-order-determined: both runs consume the whole
	// op stream, so the counts match exactly. The same holds for the L1,
	// which is accessed at issue time in program order (and filled only
	// while the core is stalled on the very load being filled).
	for _, p := range []pair{
		{"instructions", iso.CPU.Instructions, contended.CPU.Instructions},
		{"loads", iso.CPU.Loads, contended.CPU.Loads},
		{"stores", iso.CPU.Stores, contended.CPU.Stores},
		{"atomics", iso.CPU.Atomics, contended.CPU.Atomics},
	} {
		if p.iso != p.con {
			out = append(out, Violation{"metamorphic", seed, fmt.Sprintf(
				"contention changed the TuA's work: %s %d in isolation vs %d contended",
				p.name, p.iso, p.con)})
		}
	}
	if iso.L1HitRate != contended.L1HitRate {
		out = append(out, Violation{"metamorphic", seed, fmt.Sprintf(
			"contention changed the TuA's L1 behaviour: hit rate %.6f vs %.6f",
			iso.L1HitRate, contended.L1HitRate)})
	}
	// Bus-side counters are sampled at TuA retirement, and the write-through
	// store buffer may still be draining then: transactions for buffered
	// stores post and complete after the core is architecturally done. The
	// wiggle is bidirectional — contention delays the drain (fewer trailing
	// posts), but it also stalls the core on a full buffer, so the slow run
	// can have issued more of the tail stores by its own retirement. Either
	// way the discrepancy is bounded by the buffer capacity plus the one
	// transaction in flight; the total transaction set is identical. (The
	// L2 is accessed at post time, so its hit rate shares this
	// trailing-drain wiggle and is deliberately not compared.)
	slack := int64(c.Config.StoreBufferDepth) + 1
	for _, p := range []pair{
		{"bus requests", iso.Bus.Requests, contended.Bus.Requests},
		{"bus grants", iso.Bus.Grants, contended.Bus.Grants},
		{"bus completions", iso.Bus.Completions, contended.Bus.Completions},
	} {
		d := p.iso - p.con
		if d < -slack || d > slack {
			out = append(out, Violation{"metamorphic", seed, fmt.Sprintf(
				"contention changed the TuA's traffic beyond the store-buffer drain: %s %d in isolation vs %d contended (slack %d)",
				p.name, p.iso, p.con, slack)})
		}
	}
	return out
}

// observer is the step-granularity probe: at every engine step it re-checks
// the conservation and credit invariants and records the first breach of
// each oracle (one is enough — the repro pinpoints the rest). For
// fairness-zoo WCET runs it additionally tracks the final per-master grant
// counts, which the fairness oracle compares after the run.
type observer struct {
	maxHold      int64
	conservation *string // first conservation breach, nil while clean
	credit       *string

	// Fairness oracle state (fairPolicy != "" arms it): WCET injectors are
	// permanently backlogged symmetric masters of equal weight, so a
	// fairness policy owes them near-equal grant counts — see violations.
	fairPolicy string
	tua        int
	grants     []int64 // final per-master grant counts (overwritten per probe)
}

func newObserver(c *scenario.Compiled) *observer {
	o := &observer{maxHold: c.Config.Latency.MaxHold()}
	// The fairness bound is only closed-form when the policy alone shapes
	// the schedule: WCET injectors (always backlogged, uniform MaxL holds,
	// weight 1 — only the TuA's workload entry can carry a weight) with no
	// credit filter in front of the policy.
	if c.Spec.Run == scenario.RunWCET && c.Config.Credit.Kind == sim.CreditOff {
		switch c.Config.Policy {
		case sim.PolicyPropFair, sim.PolicyGWF, sim.PolicyMTS:
			o.fairPolicy = string(c.Config.Policy)
			o.tua = c.TuA()
			o.grants = make([]int64, c.Config.Cores)
		}
	}
	return o
}

func (o *observer) probe(m *sim.Machine) {
	b := m.Bus()
	t := b.Cycle()

	if o.grants != nil {
		for i := range o.grants {
			o.grants[i] = b.Stats(i).Grants
		}
	}

	if o.conservation == nil {
		fail := func(format string, args ...any) {
			if o.conservation != nil {
				return
			}
			s := fmt.Sprintf("at cycle %d: ", t) + fmt.Sprintf(format, args...)
			o.conservation = &s
		}
		switch {
		case m.Cycle() != t:
			fail("machine cycle %d out of lockstep with bus cycle", m.Cycle())
		case b.BusyCycles()+b.IdleCycles() != t:
			fail("busy %d + idle %d do not partition time", b.BusyCycles(), b.IdleCycles())
		default:
			var held int64
			for i := 0; i < b.Masters(); i++ {
				st := b.Stats(i)
				held += st.HeldCycles
				switch {
				case st.Grants < st.Completions || st.Grants > st.Completions+1:
					fail("master %d: grants %d vs completions %d (at most one in flight)",
						i, st.Grants, st.Completions)
				case st.Grants > st.Requests:
					fail("master %d: grants %d exceed requests %d", i, st.Grants, st.Requests)
				case st.HeldCycles > st.Grants*o.maxHold:
					fail("master %d: held %d cycles on %d grants exceeds MaxL %d each",
						i, st.HeldCycles, st.Grants, o.maxHold)
				}
			}
			if o.conservation == nil && held != b.BusyCycles() {
				fail("per-master held cycles sum to %d, busy cycles %d", held, b.BusyCycles())
			}
		}
	}

	cr := m.Credit()
	if cr == nil || o.credit != nil {
		return
	}
	fail := func(format string, args ...any) {
		if o.credit != nil {
			return
		}
		s := fmt.Sprintf("at cycle %d: ", t) + fmt.Sprintf(format, args...)
		o.credit = &s
	}
	if n := cr.Underflows(); n != 0 {
		fail("%d budget underflows (drain past zero)", n)
		return
	}
	scale := cr.Scale()
	for i := 0; i < cr.Masters(); i++ {
		bd := cr.Budget(i)
		switch {
		case bd < 0 || bd > cr.Cap(i):
			fail("master %d budget %d outside [0, %d]", i, bd, cr.Cap(i))
		case bd+scale*m.Bus().Stats(i).HeldCycles > cr.InitialBudget(i)+t*cr.Weight(i):
			// Eq. 1 conservation: budget(t) = init + t·w − S·held − capLoss
			// with capLoss ≥ 0; budget ≥ 0 then caps the weighted share at
			// held/t ≤ w/S + init/(S·t).
			fail("master %d breaks Eq. 1 conservation: budget %d + %d·held %d > init %d + t·w %d",
				i, bd, scale, m.Bus().Stats(i).HeldCycles, cr.InitialBudget(i), t*cr.Weight(i))
		}
		if o.credit != nil {
			return
		}
	}
}

func (o *observer) violations(seed uint64) []Violation {
	var out []Violation
	if o.conservation != nil {
		out = append(out, Violation{"conservation", seed, *o.conservation})
	}
	if o.credit != nil {
		out = append(out, Violation{"credit", seed, *o.credit})
	}
	out = append(out, o.fairness(seed)...)
	return out
}

// fairness is the fairness-bound oracle: on a credit-off WCET run under a
// fairness-zoo policy, the contention injectors are symmetric — permanently
// backlogged, identical MaxL holds, weight 1 — so the long-run grant counts
// the policy hands them must be near-equal. The bound is the pairwise ratio
// max/min ≤ 1.25; runs too short for the asymptotic claim (any injector
// under 64 grants) are skipped rather than weakly asserted.
func (o *observer) fairness(seed uint64) []Violation {
	if o.fairPolicy == "" {
		return nil
	}
	lo, hi := int64(-1), int64(-1)
	loM, hiM := -1, -1
	for i, g := range o.grants {
		if i == o.tua {
			continue
		}
		if lo < 0 || g < lo {
			lo, loM = g, i
		}
		if g > hi {
			hi, hiM = g, i
		}
	}
	if lo < 64 {
		return nil // too few grants for the asymptotic bound
	}
	if hi*4 > lo*5 { // hi/lo > 1.25
		return []Violation{{"fairness", seed, fmt.Sprintf(
			"%s starved a symmetric injector: master %d got %d grants, master %d got %d (ratio > 1.25)",
			o.fairPolicy, hiM, hi, loM, lo)}}
	}
	return nil
}
