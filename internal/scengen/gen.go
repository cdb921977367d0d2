// Package scengen turns the curated 25-scenario corpus into an unbounded,
// self-checking scenario space: a seeded, deterministic random generator of
// valid scenario.Spec documents (Generate) plus an invariant-oracle layer
// (Check) that validates every run against closed-form properties of the
// paper's credit-based arbitration instead of golden snapshots — engine
// differential equality, bus work conservation, Eq. 1 budget bounds and
// weighted-share caps, and metamorphic contention monotonicity. Minimize
// shrinks a failing spec to a small repro. cmd/scenfuzz drives millions of
// generated scenarios through the oracles on the campaign worker pool;
// FuzzScenario feeds the same generator from native fuzzing bytes.
//
// DESIGN.md §8 documents the sampling space and states each oracle
// formally.
package scengen

import (
	"fmt"

	"creditbus/internal/rng"
	"creditbus/internal/scenario"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// Source supplies the generator's random choices. Two implementations
// exist: the seeded rng stream of NewSource (deterministic scenario
// campaigns, cmd/scenfuzz) and ByteSource (native fuzzing, where the fuzz
// engine's byte string IS the choice sequence, so every interesting input
// it finds is replayable as a scenario).
type Source interface {
	// Intn returns a choice in [0, n). n is always ≥ 1.
	Intn(n int) int
}

// streamSource adapts the module's splitmix/xoshiro stream.
type streamSource struct{ s *rng.Stream }

func (s streamSource) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	return s.s.Intn(n)
}

// NewSource returns the seeded deterministic choice stream: equal seeds
// generate byte-identical scenario sequences on every platform.
func NewSource(seed uint64) Source { return streamSource{s: rng.New(seed)} }

// ByteSource derives choices from a fuzz input: each Intn consumes two
// bytes (big-endian) and reduces them modulo n; an exhausted input yields
// zeros, so every byte string — including the empty one — decodes to a
// complete, valid spec. The modulo bias is irrelevant here: coverage, not
// uniformity, is what fuzzing needs.
type ByteSource struct {
	Data []byte
	off  int
}

func (b *ByteSource) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	var v int
	for i := 0; i < 2; i++ {
		v <<= 8
		if b.off < len(b.Data) {
			v |= int(b.Data[b.off])
			b.off++
		}
	}
	return v % n
}

// between returns a choice in [lo, hi], inclusive.
func between(src Source, lo, hi int) int { return lo + src.Intn(hi-lo+1) }

// pct returns true with probability p/100.
func pct(src Source, p int) bool { return src.Intn(100) < p }

// oneOf picks a uniform element.
func oneOf[T any](src Source, xs ...T) T { return xs[src.Intn(len(xs))] }

// Sampling-space constants. Operation counts are truncated so a generated
// scenario simulates in milliseconds and a fuzzing campaign can afford
// millions of them.
var (
	smallCores = []int{2, 2, 3, 4, 4, 4, 6, 8, 12, 16}
	policies   = []string{"RR", "FIFO", "TDMA", "LOT", "RP", "PRI", "PF", "GWF", "MTS"}
	engines    = []string{"", scenario.EngineFast, scenario.EnginePerCycle}
	// ueNames are the population workloads (see workload's UE profiles).
	ueNames = []string{"ue-stream", "ue-web", "ue-voice", "ue-mix"}
)

// drawCores samples the platform size, log-skewed: most draws stay on the
// paper-scale 2–16-core platforms where the op budget allows long programs,
// with a deliberate tail out to the supported maximum — including 257, which
// straddles a bitset word boundary — so the scale-out structures are fuzzed
// at every magnitude without the campaign's wall-clock being dominated by
// thousand-master per-cycle reference runs.
func drawCores(src Source) int {
	switch {
	case pct(src, 72):
		return oneOf(src, smallCores...)
	case pct(src, 60):
		return oneOf(src, 24, 32, 48, 64)
	case pct(src, 60):
		return oneOf(src, 96, 128, 192, 257)
	default:
		return oneOf(src, 384, 512, 768, 1024)
	}
}

// tuaOps budgets the TuA program length by platform size: the oracle layer
// replays every scenario on the per-cycle reference engine, whose cost is
// cycles × masters, and a saturated thousand-master platform makes the TuA
// wait ~N·MaxL cycles per request — so the op budget shrinks as the
// population grows to keep a generated scenario affordable.
func tuaOps(src Source, cores int) int {
	switch {
	case cores <= 16:
		return between(src, 60, 800)
	case cores <= 64:
		return between(src, 24, 120)
	case cores <= 256:
		return between(src, 8, 40)
	default:
		return between(src, 4, 12)
	}
}

// coOps budgets a finite co-runner, scaled like tuaOps.
func coOps(src Source, cores int) int {
	switch {
	case cores <= 16:
		return between(src, 50, 400)
	case cores <= 64:
		return between(src, 30, 150)
	case cores <= 256:
		return between(src, 16, 60)
	default:
		return between(src, 8, 24)
	}
}

// Generate draws one valid scenario.Spec from the full sampling space:
// cores 2–1024 (log-skewed, see drawCores), every policy, every credit kind
// with randomised num/den/cap-factor/privileged-core parameters, platform
// latency and geometry overrides, per-core workload+weight+criticality
// mixes, UE-profile population fleets on the larger platforms, all three run
// kinds, both engines and 1–2-seed schedules. The returned spec always
// passes Validate — Generate panics otherwise, which turns any gap between
// the generator and the schema's semantic rules into a fuzzing finding
// instead of a silent skip.
func Generate(src Source, name string) scenario.Spec {
	s := scenario.Spec{Name: name}
	s.Cores = drawCores(src)
	s.Policy = oneOf(src, policies...)
	s.Run = runKind(src)
	s.Engine = oneOf(src, engines...)

	// Beyond 64 masters the override is mandatory: platform() clamps the
	// memory latency there, bounding N·MaxL — the per-request wait of a
	// saturated platform — which otherwise makes per-cycle reference runs
	// take whole seconds at the top of the core range.
	if pct(src, 50) || s.Cores > 64 {
		s.Platform = platform(src, s.Cores)
	}

	tua := workloads(src, &s)
	if c := credit(src, s.Cores, tua); c != nil {
		s.Credit = c
	}
	if f := fair(src, s.Policy); f != nil {
		s.Fair = f
	}
	seeds(src, &s)

	// One region of the space has no defined WCET and is excluded rather
	// than sampled: fixed priority, maximum-contention injectors (REQ
	// permanently set) on a higher-priority core than the TuA, and no
	// credit filter. That TuA starves forever — the paper's §II argument
	// for why bare priorities are unusable — so the run-completion oracle
	// would (correctly) report an unbounded run. With any CBA variant the
	// configuration stays in the space: preventing exactly this starvation
	// is the scheme's contribution.
	if s.Policy == "PRI" && s.Run == scenario.RunWCET && s.Credit == nil && tua != 0 {
		s.Workloads[0].Core = 0
		if s.TuA != nil {
			*s.TuA = 0
		}
	}

	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("scengen: generated an invalid spec: %v\nspec: %+v", err, s))
	}
	return s
}

func runKind(src Source) string {
	switch src.Intn(5) {
	case 0:
		return scenario.RunIsolation
	case 1, 2:
		return scenario.RunWCET
	default:
		return scenario.RunWorkloads
	}
}

// platform draws an override block: latencies always (they move MaxL, the
// quantity every credit bound scales with), geometry sometimes. Sets stay
// powers of two (cache.Config requires it); LineBytes stays at the default
// 32 so workload working-set reasoning keeps holding. Past 64 cores the
// memory latency is clamped low: worst-case per-request waits grow with
// N·MaxL, and the reference engine pays for every one of those cycles.
func platform(src Source, cores int) *scenario.Platform {
	memHi := 48
	if cores > 64 {
		memHi = 16
	}
	p := &scenario.Platform{
		L2HitLatency: int64(between(src, 1, 10)),
		MemLatency:   int64(between(src, 8, memHi)),
	}
	if pct(src, 40) {
		p.L1Sets = oneOf(src, 16, 32, 64)
		p.L1Ways = oneOf(src, 1, 2, 4)
	}
	if pct(src, 40) {
		p.L2Sets = oneOf(src, 64, 128, 256)
		p.L2Ways = oneOf(src, 2, 4)
	}
	if pct(src, 30) {
		p.StoreBufferDepth = between(src, 1, 6)
	}
	return p
}

// workloads populates s.Workloads and the TuA designation, returning the
// TuA core index. Isolation and wcet runs take exactly one entry; workloads
// runs add 1–3 co-runners on distinct cores, usually looping. The TuA is
// biased onto core 0 (70%) because the isolation-metamorphic oracle is only
// seed-aligned when no co-runner precedes the TuA in the machine's seeding
// order (see oracle.go).
func workloads(src Source, s *scenario.Spec) int {
	names := workload.Names()
	tua := 0
	if !pct(src, 70) {
		tua = src.Intn(s.Cores)
	}

	mk := func(core int, isTuA bool) scenario.Workload {
		w := scenario.Workload{
			Core: core,
			Name: oneOf(src, names...),
		}
		if pct(src, 30) {
			w.Seed = uint64(between(src, 2, 5))
		}
		if isTuA {
			w.Ops = tuaOps(src, s.Cores)
		} else if pct(src, 70) {
			w.Loop = true
		} else {
			w.Ops = coOps(src, s.Cores)
		}
		if sim.PolicyKind(s.Policy).Weighted() && pct(src, 50) {
			w.Weight = int64(between(src, 1, 8))
		}
		return w
	}

	tuaEntry := mk(tua, true)
	if pct(src, 40) {
		tuaEntry.Criticality = scenario.CritHigh
	} else {
		t := tua
		s.TuA = &t
		if pct(src, 30) {
			tuaEntry.Criticality = scenario.CritLow
		}
	}
	s.Workloads = []scenario.Workload{tuaEntry}

	if s.Run == scenario.RunWorkloads {
		free := make([]int, 0, s.Cores-1)
		for c := 0; c < s.Cores; c++ {
			if c != tua {
				free = append(free, c)
			}
		}
		n := between(src, 1, min(3, len(free)))
		for i := 0; i < n; i++ {
			k := src.Intn(len(free))
			core := free[k]
			free = append(free[:k], free[k+1:]...)
			co := mk(core, false)
			if tuaEntry.Criticality == scenario.CritHigh && pct(src, 60) {
				co.Criticality = scenario.CritLow
			}
			s.Workloads = append(s.Workloads, co)
		}
		if s.Cores >= 16 && pct(src, 40) {
			population(src, s, tua)
		}
	}
	return tua
}

// population sometimes adds a UE-profile fleet to a workloads run: a
// contiguous free range of up to 16 members growing upward from a random
// start. Members carry derived seeds (the schema's per-member seed stride),
// so the fleet is heterogeneous from a single entry. When the drawn start
// lands on an occupied core the draw is simply forfeited — the generator
// favours unconditional validity over population density.
func population(src Source, s *scenario.Spec, tua int) {
	occupied := map[int]bool{tua: true}
	for _, w := range s.Workloads {
		occupied[w.Core] = true
	}
	start := src.Intn(s.Cores)
	want := between(src, 2, 16)
	end := start
	for end < s.Cores && end-start < want && !occupied[end] {
		end++
	}
	if end == start {
		return
	}
	p := scenario.Population{
		FromCore: start,
		ToCore:   end - 1,
		Name:     oneOf(src, ueNames...),
	}
	if pct(src, 50) {
		p.Seed = uint64(between(src, 1, 1<<16))
	}
	if pct(src, 30) {
		p.SeedStride = uint64(between(src, 2, 7))
	}
	if pct(src, 70) {
		p.Loop = true
	} else {
		p.Ops = between(src, 30, 120)
	}
	if sim.PolicyKind(s.Policy).Weighted() && pct(src, 50) {
		p.Weight = int64(between(src, 1, 8))
	}
	s.Populations = append(s.Populations, p)
}

// fair sometimes draws a Fair block for the parameterisable fairness-zoo
// policies: a non-default EWMA shift for PF, a 1–3-bucket custom profile
// for MTS. Nil keeps the policy defaults (and is mandatory elsewhere — the
// schema rejects the block under other policies).
func fair(src Source, policy string) *scenario.Fair {
	switch policy {
	case "PF":
		if pct(src, 40) {
			return &scenario.Fair{AvgShift: between(src, 1, 8)}
		}
	case "MTS":
		if pct(src, 40) {
			ts := make([]scenario.TimescaleSpec, between(src, 1, 3))
			den := 1
			for i := range ts {
				// Fine-to-coarse: each bucket's period and depth grow.
				den *= between(src, 8, 64)
				ts[i] = scenario.TimescaleSpec{
					Num:   1,
					Den:   int64(den),
					Depth: int64(between(src, 2, 8) * (i + 1)),
				}
			}
			return &scenario.Fair{Timescales: ts}
		}
	}
	return nil
}

// credit draws the CBA variant. Nil means off. The privileged core for the
// hcba-* kinds is usually left to default to the TuA; when sampled
// explicitly it avoids the one inexpressible combination the schema rejects
// (privileged 0 alongside a non-zero TuA).
func credit(src Source, cores, tua int) *scenario.Credit {
	switch src.Intn(4) {
	case 0:
		return nil
	case 1:
		return &scenario.Credit{Kind: "cba"}
	case 2:
		c := &scenario.Credit{Kind: "hcba-weights"}
		c.Den = int64(between(src, 2, 6))
		c.Num = int64(between(src, 1, int(c.Den)-1))
		privileged(src, c, cores, tua)
		return c
	default:
		c := &scenario.Credit{Kind: "hcba-cap"}
		if pct(src, 70) {
			c.CapFactor = int64(between(src, 2, 4))
		}
		privileged(src, c, cores, tua)
		return c
	}
}

func privileged(src Source, c *scenario.Credit, cores, tua int) {
	if pct(src, 60) {
		return // default: the TuA
	}
	p := src.Intn(cores)
	if p == 0 && tua != 0 {
		p = tua // privileged 0 means "the TuA" downstream; keep it expressible
	}
	c.Privileged = &p
}

// seeds draws a short schedule: oracle checks run every seed on both
// engines plus metamorphic reruns, so 1–2 seeds keep a generated scenario
// in the low milliseconds.
func seeds(src Source, s *scenario.Spec) {
	n := 1
	if pct(src, 30) {
		n = 2
	}
	list := make([]uint64, n)
	for i := range list {
		list[i] = uint64(between(src, 1, 1<<20))
	}
	// Validate rejects duplicate schedule entries (they double-bill runs);
	// nudging the collision keeps the draw count — and so fuzz replay —
	// unchanged.
	if n == 2 && list[1] == list[0] {
		list[1]++
	}
	s.Seeds = scenario.Seeds{List: list}
}
