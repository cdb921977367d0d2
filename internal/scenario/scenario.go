// Package scenario is the declarative configuration layer over the
// simulator: a JSON document describes a complete experiment — platform
// geometry, arbitration policy, CBA variant, per-core workloads with
// weights and criticalities, the run kind (isolation, WCET-estimation or
// operation-mode contention), the stepping engine and the seed schedule —
// and the package loads, validates and compiles it into the sim.Config,
// program factories and campaign plumbing the rest of the module executes.
//
// The paper's evaluation is a cross product of configurations (policies ×
// credit kinds × weights × workloads); keeping that cross product in data
// instead of Go code is what lets the corpus under testdata/corpus/ pin
// every configuration's result forever (see corpus_test.go) and lets the
// CLIs accept -scenario file.json. DESIGN.md §7 documents the schema.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"creditbus/internal/campaign"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// Run kinds: how the compiled configuration is executed. They are the
// sim.Kind values, spelled as the schema's strings.
const (
	// RunIsolation executes the TuA workload alone (the paper's ISO
	// scenario).
	RunIsolation = string(sim.KindIsolation)
	// RunWCET executes the TuA workload against Table I maximum-contention
	// injectors (WCET-estimation mode).
	RunWCET = string(sim.KindWCET)
	// RunWorkloads executes one real program per core (operation-mode
	// contention); co-runners usually loop.
	RunWorkloads = string(sim.KindWorkloads)
)

// Engine options for Spec.Engine.
const (
	// EngineFast is the event-horizon stepping engine (the default).
	EngineFast = "fast"
	// EnginePerCycle forces the per-cycle reference engine.
	EnginePerCycle = "per-cycle"
)

// Criticality levels for Workload.Criticality. The level is metadata for
// mixed-criticality pairings with one operational effect: when Spec.TuA is
// unset, the unique HI-criticality core becomes the task under analysis.
const (
	CritHigh = "HI"
	CritLow  = "LO"
)

// Platform overrides the default cache geometry and latency model. Zero
// fields keep sim.DefaultConfig values, so a scenario only states what it
// changes.
type Platform struct {
	L1Sets           int   `json:"l1_sets,omitempty"`
	L1Ways           int   `json:"l1_ways,omitempty"`
	L2Sets           int   `json:"l2_sets,omitempty"`
	L2Ways           int   `json:"l2_ways,omitempty"`
	LineBytes        int   `json:"line_bytes,omitempty"`
	StoreBufferDepth int   `json:"store_buffer_depth,omitempty"`
	L2HitLatency     int64 `json:"l2_hit_latency,omitempty"`
	MemLatency       int64 `json:"mem_latency,omitempty"`
}

// Credit selects and parameterises the CBA variant, mirroring
// sim.CreditSpec with JSON names.
type Credit struct {
	// Kind is off, cba, hcba-weights or hcba-cap.
	Kind string `json:"kind"`
	// Privileged names the core receiving extra bandwidth (H-CBA
	// variants); nil defaults to the TuA.
	Privileged *int `json:"privileged,omitempty"`
	// Num/Den is the privileged core's share (hcba-weights).
	Num int64 `json:"num,omitempty"`
	Den int64 `json:"den,omitempty"`
	// CapFactor multiplies the privileged budget cap (hcba-cap).
	CapFactor int64 `json:"cap_factor,omitempty"`
}

// Fair parameterises the fairness-zoo policies. The block is only legal —
// and must be non-empty — when the policy accepts the stated knob.
type Fair struct {
	// AvgShift sets the PF policy's EWMA coefficient β = 2^-shift, in
	// [1, 30] (policy PF only; omitted = the policy default, shift 1).
	AvgShift int `json:"avg_shift,omitempty"`
	// Timescales overrides the MTS policy's token-bucket profile, fine to
	// coarse, at most 8 entries (policy MTS only; omitted = the default
	// two-timescale profile).
	Timescales []TimescaleSpec `json:"timescales,omitempty"`
}

// TimescaleSpec is one MTS token bucket: refill num/den grants per cycle
// (scaled by the core's weight), burst capacity depth grants. All three
// fields are required, each in [1, sim.MaxWeight].
type TimescaleSpec struct {
	Num   int64 `json:"num"`
	Den   int64 `json:"den"`
	Depth int64 `json:"depth"`
}

// Workload assigns a program to one core.
type Workload struct {
	// Core is the core index the program runs on.
	Core int `json:"core"`
	// Name is a bundled workload (see workload.Names).
	Name string `json:"workload"`
	// Seed fixes the workload's own randomness — its "binary"; default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Ops truncates the trace to its first Ops operations (0 = full).
	Ops int `json:"ops,omitempty"`
	// Loop replays the trace forever — co-runner tasks that must generate
	// contention for the whole run. Only meaningful in workloads runs.
	Loop bool `json:"loop,omitempty"`
	// Weight is the core's arbitration weight — lottery tickets under LOT,
	// the entitlement under the fairness-zoo policies (PF, GWF, MTS);
	// default 1. Only legal under a weighted policy.
	Weight int64 `json:"weight,omitempty"`
	// Criticality is HI or LO (mixed-criticality pairings). The unique HI
	// core becomes the TuA when Spec.TuA is unset.
	Criticality string `json:"criticality,omitempty"`
}

// Population assigns one workload to a contiguous range of cores — the
// schema's scale-out form. Writing a 1024-core scenario as 1023 Workload
// entries would bury the intent; a population states the range once and the
// compiler expands it to per-core entries, each with its own derived seed
// (Seed + (core-FromCore)·SeedStride) so members run distinct "binaries" of
// the same program. Populations are co-runner fleets: they apply only to
// workloads runs and may not cover the TuA core, whose workload stays an
// explicit Workloads entry.
type Population struct {
	// FromCore/ToCore bound the covered cores, both ends inclusive.
	FromCore int `json:"from_core"`
	ToCore   int `json:"to_core"`
	// Name is the bundled workload every member runs (see workload.Names).
	Name string `json:"workload"`
	// Seed is the first member's workload seed (default 1); member c runs
	// with Seed + (c-FromCore)·SeedStride.
	Seed uint64 `json:"seed,omitempty"`
	// SeedStride spaces consecutive members' seeds (default 1). A stride of
	// 0 is the default, not "identical seeds" — state Seed per-core in
	// Workloads if truly identical members are wanted.
	SeedStride uint64 `json:"seed_stride,omitempty"`
	// Ops truncates each member's trace (0 = full).
	Ops int `json:"ops,omitempty"`
	// Loop replays each member's trace forever.
	Loop bool `json:"loop,omitempty"`
	// Weight is each member's arbitration weight under the weighted
	// policies (LOT, PF, GWF, MTS; default 1).
	Weight int64 `json:"weight,omitempty"`
}

// member synthesises the Workload entry population p induces on core c.
func (p Population) member(c int) Workload {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	stride := p.SeedStride
	if stride == 0 {
		stride = 1
	}
	return Workload{
		Core:   c,
		Name:   p.Name,
		Seed:   seed + uint64(c-p.FromCore)*stride,
		Ops:    p.Ops,
		Loop:   p.Loop,
		Weight: p.Weight,
	}
}

// covers reports whether core c is a member of the population.
func (p Population) covers(c int) bool { return c >= p.FromCore && c <= p.ToCore }

// Seeds is the run-seed schedule: either an explicit List, or Runs seeds
// derived as Base + i·Stride (Stride 0 means campaign.SeedStride, the
// module-wide default schedule). The two forms are exclusive; Validate
// rejects a spec that states both, duplicate List entries, and explicit
// strides whose derived seeds would wrap uint64.
type Seeds struct {
	Base   uint64   `json:"base,omitempty"`
	Runs   int      `json:"runs,omitempty"`
	Stride uint64   `json:"stride,omitempty"`
	List   []uint64 `json:"list,omitempty"`
}

// Validate checks the schedule's own rules. Spec.Validate calls it; any
// standalone consumer of Expand owes the same call first, because Expand
// assumes a valid schedule.
func (s Seeds) Validate() error {
	if s.Runs < 0 {
		return fmt.Errorf("scenario: seeds.runs = %d", s.Runs)
	}
	if len(s.List) > 0 {
		if s.Base != 0 || s.Runs != 0 || s.Stride != 0 {
			return fmt.Errorf("scenario: seeds.list and seeds.base/runs/stride are exclusive schedule forms; state one")
		}
		seen := make(map[uint64]int, len(s.List))
		for i, v := range s.List {
			if j, dup := seen[v]; dup {
				return fmt.Errorf("scenario: seeds.list[%d] and seeds.list[%d] are both %d; duplicate seeds double-bill identical runs and defeat content-addressed result caching", j, i, v)
			}
			seen[v] = i
		}
		return nil
	}
	// A derived schedule with an explicit stride must stay inside uint64:
	// Base + i·Stride silently wrapping collides seeds (an even stride can
	// revisit earlier values exactly), which duplicates runs, skews campaign
	// statistics and breaks hash(spec, seed) result keying. The default
	// schedule (stride 0 → campaign.SeedStride) is exempt by design: it is
	// modular golden-ratio stepping, and an odd stride makes i·Stride mod
	// 2^64 injective, so its wrapped seeds never collide.
	if s.Stride != 0 && s.Runs > 1 {
		maxI := uint64(s.Runs - 1)
		if maxI > math.MaxUint64/s.Stride {
			return fmt.Errorf("scenario: seeds schedule overflows uint64: %d runs at stride %d", s.Runs, s.Stride)
		}
		if span := maxI * s.Stride; s.Base > math.MaxUint64-span {
			return fmt.Errorf("scenario: seeds schedule overflows uint64: base %d + %d·stride %d wraps", s.Base, maxI, s.Stride)
		}
	}
	return nil
}

// Expand materialises the schedule. It assumes a Validate-clean schedule;
// on an invalid one the wrapping the validator rejects would happen here.
func (s Seeds) Expand() []uint64 {
	if len(s.List) > 0 {
		return append([]uint64(nil), s.List...)
	}
	runs := s.Runs
	if runs <= 0 {
		runs = 1
	}
	stride := s.Stride
	if stride == 0 {
		stride = campaign.SeedStride
	}
	out := make([]uint64, runs)
	for i := range out {
		out[i] = s.Base + uint64(i)*stride
	}
	return out
}

// Spec is one declarative scenario. The zero value is not runnable; decode
// one from JSON (Load/Parse) or fill the fields and Validate.
type Spec struct {
	// Name identifies the scenario; it names the golden snapshot file, so
	// it must be a valid file stem ([a-zA-Z0-9._-]).
	Name string `json:"name"`
	// Description says what the scenario exercises.
	Description string `json:"description,omitempty"`

	// Cores is the number of cores/bus masters (default 4).
	Cores int `json:"cores,omitempty"`
	// Platform optionally overrides cache geometry and latencies.
	Platform *Platform `json:"platform,omitempty"`

	// Policy is the arbitration policy: RR, FIFO, TDMA, LOT, RP, PRI or a
	// fairness-zoo member — PF, GWF, MTS (default RP, the paper's MBPTA
	// baseline).
	Policy string `json:"policy,omitempty"`
	// Credit selects the CBA variant (default off).
	Credit *Credit `json:"credit,omitempty"`
	// Fair parameterises the fairness-zoo policies (PF's EWMA shift, MTS's
	// timescale profile).
	Fair *Fair `json:"fair,omitempty"`

	// Run is the run kind: isolation, wcet or workloads.
	Run string `json:"run"`
	// TuA is the core under analysis; nil defaults to the unique
	// HI-criticality core, or 0.
	TuA *int `json:"tua,omitempty"`
	// Engine selects the stepping engine: fast (default) or per-cycle.
	Engine string `json:"engine,omitempty"`

	// Workloads assigns programs to cores. Isolation and wcet runs take
	// exactly one entry (the TuA); workloads runs take one per
	// participating core, idle cores omitted.
	Workloads []Workload `json:"workloads"`
	// Populations assigns one workload to whole core ranges (workloads runs
	// only) — the compact form for large co-runner fleets. Ranges may not
	// overlap each other, the Workloads entries or the TuA core.
	Populations []Population `json:"populations,omitempty"`

	// Seeds is the run-seed schedule (default: one run, seed Base).
	Seeds Seeds `json:"seeds"`
}

// DecodeStrict decodes exactly one JSON value from data into v, rejecting
// unknown fields (at any depth) and trailing data — the one decoder for every
// spec that crosses the process boundary, so a typo in a corpus file, an
// HTTP body or a stored job fails loudly instead of silently running the
// default.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return errors.New("trailing data after spec")
	}
	return nil
}

// Parse decodes a spec from JSON through DecodeStrict.
func Parse(data []byte) (Spec, error) {
	var s Spec
	if err := DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	return s, nil
}

// Encode renders the spec in its canonical byte form: indented JSON with
// the struct's fixed field order and a trailing newline. Parse(Encode(s))
// round-trips, which is what lets the fuzzing harness write a minimized
// failing spec to disk as a directly loadable repro file.
func (s Spec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode spec: %w", err)
	}
	return append(data, '\n'), nil
}

// Load reads and parses a spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// LoadDir loads every *.json spec in dir, sorted by file name, and checks
// scenario names are unique (they key the golden snapshots).
func LoadDir(dir string) ([]Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs under %s", dir)
	}
	sort.Strings(paths)
	seen := map[string]string{}
	out := make([]Spec, 0, len(paths))
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", p, err)
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate name %q in %s and %s", s.Name, prev, p)
		}
		seen[s.Name] = p
		out = append(out, s)
	}
	return out, nil
}

// validName keeps scenario names usable as golden snapshot file stems.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// policy resolves the spec's policy: the schema's names are sim's kinds,
// and empty means random permutations.
func (s Spec) policy() sim.PolicyKind {
	if s.Policy == "" {
		return sim.PolicyRandomPerm
	}
	return sim.PolicyKind(s.Policy)
}

// credit resolves the spec's credit kind, likewise; no block or an empty
// kind means CBA off.
func (s Spec) credit() sim.CreditKind {
	if s.Credit == nil || s.Credit.Kind == "" {
		return sim.CreditOff
	}
	return sim.CreditKind(s.Credit.Kind)
}

// cores returns the effective core count.
func (s Spec) cores() int {
	if s.Cores > 0 {
		return s.Cores
	}
	return sim.DefaultConfig().Cores
}

// tua resolves the task-under-analysis core: explicit TuA wins, otherwise
// the unique HI-criticality workload, otherwise core 0.
func (s Spec) tua() (int, error) {
	hi := -1
	for _, w := range s.Workloads {
		if w.Criticality != CritHigh {
			continue
		}
		if hi >= 0 {
			return 0, fmt.Errorf("scenario: cores %d and %d are both HI-criticality; set tua explicitly", hi, w.Core)
		}
		hi = w.Core
	}
	if s.TuA != nil {
		if hi >= 0 && hi != *s.TuA {
			return 0, fmt.Errorf("scenario: tua = %d but core %d is the HI-criticality core", *s.TuA, hi)
		}
		return *s.TuA, nil
	}
	if hi >= 0 {
		return hi, nil
	}
	return 0, nil
}

// Validate checks the spec against the schema's semantic rules. Compile
// calls it; the corpus test calls it on every file.
func (s Spec) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("scenario: name %q is not a valid snapshot file stem ([a-zA-Z0-9._-]+)", s.Name)
	}
	if s.Cores < 0 {
		return fmt.Errorf("scenario: cores = %d, need > 0 (or 0 for the default)", s.Cores)
	}
	if s.Cores > sim.MaxCores {
		return fmt.Errorf("scenario: cores = %d exceeds the supported maximum of %d", s.Cores, sim.MaxCores)
	}
	cores := s.cores()
	if err := s.policy().Validate(); err != nil {
		return err
	}
	creditKind := s.credit()
	if err := creditKind.Validate(); err != nil {
		return err
	}
	if s.Credit != nil {
		if p := s.Credit.Privileged; p != nil && (*p < 0 || *p >= cores) {
			return fmt.Errorf("scenario: credit.privileged = %d out of range [0,%d)", *p, cores)
		}
		if s.Credit.Privileged != nil && creditKind != sim.CreditHCBAWeights && creditKind != sim.CreditHCBACap {
			return fmt.Errorf("scenario: credit.privileged only applies to the hcba-* kinds")
		}
		if (s.Credit.Num != 0 || s.Credit.Den != 0) && creditKind != sim.CreditHCBAWeights {
			return fmt.Errorf("scenario: credit.num/den only apply to kind hcba-weights")
		}
		if s.Credit.Num < 0 || s.Credit.Den < 0 {
			return fmt.Errorf("scenario: credit.num/den = %d/%d must be non-negative", s.Credit.Num, s.Credit.Den)
		}
		if (s.Credit.Num == 0) != (s.Credit.Den == 0) {
			return fmt.Errorf("scenario: credit.num/den = %d/%d: set both or neither", s.Credit.Num, s.Credit.Den)
		}
		if s.Credit.Num != 0 && s.Credit.Num >= s.Credit.Den {
			return fmt.Errorf("scenario: credit.num/den = %d/%d: the privileged share must be < 1", s.Credit.Num, s.Credit.Den)
		}
		if s.Credit.CapFactor != 0 && creditKind != sim.CreditHCBACap {
			return fmt.Errorf("scenario: credit.cap_factor only applies to kind hcba-cap")
		}
		if s.Credit.CapFactor < 0 || s.Credit.CapFactor == 1 {
			return fmt.Errorf("scenario: credit.cap_factor = %d must be 0 (default) or > 1", s.Credit.CapFactor)
		}
	}

	if f := s.Fair; f != nil {
		if f.AvgShift == 0 && len(f.Timescales) == 0 {
			return fmt.Errorf("scenario: fair block is empty; state avg_shift or timescales (or drop the block)")
		}
		if f.AvgShift != 0 {
			if s.Policy != "PF" {
				return fmt.Errorf("scenario: fair.avg_shift only applies to policy PF, not %q", s.Policy)
			}
			if f.AvgShift < 1 || f.AvgShift > 30 {
				return fmt.Errorf("scenario: fair.avg_shift = %d outside [1, 30]", f.AvgShift)
			}
		}
		if len(f.Timescales) != 0 {
			if s.Policy != "MTS" {
				return fmt.Errorf("scenario: fair.timescales only apply to policy MTS, not %q", s.Policy)
			}
			if len(f.Timescales) > 8 {
				return fmt.Errorf("scenario: %d fair.timescales, need ≤ 8", len(f.Timescales))
			}
			for i, ts := range f.Timescales {
				for _, fld := range []struct {
					name string
					v    int64
				}{{"num", ts.Num}, {"den", ts.Den}, {"depth", ts.Depth}} {
					if fld.v < 1 || fld.v > sim.MaxWeight {
						return fmt.Errorf("scenario: fair.timescales[%d].%s = %d outside [1, %d]", i, fld.name, fld.v, sim.MaxWeight)
					}
				}
			}
		}
	}

	if sim.Kind(s.Run).Validate() != nil {
		return fmt.Errorf("scenario: run = %q, need %s, %s or %s", s.Run, RunIsolation, RunWCET, RunWorkloads)
	}
	switch s.Engine {
	case "", EngineFast, EnginePerCycle:
	default:
		return fmt.Errorf("scenario: engine = %q, need %s or %s", s.Engine, EngineFast, EnginePerCycle)
	}
	if s.TuA != nil && (*s.TuA < 0 || *s.TuA >= cores) {
		return fmt.Errorf("scenario: tua = %d out of range [0,%d)", *s.TuA, cores)
	}

	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario: no workloads")
	}
	occupied := map[int]bool{}
	for i, w := range s.Workloads {
		if w.Core < 0 || w.Core >= cores {
			return fmt.Errorf("scenario: workloads[%d].core = %d out of range [0,%d)", i, w.Core, cores)
		}
		if occupied[w.Core] {
			return fmt.Errorf("scenario: two workloads on core %d", w.Core)
		}
		occupied[w.Core] = true
		if _, ok := workload.ByName(w.Name); !ok {
			return fmt.Errorf("scenario: workloads[%d]: unknown workload %q (have %v)", i, w.Name, workload.Names())
		}
		if w.Ops < 0 {
			return fmt.Errorf("scenario: workloads[%d].ops = %d", i, w.Ops)
		}
		if w.Weight < 0 {
			return fmt.Errorf("scenario: workloads[%d].weight = %d", i, w.Weight)
		}
		if w.Weight != 0 && !s.policy().Weighted() {
			return fmt.Errorf("scenario: workloads[%d].weight only applies to the weighted policies, not %q", i, s.policy())
		}
		switch w.Criticality {
		case "", CritHigh, CritLow:
		default:
			return fmt.Errorf("scenario: workloads[%d].criticality = %q, need %s or %s", i, w.Criticality, CritHigh, CritLow)
		}
		if w.Loop && s.Run != RunWorkloads {
			return fmt.Errorf("scenario: workloads[%d].loop only applies to %s runs", i, RunWorkloads)
		}
	}

	for i, p := range s.Populations {
		if s.Run != RunWorkloads {
			return fmt.Errorf("scenario: populations[%d] only applies to %s runs", i, RunWorkloads)
		}
		if p.FromCore < 0 || p.ToCore >= cores || p.FromCore > p.ToCore {
			return fmt.Errorf("scenario: populations[%d]: core range [%d,%d] is not within [0,%d) of a %d-core platform",
				i, p.FromCore, p.ToCore, cores, cores)
		}
		for c := p.FromCore; c <= p.ToCore; c++ {
			if occupied[c] {
				return fmt.Errorf("scenario: populations[%d]: core %d already has a workload", i, c)
			}
			occupied[c] = true
		}
		if _, ok := workload.ByName(p.Name); !ok {
			return fmt.Errorf("scenario: populations[%d]: unknown workload %q (have %v)", i, p.Name, workload.Names())
		}
		if p.Ops < 0 {
			return fmt.Errorf("scenario: populations[%d].ops = %d", i, p.Ops)
		}
		if p.Weight < 0 {
			return fmt.Errorf("scenario: populations[%d].weight = %d", i, p.Weight)
		}
		if p.Weight != 0 && !s.policy().Weighted() {
			return fmt.Errorf("scenario: populations[%d].weight only applies to the weighted policies, not %q", i, s.policy())
		}
	}

	tua, err := s.tua()
	if err != nil {
		return err
	}
	for i, p := range s.Populations {
		if p.covers(tua) {
			return fmt.Errorf("scenario: populations[%d] covers the TuA core %d; the TuA takes an explicit workloads entry", i, tua)
		}
	}
	if !occupied[tua] {
		return fmt.Errorf("scenario: the TuA core %d has no workload", tua)
	}
	// sim.CreditSpec.Privileged treats 0 as "unset, default to the TuA",
	// so an explicit privileged core 0 alongside a different TuA cannot be
	// expressed — reject it instead of silently privileging the TuA.
	if s.Credit != nil && s.Credit.Privileged != nil && *s.Credit.Privileged == 0 && tua != 0 {
		return fmt.Errorf("scenario: credit.privileged = 0 with tua = %d is not expressible (0 means \"the TuA\" downstream); swap the cores", tua)
	}
	if s.Run != RunWorkloads && len(s.Workloads) != 1 {
		return fmt.Errorf("scenario: %s runs take exactly one workload (the TuA); co-runners are synthesised", s.Run)
	}
	for i, w := range s.Workloads {
		if s.Run == RunWorkloads && w.Core == tua && w.Loop {
			return fmt.Errorf("scenario: workloads[%d]: the TuA must terminate, not loop", i)
		}
	}

	if err := s.Seeds.Validate(); err != nil {
		return err
	}

	if s.Platform != nil {
		p := s.Platform
		for _, f := range []struct {
			name string
			v    int64
		}{
			{"l1_sets", int64(p.L1Sets)}, {"l1_ways", int64(p.L1Ways)},
			{"l2_sets", int64(p.L2Sets)}, {"l2_ways", int64(p.L2Ways)},
			{"line_bytes", int64(p.LineBytes)}, {"store_buffer_depth", int64(p.StoreBufferDepth)},
			{"l2_hit_latency", p.L2HitLatency}, {"mem_latency", p.MemLatency},
		} {
			if f.v < 0 {
				return fmt.Errorf("scenario: platform.%s = %d must be ≥ 0 (0 = default)", f.name, f.v)
			}
		}
	}

	// The remaining cross-field rules (cache geometry, latency sanity)
	// live in sim.Config.Validate; H-CBA parameter feasibility lives in
	// sim.Config.CheckCredit, which applies exactly the defaulting the
	// machine constructor will. Run both here so a bad corpus file fails
	// at load time, not mid-campaign.
	cfg := s.config()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := cfg.CheckCredit(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}
