// Package workload provides deterministic synthetic programs for the
// simulator's cores. The EEMBC Autobench suite the paper evaluates (Poovey,
// 2007) is proprietary, so each benchmark is replaced by a generator that
// reproduces the timing-relevant structure of the kernel it names: working
// set size relative to the L1/L2 capacities, memory-access density, the mix
// of loads, stores and ALU work, and access regularity (sequential, strided,
// random, pointer-chased). DESIGN.md records this substitution.
//
// A workload is built once from a fixed seed (the program binary is the same
// in every run); run-to-run execution-time variability comes from the
// platform's randomised caches and arbitration, exactly as on the paper's
// MBPTA hardware.
package workload

import (
	"fmt"
	"sort"

	"creditbus/internal/cpu"
	"creditbus/internal/rng"
)

// Spec names a workload and builds fresh instances of it.
type Spec struct {
	// Name is the benchmark identifier used in reports (matches the
	// paper's Figure 1 labels for the four evaluated kernels).
	Name string
	// Description summarises the mimicked kernel and its traffic shape.
	Description string
	// Build generates the operation trace. The seed fixes the "binary":
	// experiments pass a constant so that all runs execute the same
	// program.
	Build func(seed uint64) *cpu.Trace
}

// registry holds all known workloads, populated by the builder files.
var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
}

// ByName looks a workload up.
func ByName(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Build looks the named workload up, builds it at seed and keeps its first
// ops operations when ops > 0 and the trace is longer. It is the one
// lookup-and-truncate step behind every caller that builds a bundled
// workload by name.
func Build(name string, seed uint64, ops int) (*cpu.Trace, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	tr := s.Build(seed)
	if ops > 0 && tr.Len() > ops {
		tr = cpu.NewTrace(tr.Ops()[:ops])
	}
	return tr, nil
}

// Names lists all registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FigureOneSet returns the four benchmarks of the paper's Figure 1, in the
// figure's order.
func FigureOneSet() []Spec {
	names := []string{"cacheb", "canrdr", "matrix", "tblook"}
	out := make([]Spec, len(names))
	for i, n := range names {
		s, ok := registry[n]
		if !ok {
			panic("workload: figure-1 benchmark missing: " + n)
		}
		out[i] = s
	}
	return out
}

// Memory layout helpers. Each region is a disjoint address range; words are
// 8 bytes, cache lines 32 bytes (the simulator's platform constants).
const (
	// WordBytes is the access granularity of loads and stores.
	WordBytes = 8
	// LineBytes matches the cache line size; used to reason about miss
	// rates of strided patterns.
	LineBytes = 32
)

// region is a named address range used by the builders.
type region struct {
	base uint64
}

// word returns the address of the i-th word of the region.
func (r region) word(i uint64) uint64 { return r.base + i*WordBytes }

// builder accumulates an operation trace.
type builder struct {
	ops []cpu.Op
}

func (b *builder) alu(cycles int64) {
	if n := len(b.ops); n > 0 && b.ops[n-1].Kind == cpu.OpALU {
		// Merge adjacent ALU work into one op: identical timing, smaller
		// traces.
		b.ops[n-1].Cycles += cycles
		return
	}
	b.ops = append(b.ops, cpu.Op{Kind: cpu.OpALU, Cycles: cycles})
}

func (b *builder) load(addr uint64)   { b.ops = append(b.ops, cpu.Op{Kind: cpu.OpLoad, Addr: addr}) }
func (b *builder) store(addr uint64)  { b.ops = append(b.ops, cpu.Op{Kind: cpu.OpStore, Addr: addr}) }
func (b *builder) atomic(addr uint64) { b.ops = append(b.ops, cpu.Op{Kind: cpu.OpAtomic, Addr: addr}) }

func (b *builder) trace() *cpu.Trace { return cpu.NewTrace(b.ops) }

// stream derives a child rng for a builder.
func stream(seed uint64, salt uint64) *rng.Stream { return rng.New(seed ^ salt*0x9e3779b97f4a7c15) }
