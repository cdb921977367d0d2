package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"creditbus/internal/mbpta"
	"creditbus/internal/mem"
	"creditbus/internal/sim"
	"creditbus/internal/stats"
)

// Agg is the streaming aggregate of a contiguous unit range [Lo, Lo+N): the
// online form of "collect every result, then fit". Each unit's result folds
// in as it completes — exact integer moments for the cycle observables,
// globally-anchored block maxima for the MBPTA vector, and a per-unit
// result digest for the byte-identity gate — so a 10⁸-unit campaign needs
// O(N/Block + N·8B) state instead of N retained results, and a shard's
// state is exactly what its checkpoint file persists.
//
// Merge of adjacent ranges reproduces the sequential fold bit for bit
// (every component is either exact integer arithmetic or an
// order-invariant splice — see stats.Exact and mbpta.Stream), which is the
// heart of the K-invariance guarantee: fold K shards separately, merge,
// and the state equals the K = 1 fold, so the derived report is
// byte-identical.
type Agg struct {
	// Lo is the global unit index of the range's first unit.
	Lo int64 `json:"lo"`
	// N is the number of units folded in.
	N int64 `json:"n"`
	// TaskCycles aggregates each unit's TuA execution time.
	TaskCycles stats.Exact `json:"task_cycles"`
	// WallCycles aggregates each unit's wall-clock machine cycles.
	WallCycles stats.Exact `json:"wall_cycles"`
	// BusHeld and BusWait aggregate the TuA master's bus occupancy and
	// arbitration wait — the fairness observables (Jain over BusHeld).
	BusHeld stats.Exact `json:"bus_held"`
	BusWait stats.Exact `json:"bus_wait"`
	// Max streams the MBPTA block maxima of TaskCycles, anchored at global
	// unit indices.
	Max *mbpta.Stream `json:"max"`
	// Digests packs one 8-byte big-endian ResultDigest per unit, in unit
	// order — the stream the merged report hashes, so two campaigns agree
	// byte for byte only if every single unit result matched.
	Digests []byte `json:"digests,omitempty"`
}

// NewAgg returns an empty aggregate for the range starting at global unit
// lo, with MBPTA block size block.
func NewAgg(lo int64, block int) (*Agg, error) {
	max, err := mbpta.NewStream(block, lo)
	if err != nil {
		return nil, err
	}
	return &Agg{Lo: lo, Max: max}, nil
}

// Add folds the next unit's result.
func (a *Agg) Add(res sim.Result) {
	a.TaskCycles.Add(res.TaskCycles)
	a.WallCycles.Add(res.WallCycles)
	a.BusHeld.Add(res.Bus.HeldCycles)
	a.BusWait.Add(res.Bus.WaitCycles)
	a.Max.Add(float64(res.TaskCycles))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], ResultDigest(res))
	a.Digests = append(a.Digests, buf[:]...)
	a.N++
}

// Merge folds the adjacent range o into a: o must start exactly where a
// ends. Every component merge is order-invariant-exact, so any bracketing
// of adjacent merges yields the sequential fold's state.
func (a *Agg) Merge(o *Agg) error {
	if o == nil {
		return fmt.Errorf("shard: merge of nil aggregate")
	}
	if o.Lo != a.Lo+a.N {
		return fmt.Errorf("shard: merge of non-adjacent ranges: [%d,%d) then [%d,%d)",
			a.Lo, a.Lo+a.N, o.Lo, o.Lo+o.N)
	}
	if int64(len(o.Digests)) != 8*o.N {
		return fmt.Errorf("shard: aggregate at %d carries %d digest bytes for %d units", o.Lo, len(o.Digests), o.N)
	}
	if err := a.Max.Merge(o.Max); err != nil {
		return err
	}
	a.TaskCycles.Merge(o.TaskCycles)
	a.WallCycles.Merge(o.WallCycles)
	a.BusHeld.Merge(o.BusHeld)
	a.BusWait.Merge(o.BusWait)
	a.Digests = append(a.Digests, o.Digests...)
	a.N += o.N
	return nil
}

// validate checks the aggregate's internal consistency — a checkpoint file
// is untrusted input until this passes.
func (a *Agg) validate(block int) error {
	if a.N < 0 || a.Lo < 0 {
		return fmt.Errorf("shard: aggregate range [%d,+%d)", a.Lo, a.N)
	}
	if int64(len(a.Digests)) != 8*a.N {
		return fmt.Errorf("shard: aggregate carries %d digest bytes for %d units", len(a.Digests), a.N)
	}
	if a.Max == nil {
		return fmt.Errorf("shard: aggregate has no maxima stream")
	}
	if a.Max.Block != block {
		return fmt.Errorf("shard: aggregate block %d, campaign block %d", a.Max.Block, block)
	}
	if a.Max.Start != a.Lo || a.Max.N != a.N {
		return fmt.Errorf("shard: maxima stream covers [%d,+%d), aggregate [%d,+%d)",
			a.Max.Start, a.Max.N, a.Lo, a.N)
	}
	if a.TaskCycles.Count != a.N {
		return fmt.Errorf("shard: aggregate folds %d cycle samples for %d units", a.TaskCycles.Count, a.N)
	}
	return nil
}

// fnv1a64 constants (FNV-1a, 64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds one 64-bit word into an FNV-1a state, byte by byte in
// little-endian order.
func fnvWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

// ResultDigest hashes every field of a unit result into one 64-bit FNV-1a
// digest — the per-unit fingerprint the byte-identity gate accumulates. The
// field walk is fixed (struct order, mem kinds in their canonical Kinds()
// order, floats by IEEE bits), so equal results always digest equally and
// any single-field divergence flips the digest with 2⁻⁶⁴ blindness. At
// ~10⁷ digests/s it is two decimal orders cheaper than snapshotting the
// result to JSON, which is what keeps the gate affordable at 10⁶ units.
func ResultDigest(r sim.Result) uint64 {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(r.TaskCycles))
	h = fnvWord(h, uint64(r.WallCycles))
	h = fnvWord(h, uint64(r.CPU.Cycles))
	h = fnvWord(h, uint64(r.CPU.StallCycles))
	h = fnvWord(h, uint64(r.CPU.ALUCycles))
	h = fnvWord(h, uint64(r.CPU.AccessCycles))
	h = fnvWord(h, uint64(r.CPU.Instructions))
	h = fnvWord(h, uint64(r.CPU.Loads))
	h = fnvWord(h, uint64(r.CPU.Stores))
	h = fnvWord(h, uint64(r.CPU.Atomics))
	h = fnvWord(h, uint64(r.Bus.Requests))
	h = fnvWord(h, uint64(r.Bus.Grants))
	h = fnvWord(h, uint64(r.Bus.HeldCycles))
	h = fnvWord(h, uint64(r.Bus.WaitCycles))
	h = fnvWord(h, uint64(r.Bus.MaxWait))
	h = fnvWord(h, uint64(r.Bus.TotalWait))
	h = fnvWord(h, uint64(r.Bus.Completions))
	h = fnvWord(h, math.Float64bits(r.Utilisation))
	h = fnvWord(h, math.Float64bits(r.L1HitRate))
	h = fnvWord(h, math.Float64bits(r.L2HitRate))
	for _, k := range mem.Kinds() {
		h = fnvWord(h, uint64(r.MemCounts[k]))
	}
	return h
}

// Summary is one observable's derived statistics in the merged report.
type Summary struct {
	N      int64   `json:"n"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
}

// Summarize derives one observable's summary from its exact accumulator —
// a deterministic function of the state, so equal states render equal
// summaries.
func Summarize(e stats.Exact) Summary {
	return Summary{N: e.N(), Min: e.Min(), Max: e.Max(), Mean: e.Mean(), StdDev: e.StdDev()}
}

// MBPTAReport is the merged campaign's EVT result: the Gumbel fit over the
// streamed block maxima and the pWCET curve at the paper's exceedance
// probabilities.
type MBPTAReport struct {
	Block  int     `json:"block"`
	Maxima int     `json:"maxima"`
	Mu     float64 `json:"mu"`
	Sigma  float64 `json:"sigma"`
	// PWCET maps a per-block exceedance probability p (the decimal
	// exponent's string, e.g. "1e-12") to fit.Quantile(1−p) over the block
	// maxima. mbpta.Analysis.PWCET instead takes a per-run p and converts
	// it to the per-block 1−(1−p)^Block first, so its bounds are lower.
	PWCET map[string]float64 `json:"pwcet"`
}

// Report is a completed campaign's merged output. It is derived from the
// merged aggregate state alone — never from the shard count or execution
// order — and Encode renders it canonically, so K ∈ {1, 2, 8} (and a
// kill-and-resume) produce byte-identical report files. ResultHash is the
// strongest of its gates: the SHA-256 of the per-unit digest stream, which
// differs unless every one of the campaign's unit results matched.
type Report struct {
	// Campaign is the spec digest (CampaignSpec.Digest).
	Campaign string `json:"campaign"`
	// Name is the spec's label.
	Name string `json:"name,omitempty"`
	// Units is the campaign size.
	Units int64 `json:"units"`
	// ResultHash is hex SHA-256 over the packed per-unit result digests.
	ResultHash string `json:"result_hash"`
	// TaskCycles, WallCycles, BusHeld, BusWait summarise the observables.
	TaskCycles Summary `json:"task_cycles"`
	WallCycles Summary `json:"wall_cycles"`
	BusHeld    Summary `json:"bus_held"`
	BusWait    Summary `json:"bus_wait"`
	// FairnessJain is Jain's index over per-unit bus occupancy.
	FairnessJain float64 `json:"fairness_jain"`
	// MBPTA is the EVT fit; omitted when too few maxima completed (< 10).
	MBPTA *MBPTAReport `json:"mbpta,omitempty"`
}

// pwcetExponents are the exceedance probabilities the report tabulates —
// the paper's Figure 5 axis down to the certification-grade 10⁻¹².
var pwcetExponents = []int{-3, -6, -9, -12}

// Report derives the merged output from a complete aggregate (one covering
// the whole campaign).
func (a *Agg) Report(c *Campaign) (Report, error) {
	if a.Lo != 0 || a.N != c.Units() {
		return Report{}, fmt.Errorf("shard: report over partial range [%d,+%d) of %d units", a.Lo, a.N, c.Units())
	}
	if err := a.validate(c.Block()); err != nil {
		return Report{}, err
	}
	sum := sha256.Sum256(a.Digests)
	r := Report{
		Campaign:     c.Digest(),
		Name:         c.Spec.Name,
		Units:        a.N,
		ResultHash:   hex.EncodeToString(sum[:]),
		TaskCycles:   Summarize(a.TaskCycles),
		WallCycles:   Summarize(a.WallCycles),
		BusHeld:      Summarize(a.BusHeld),
		BusWait:      Summarize(a.BusWait),
		FairnessJain: a.BusHeld.Jain(),
	}
	if fit, err := a.Max.Analyze(); err == nil {
		m := &MBPTAReport{
			Block:  a.Max.Block,
			Maxima: len(a.Max.Maxima),
			Mu:     fit.Mu,
			Sigma:  fit.Sigma,
			PWCET:  map[string]float64{},
		}
		for _, exp := range pwcetExponents {
			m.PWCET[fmt.Sprintf("1e%d", exp)] = fit.Quantile(1 - math.Pow(10, float64(exp)))
		}
		r.MBPTA = m
	}
	return r, nil
}

// Encode renders the report in its canonical byte form: indented JSON,
// fixed field order, sorted map keys, trailing newline — the exact bytes
// the identity gates compare.
func (r Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: encode report: %w", err)
	}
	return append(data, '\n'), nil
}
