// Package sim assembles the full platform of the paper — in-order cores
// with private randomised L1 data caches, per-core partitions of a
// randomised write-back L2, a non-split shared bus with pluggable
// arbitration, optional credit-based arbitration, and a fixed-latency
// memory controller — and runs tasks on it in the paper's three scenarios:
// isolation, operation-mode contention (real co-runners) and
// WCET-estimation mode (Table I contention injectors).
package sim

import (
	"fmt"

	"creditbus/internal/arbiter"
	"creditbus/internal/cache"
	"creditbus/internal/core"
	"creditbus/internal/mem"
)

// PolicyKind names an underlying arbitration policy. The values are the
// scenario schema's policy names.
type PolicyKind string

// The supported policies (see package arbiter).
const (
	PolicyRoundRobin PolicyKind = "RR"
	PolicyFIFO       PolicyKind = "FIFO"
	PolicyTDMA       PolicyKind = "TDMA"
	PolicyLottery    PolicyKind = "LOT"
	PolicyRandomPerm PolicyKind = "RP"
	PolicyPriority   PolicyKind = "PRI"
	// The fairness-policy zoo: proportional fair with EWMA rate averaging,
	// general weighted fairness (start-time fair queueing over explicit
	// rates) and the multi-timescale token-bucket profile.
	PolicyPropFair PolicyKind = "PF"
	PolicyGWF      PolicyKind = "GWF"
	PolicyMTS      PolicyKind = "MTS"
)

// Validate reports whether k is one of the supported policies.
func (k PolicyKind) Validate() error {
	switch k {
	case PolicyRoundRobin, PolicyFIFO, PolicyTDMA, PolicyLottery, PolicyRandomPerm, PolicyPriority,
		PolicyPropFair, PolicyGWF, PolicyMTS:
		return nil
	}
	return fmt.Errorf("sim: unknown policy %q (have RR, FIFO, TDMA, LOT, RP, PRI, PF, GWF, MTS)", k)
}

// Weighted reports whether policy k takes per-core Weights: the lottery's
// tickets and the fairness zoo's entitlements.
func (k PolicyKind) Weighted() bool {
	switch k {
	case PolicyLottery, PolicyPropFair, PolicyGWF, PolicyMTS:
		return true
	}
	return false
}

// MaxWeight bounds per-core arbitration weights (Config.Weights): large
// enough for any realistic entitlement ratio, small enough that every
// weighted integer product downstream — a lottery's ticket total over
// MaxCores masters included — stays far from overflow.
const MaxWeight = 1 << 20

// Timescale is one token bucket of an MTS bandwidth profile
// (Config.MTSTimescales); see arbiter.Timescale.
type Timescale = arbiter.Timescale

// CreditKind selects the CBA configuration in front of the policy. The
// values are the scenario schema's credit kinds.
type CreditKind string

// The CBA variants of the paper.
const (
	// CreditOff disables CBA (the paper's baseline configurations).
	CreditOff CreditKind = "off"
	// CreditCBA is homogeneous CBA: every core refills 1/N per cycle.
	CreditCBA CreditKind = "cba"
	// CreditHCBAWeights is H-CBA variant 2: the privileged core refills
	// Num/Den per cycle, the others split the rest evenly (the paper's
	// evaluation uses 1/2 vs 1/6 each).
	CreditHCBAWeights CreditKind = "hcba-weights"
	// CreditHCBACap is H-CBA variant 1: homogeneous refill, but the
	// privileged core's budget saturates at CapFactor times the
	// eligibility threshold, enabling back-to-back grants.
	CreditHCBACap CreditKind = "hcba-cap"
)

// Validate reports whether k is one of the CBA variants.
func (k CreditKind) Validate() error {
	switch k {
	case CreditOff, CreditCBA, CreditHCBAWeights, CreditHCBACap:
		return nil
	}
	return fmt.Errorf("sim: unknown credit kind %q (have off, cba, hcba-weights, hcba-cap)", k)
}

// CreditSpec configures CBA.
type CreditSpec struct {
	Kind CreditKind
	// Privileged is the core receiving extra bandwidth (H-CBA variants).
	Privileged int
	// Num/Den is the privileged core's bandwidth share (weights variant).
	Num, Den int64
	// CapFactor multiplies the privileged core's budget cap (cap variant).
	CapFactor int64
}

// MaxCores is the largest supported core/bus-master population. The scale-out
// structures (eligibility bitsets, the bus's visibility ring, the flat
// horizon scratch) have no intrinsic ceiling, but every supported count is
// exercised by the differential and oracle suites — counts beyond this are
// rejected by Validate rather than run unverified.
const MaxCores = 1024

// Config describes the platform. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Cores is the number of cores/bus masters.
	Cores int

	// L1Sets/L1Ways and L2Sets/L2Ways size the private L1 data cache and
	// the per-core L2 partition; LineBytes is shared.
	L1Sets, L1Ways int
	L2Sets, L2Ways int
	LineBytes      int

	// StoreBufferDepth is the write-through store buffer capacity.
	StoreBufferDepth int

	// Latency is the bus transaction cost model.
	Latency mem.Latency

	// Policy is the underlying arbitration policy.
	Policy PolicyKind
	// Weights optionally weights the weighted policies (Policy.Weighted):
	// the lottery's tickets, or the PF/GWF/MTS entitlements. One entry per
	// core, each in [1, MaxWeight]; nil or empty means equal weights.
	Weights []int64
	// PFAvgShift sets the PF policy's EWMA coefficient β = 2^-shift
	// (0 = the default shift 1, i.e. β = 0.5).
	PFAvgShift int
	// MTSTimescales overrides the MTS policy's token-bucket profile, fine
	// to coarse (nil or empty = arbiter.DefaultTimescales).
	MTSTimescales []arbiter.Timescale

	// Credit selects the CBA variant.
	Credit CreditSpec

	// ForcePerCycle disables the event-horizon stepping engine and drives
	// the machine one Tick per simulated cycle. The two engines are
	// bit-identical (asserted by the differential suite in this package);
	// the per-cycle path exists as the reference implementation and for
	// debugging, so the default — false — is the fast path.
	ForcePerCycle bool

	// Mode selects operation or WCET-estimation mode (Table I).
	Mode core.Mode
	// TuA is the core hosting the task under analysis (WCET mode; also
	// the privileged default for H-CBA).
	TuA int
}

// DefaultConfig returns the paper's platform: 4 cores, 4 KiB 2-way L1 data
// caches, 32 KiB 4-way L2 partitions, 32-byte lines, 5/28-cycle latencies
// (MaxL = 56), random-permutations arbitration, CBA off, operation mode.
func DefaultConfig() Config {
	return Config{
		Cores:            4,
		L1Sets:           64,
		L1Ways:           2,
		L2Sets:           256,
		L2Ways:           4,
		LineBytes:        32,
		StoreBufferDepth: 4,
		Latency:          mem.DefaultLatency(),
		Policy:           PolicyRandomPerm,
		Credit:           CreditSpec{Kind: CreditOff},
		Mode:             core.OperationMode,
		TuA:              0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: Cores = %d, need > 0", c.Cores)
	}
	if c.Cores > MaxCores {
		return fmt.Errorf("sim: Cores = %d exceeds the supported maximum of %d", c.Cores, MaxCores)
	}
	if c.TuA < 0 || c.TuA >= c.Cores {
		return fmt.Errorf("sim: TuA = %d out of range", c.TuA)
	}
	if c.StoreBufferDepth < 1 {
		return fmt.Errorf("sim: StoreBufferDepth = %d, need ≥ 1", c.StoreBufferDepth)
	}
	if err := c.Latency.Validate(); err != nil {
		return err
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if len(c.Weights) != 0 {
		if !c.Policy.Weighted() {
			return fmt.Errorf("sim: Weights only apply to the weighted policies, not %q", c.Policy)
		}
		if len(c.Weights) != c.Cores {
			return fmt.Errorf("sim: %d Weights for %d cores", len(c.Weights), c.Cores)
		}
		for i, w := range c.Weights {
			if w < 1 || w > MaxWeight {
				return fmt.Errorf("sim: Weights[%d] = %d outside [1, %d]", i, w, MaxWeight)
			}
		}
	}
	if c.PFAvgShift != 0 {
		if c.Policy != PolicyPropFair {
			return fmt.Errorf("sim: PFAvgShift only applies to policy PF, not %q", c.Policy)
		}
		if c.PFAvgShift < 1 || c.PFAvgShift > 30 {
			return fmt.Errorf("sim: PFAvgShift = %d outside [1, 30]", c.PFAvgShift)
		}
	}
	if len(c.MTSTimescales) != 0 {
		if c.Policy != PolicyMTS {
			return fmt.Errorf("sim: MTSTimescales only apply to policy MTS, not %q", c.Policy)
		}
		if len(c.MTSTimescales) > 8 {
			return fmt.Errorf("sim: %d MTSTimescales, need ≤ 8", len(c.MTSTimescales))
		}
		for i, ts := range c.MTSTimescales {
			for _, f := range []struct {
				name string
				v    int64
			}{{"Num", ts.Num}, {"Den", ts.Den}, {"Depth", ts.Depth}} {
				if f.v < 1 || f.v > MaxWeight {
					return fmt.Errorf("sim: MTSTimescales[%d].%s = %d outside [1, %d]", i, f.name, f.v, MaxWeight)
				}
			}
		}
	}
	if err := c.Credit.Kind.Validate(); err != nil {
		return err
	}
	l1 := cache.Config{Sets: c.L1Sets, Ways: c.L1Ways, LineBytes: c.LineBytes}
	if err := l1.Validate(); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	l2 := cache.Config{Sets: c.L2Sets, Ways: c.L2Ways, LineBytes: c.LineBytes}
	if err := l2.Validate(); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	return nil
}

// buildPolicy instantiates the arbitration policy with the run's seed.
func (c Config) buildPolicy(seed uint64) arbiter.Policy {
	switch c.Policy {
	case PolicyRoundRobin:
		return arbiter.NewRoundRobin(c.Cores)
	case PolicyFIFO:
		return arbiter.NewFIFO(c.Cores)
	case PolicyTDMA:
		return arbiter.NewTDMA(c.Cores, c.Latency.MaxHold())
	case PolicyLottery:
		return arbiter.NewLottery(c.Cores, c.Weights, seed)
	case PolicyRandomPerm:
		return arbiter.NewRandomPermutation(c.Cores, seed)
	case PolicyPriority:
		return arbiter.NewFixedPriority(c.Cores)
	case PolicyPropFair:
		return arbiter.NewPropFair(c.Cores, c.Weights, c.PFAvgShift)
	case PolicyGWF:
		return arbiter.NewGWF(c.Cores, c.Weights)
	case PolicyMTS:
		return arbiter.NewMTS(c.Cores, c.Weights, c.MTSTimescales)
	default:
		panic("sim: buildPolicy on invalid config")
	}
}

// buildCredit instantiates the CBA arbiter, or nil for CreditOff, in the
// configuration's mode: in WCET mode the TuA starts with an empty budget
// (§III.B) and the contenders are gated by their COMP latches.
func (c Config) buildCredit() (*core.Arbiter, error) {
	if c.Credit.Kind == CreditOff {
		return nil, nil
	}
	maxHold := c.Latency.MaxHold()
	var cfg core.Config
	switch c.Credit.Kind {
	case CreditCBA:
		cfg = core.Homogeneous(c.Cores, maxHold)
	case CreditHCBAWeights:
		num, den := c.Credit.Num, c.Credit.Den
		if num == 0 && den == 0 {
			num, den = 1, 2 // the paper's 50% allocation
		}
		var err error
		cfg, err = core.HeterogeneousWeights(c.Cores, maxHold, c.privileged(), num, den)
		if err != nil {
			return nil, err
		}
	case CreditHCBACap:
		factor := c.Credit.CapFactor
		if factor == 0 {
			factor = 2
		}
		var err error
		cfg, err = core.HeterogeneousCap(c.Cores, maxHold, c.privileged(), factor)
		if err != nil {
			return nil, err
		}
	}
	cfg.Mode, cfg.TuA = c.Mode, c.TuA
	return core.New(cfg)
}

func (c Config) privileged() int {
	if c.Credit.Privileged != 0 {
		return c.Credit.Privileged
	}
	return c.TuA
}

// CheckCredit validates the credit configuration by building the arbiter
// it describes, surfacing H-CBA weight/cap feasibility errors — with
// exactly the defaulting buildCredit applies at machine-construction time
// (num/den 1/2, cap factor 2, privileged falling back to the TuA) — without
// running a simulation. Nil for CreditOff.
func (c Config) CheckCredit() error {
	_, err := c.buildCredit()
	return err
}
