// Package arbiter implements the slot-fair bus arbitration policies the
// paper compares against and composes with credit-based arbitration:
// round-robin, FIFO, TDMA, lottery (LOTTERYBUS, Lahiri et al. DAC 2001),
// random permutations (Jalle et al. DATE 2014) and — for the starvation
// discussion in §II — fixed priority; plus the weighted fairness policies
// of the related work: proportional fair, general weighted fairness
// (Vandalore et al.) and the multi-timescale token-bucket profile (Nádas
// et al.). The weighted policies (lottery, PF, GWF, MTS) each take one
// per-master weight vector; nil or empty means equal weights.
//
// A Policy never sees raw bus state. The bus (or the CBA filter in front of
// it) computes the set of masters that are pending and eligible this cycle
// and asks the policy to pick one. All policies are deterministic given their
// rng seed, which is what makes whole-simulation runs reproducible. A policy
// restarts only through Reset(seed): the randomised ones (lottery, random
// permutations) reseed their stream in place, and their constructors end in
// the same Reset; the deterministic ones ignore the seed.
//
// A policy selects from an eligibility bitset in O(words + set bits) rather
// than scanning all masters, which is what lets arbitration cost stay flat
// as the population grows to hundreds of requestors. The pre-bitset linear
// scans survive verbatim as unexported reference twins (reference.go,
// referencefair.go); the differential suite asserts pick-for-pick and
// rng-draw-order equality against them at every core count.
package arbiter

import "creditbus/internal/bitset"

// Policy is a bus arbitration policy.
//
// The bus calls OnRequest when a master's request first becomes arbitrable,
// PickBits on every cycle in which the bus is free and at least one master
// may compete, and OnGrant when a pick is accepted.
type Policy interface {
	// Name identifies the policy in reports (e.g. "RR", "RP").
	Name() string
	// OnRequest records that master m's request became arbitrable at cycle.
	OnRequest(m int, cycle int64)
	BitPicker
	// OnGrant records that master m was granted at cycle.
	OnGrant(m int, cycle int64)
	// Reset returns the policy to its just-constructed state. A randomised
	// policy reseeds its stream in place with seed, so a reset policy is
	// bit-identical to a fresh one built with that seed; a deterministic
	// policy ignores seed.
	Reset(seed uint64)
}

// BitPicker is a policy's pick: the one arbitration decision per free bus
// cycle. Selection iterates only the set bits, so a decision over 1024
// masters with a handful of contenders costs a few word scans instead of a
// 1024-entry loop.
type BitPicker interface {
	// PickBits chooses one master among the set bits of eligible, or
	// reports ok=false to leave the bus idle this cycle (TDMA does this
	// outside slot boundaries). It must not pick an ineligible master. The
	// eligible set covers exactly the policy's master count (bits ≥ n
	// clear); implementations must not retain or mutate it.
	PickBits(eligible bitset.Set, cycle int64) (m int, ok bool)
}

// Scheduler is optionally implemented by policies that can only grant at
// particular cycles (TDMA's slot boundaries). NextPickCycle returns the
// earliest cycle ≥ from at which PickBits could return ok=true; between
// from and that cycle the policy is guaranteed to leave the bus idle and
// mutate no state, which lets the event-horizon stepping engine skip those
// cycles.
// Policies that do not implement Scheduler are work-conserving: they can
// grant on any cycle with an eligible master.
type Scheduler interface {
	NextPickCycle(from int64) int64
}
