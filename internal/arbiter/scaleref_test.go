package arbiter

import (
	"fmt"
	"testing"

	"creditbus/internal/rng"
)

// This file is the scale-out differential suite: every policy's PickBits is
// driven pick-for-pick against its preserved linear-scan reference twin
// (reference.go, referencefair.go) over random request patterns at core
// counts from 2 to 1024, with rng-draw-order equality asserted for the
// randomised policies.

// scaleCounts spans the refactor's target populations, including a
// word-boundary-straddling odd count.
var scaleCounts = []int{2, 8, 64, 257, 1024}

// mtsFine is a custom single-cycle-granularity profile exercising the MTS
// policy's non-default timescale path.
var mtsFine = []Timescale{{Num: 1, Den: 16, Depth: 2}, {Num: 1, Den: 96, Depth: 6}, {Num: 1, Den: 700, Depth: 40}}

// rngDrainer exposes the policy's rng stream so the test can prove two
// instances consumed exactly the same draws.
type rngDrainer interface{ drain() *rng.Stream }

func (l *Lottery) drain() *rng.Stream              { return &l.src }
func (l *refLottery) drain() *rng.Stream           { return &l.src }
func (p *RandomPermutation) drain() *rng.Stream    { return &p.src }
func (p *refRandomPermutation) drain() *rng.Stream { return &p.src }

func TestBitsetPoliciesMatchReferenceScans(t *testing.T) {
	for _, n := range scaleCounts {
		n := n
		tickets := make([]int64, n)
		src := rng.New(uint64(n)*977 + 5)
		for i := range tickets {
			tickets[i] = 1 + int64(src.Intn(5))
		}
		cases := []struct {
			name string
			mk   func(seed uint64) Policy
			ref  func(seed uint64) refPolicy
		}{
			{"FIFO", func(uint64) Policy { return NewFIFO(n) }, func(uint64) refPolicy { return newRefFIFO(n) }},
			{"RR", func(uint64) Policy { return NewRoundRobin(n) }, func(uint64) refPolicy { return newRefRoundRobin(n) }},
			{"PRI", func(uint64) Policy { return NewFixedPriority(n) }, func(uint64) refPolicy { return newRefFixedPriority(n) }},
			{"TDMA", func(uint64) Policy { return NewTDMA(n, 7) }, func(uint64) refPolicy { return newRefTDMA(n, 7) }},
			{"LOT", func(s uint64) Policy { return NewLottery(n, tickets, s) },
				func(s uint64) refPolicy { return newRefLottery(n, tickets, s) }},
			{"RP", func(s uint64) Policy { return NewRandomPermutation(n, s) },
				func(s uint64) refPolicy { return newRefRandomPermutation(n, s) }},
			{"PF", func(uint64) Policy { return NewPropFair(n, tickets, 0) },
				func(uint64) refPolicy { return newRefPropFair(n, tickets, 0) }},
			{"PF-slow", func(uint64) Policy { return NewPropFair(n, nil, 4) },
				func(uint64) refPolicy { return newRefPropFair(n, nil, 4) }},
			{"GWF", func(uint64) Policy { return NewGWF(n, tickets) },
				func(uint64) refPolicy { return newRefGWF(n, tickets) }},
			{"MTS", func(uint64) Policy { return NewMTS(n, tickets, nil) },
				func(uint64) refPolicy { return newRefMTS(n, tickets, nil) }},
			{"MTS-fine", func(uint64) Policy { return NewMTS(n, nil, mtsFine) },
				func(uint64) refPolicy { return newRefMTS(n, nil, mtsFine) }},
		}
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				t.Parallel()
				seed := uint64(n)*31 + 7
				ref := tc.ref(seed) // linear scan over a []bool mask
				pol := tc.mk(seed)  // word-mask PickBits
				drivePolicies(t, n, ref, pol)

				// rng-draw-order equality: after identical runs the streams
				// must be at the identical position — the next draws agree.
				if rd, ok := ref.(rngDrainer); ok {
					a, b := rd.drain(), pol.(rngDrainer).drain()
					for i := 0; i < 8; i++ {
						if x, y := a.Uint64(), b.Uint64(); x != y {
							t.Fatalf("rng streams diverged after the run: draw %d = %d / %d", i, x, y)
						}
					}
				}
			})
		}
	}
}

// drivePolicies runs a randomized request/eligibility pattern through the
// twin and the policy, asserting pick-for-pick equality at every step. The
// pattern mixes dense, sparse and empty eligibility phases, occasional
// eligible-without-arrival masters (FIFO's attach-mid-run branch) and
// restarts through Reset with a fresh seed.
func drivePolicies(t *testing.T, n int, ref refPolicy, pol Policy) {
	t.Helper()
	pat := rng.New(uint64(n)*1013 + 3)
	pending := make([]bool, n)
	eligible := make([]bool, n)
	cycle := int64(0)

	steps := 2000
	if n >= 257 {
		steps = 600 // keep the O(n)-per-step pattern generation bounded
	}
	for s := 0; s < steps; s++ {
		cycle += 1 + int64(pat.Intn(3))

		// New arrivals: a handful of fresh requests this cycle.
		for k, posts := 0, pat.Intn(4); k < posts; k++ {
			m := pat.Intn(n)
			if !pending[m] {
				pending[m] = true
				ref.OnRequest(m, cycle)
				pol.OnRequest(m, cycle)
			}
		}

		// Eligibility: a phase-dependent random subset of the pending set.
		density := pat.Intn(100)
		for m := 0; m < n; m++ {
			eligible[m] = pending[m] && pat.Intn(100) < density
		}
		if pat.Intn(50) == 0 {
			// Eligible master the policy never saw an arrival for.
			eligible[pat.Intn(n)] = true
		}

		mr, okr := ref.Pick(eligible, cycle)
		mb, okb := pick(pol, eligible, cycle)
		if okr != okb || (okr && mr != mb) {
			t.Fatalf("step %d (cycle %d): picks diverged: ref=(%d,%v) bits=(%d,%v)",
				s, cycle, mr, okr, mb, okb)
		}
		if okr {
			if !eligible[mr] {
				t.Fatalf("step %d: picked ineligible master %d", s, mr)
			}
			ref.OnGrant(mr, cycle)
			pol.OnGrant(mr, cycle)
			pending[mr] = false
		}

		switch pat.Intn(200) {
		case 0, 1:
			ns := pat.Uint64()
			ref.Reset(ns)
			pol.Reset(ns)
			for m := range pending {
				pending[m] = false
			}
		}
	}
}
