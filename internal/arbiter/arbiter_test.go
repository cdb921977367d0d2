package arbiter

import (
	"math"
	"testing"
	"testing/quick"

	"creditbus/internal/bitset"
)

// allEligible returns a mask with n masters all eligible.
func allEligible(n int) []bool {
	e := make([]bool, n)
	for i := range e {
		e[i] = true
	}
	return e
}

// maskBits converts a []bool eligibility mask to the bitset PickBits takes.
func maskBits(eligible []bool) bitset.Set {
	s := bitset.New(len(eligible))
	for m, e := range eligible {
		if e {
			s.Set(m)
		}
	}
	return s
}

// pick drives p's PickBits with a []bool eligibility mask, so tests can
// state masks as literals.
func pick(p BitPicker, eligible []bool, cycle int64) (int, bool) {
	return p.PickBits(maskBits(eligible), cycle)
}

// boolPolicy gives a policy the reference twins' []bool contract, so one
// table can hold policies and twins.
type boolPolicy struct{ Policy }

func (p boolPolicy) Pick(eligible []bool, cycle int64) (int, bool) {
	return pick(p.Policy, eligible, cycle)
}

// policies under test, constructed fresh for table-driven contract tests.
func testPolicies(n int) []Policy {
	return []Policy{
		NewRoundRobin(n),
		NewFIFO(n),
		NewTDMA(n, 4),
		NewLottery(n, nil, 1),
		NewRandomPermutation(n, 1),
		NewFixedPriority(n),
	}
}

func TestPolicyContractPicksOnlyEligible(t *testing.T) {
	const n = 4
	for _, p := range testPolicies(n) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			// Exhaustively try every eligibility mask over many cycles;
			// the policy must never pick an ineligible master.
			for cycle := int64(0); cycle < 200; cycle++ {
				mask := int(cycle) % 16
				e := make([]bool, n)
				for i := 0; i < n; i++ {
					e[i] = mask>>uint(i)&1 == 1
				}
				if m, ok := pick(p, e, cycle); ok {
					if m < 0 || m >= n || !e[m] {
						t.Fatalf("%s picked ineligible master %d with mask %v", p.Name(), m, e)
					}
					p.OnGrant(m, cycle)
				}
			}
		})
	}
}

func TestPolicyContractEmptyMask(t *testing.T) {
	const n = 4
	for _, p := range testPolicies(n) {
		if m, ok := pick(p, make([]bool, n), 0); ok {
			t.Fatalf("%s picked %d from empty mask", p.Name(), m)
		}
	}
}

func TestWorkConservingPoliciesAlwaysPick(t *testing.T) {
	// All policies except TDMA must pick whenever someone is eligible.
	const n = 4
	for _, p := range testPolicies(n) {
		if p.Name() == "TDMA" {
			continue
		}
		for cycle := int64(0); cycle < 100; cycle++ {
			e := make([]bool, n)
			e[int(cycle)%n] = true
			m, ok := pick(p, e, cycle)
			if !ok {
				t.Fatalf("%s left bus idle with eligible master at cycle %d", p.Name(), cycle)
			}
			p.OnGrant(m, cycle)
		}
	}
}

func TestRoundRobinRotation(t *testing.T) {
	rr := NewRoundRobin(4)
	e := allEligible(4)
	var got []int
	for cycle := int64(0); cycle < 8; cycle++ {
		m, ok := pick(rr, e, cycle)
		if !ok {
			t.Fatal("round robin did not pick")
		}
		rr.OnGrant(m, cycle)
		got = append(got, m)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdleMasters(t *testing.T) {
	rr := NewRoundRobin(4)
	e := []bool{false, false, true, false}
	m, ok := pick(rr, e, 0)
	if !ok || m != 2 {
		t.Fatalf("pick = %d,%v, want 2,true", m, ok)
	}
	rr.OnGrant(m, 0)
	// After granting 2, priority moves to 3.
	e = []bool{true, false, false, true}
	m, ok = pick(rr, e, 1)
	if !ok || m != 3 {
		t.Fatalf("pick after rotation = %d,%v, want 3,true", m, ok)
	}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO(3)
	f.OnRequest(2, 10)
	f.OnRequest(0, 12)
	f.OnRequest(1, 11)
	e := allEligible(3)
	want := []int{2, 1, 0}
	for i, w := range want {
		m, ok := pick(f, e, 20)
		if !ok || m != w {
			t.Fatalf("grant %d = %d,%v, want %d", i, m, ok, w)
		}
		f.OnGrant(m, 20)
		e[m] = false
	}
}

func TestFIFOTieBreaksByIndex(t *testing.T) {
	f := NewFIFO(3)
	f.OnRequest(2, 5)
	f.OnRequest(1, 5)
	m, ok := pick(f, allEligible(3), 6)
	if !ok || m != 1 {
		t.Fatalf("tie break pick = %d,%v, want 1,true", m, ok)
	}
}

func TestTDMASlotDiscipline(t *testing.T) {
	td := NewTDMA(4, 56)
	e := allEligible(4)
	// Only slot-start cycles may grant; owner rotates every 56 cycles.
	for cycle := int64(0); cycle < 4*56; cycle++ {
		m, ok := pick(td, e, cycle)
		if cycle%56 != 0 {
			if ok {
				t.Fatalf("TDMA granted %d mid-slot at cycle %d", m, cycle)
			}
			continue
		}
		wantOwner := int(cycle / 56 % 4)
		if !ok || m != wantOwner {
			t.Fatalf("cycle %d: grant = %d,%v, want owner %d", cycle, m, ok, wantOwner)
		}
	}
}

func TestTDMAIdleWhenOwnerSilent(t *testing.T) {
	td := NewTDMA(2, 10)
	e := []bool{false, true} // only master 1 requests
	if _, ok := pick(td, e, 0); ok {
		t.Fatal("TDMA granted a slot to a non-owner")
	}
	m, ok := pick(td, e, 10)
	if !ok || m != 1 {
		t.Fatalf("owner slot: %d,%v, want 1,true", m, ok)
	}
}

func TestLotteryRespectssTickets(t *testing.T) {
	// 3:1 tickets should give ~75%/25% of grants under full contention.
	l := NewLottery(2, []int64{3, 1}, 7)
	e := allEligible(2)
	counts := [2]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		m, ok := pick(l, e, int64(i))
		if !ok {
			t.Fatal("lottery did not pick")
		}
		counts[m]++
	}
	frac := float64(counts[0]) / draws
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("master 0 won %.3f of draws, want ~0.75", frac)
	}
}

func TestLotterySlotFairEqualTickets(t *testing.T) {
	l := NewLottery(4, nil, 3)
	e := allEligible(4)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		m, _ := pick(l, e, int64(i))
		counts[m]++
	}
	for m, c := range counts {
		if frac := float64(c) / draws; math.Abs(frac-0.25) > 0.01 {
			t.Fatalf("master %d share %.3f, want ~0.25", m, frac)
		}
	}
}

func TestLotteryReproducible(t *testing.T) {
	a := NewLottery(4, nil, 11)
	b := NewLottery(4, nil, 11)
	e := allEligible(4)
	for i := int64(0); i < 1000; i++ {
		ma, _ := pick(a, e, i)
		mb, _ := pick(b, e, i)
		if ma != mb {
			t.Fatalf("same-seed lotteries diverged at %d", i)
		}
	}
}

func TestLotteryValidation(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tickets []int64
	}{
		{0, nil}, {2, []int64{1}}, {2, []int64{1, 0}}, {2, []int64{1, -2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewLottery(%d,%v) did not panic", tc.n, tc.tickets)
				}
			}()
			NewLottery(tc.n, tc.tickets, 1)
		}()
	}
}

func TestRandomPermutationOncePerRound(t *testing.T) {
	// Under full contention, any window of N consecutive grants contains
	// each master exactly once.
	const n = 4
	p := NewRandomPermutation(n, 5)
	e := allEligible(n)
	var grants []int
	for i := int64(0); i < 400; i++ {
		m, ok := pick(p, e, i)
		if !ok {
			t.Fatal("RP did not pick under full contention")
		}
		p.OnGrant(m, i)
		grants = append(grants, m)
	}
	for w := 0; w+n <= len(grants); w += n {
		seen := map[int]bool{}
		for _, m := range grants[w : w+n] {
			if seen[m] {
				t.Fatalf("round %d repeated master %d: %v", w/n, m, grants[w:w+n])
			}
			seen[m] = true
		}
	}
}

func TestRandomPermutationUniformPosition(t *testing.T) {
	// Under full contention, each master's position within a round is
	// uniform over 0..3 — the property MBPTA relies on.
	const n = 4
	p := NewRandomPermutation(n, 9)
	e := allEligible(n)
	posCounts := [n][n]int{}
	const rounds = 10000
	for r := 0; r < rounds; r++ {
		for pos := 0; pos < n; pos++ {
			m, _ := pick(p, e, int64(r*n+pos))
			p.OnGrant(m, int64(r*n+pos))
			posCounts[m][pos]++
		}
	}
	for m := 0; m < n; m++ {
		for pos := 0; pos < n; pos++ {
			frac := float64(posCounts[m][pos]) / rounds
			if math.Abs(frac-0.25) > 0.025 {
				t.Fatalf("master %d at position %d with frequency %.3f, want ~0.25", m, pos, frac)
			}
		}
	}
}

func TestRandomPermutationWorkConservingAfterRoundExhaustion(t *testing.T) {
	// Master 0 alone requests continuously: it must be granted every
	// arbitration even though each round only owes it one grant.
	p := NewRandomPermutation(4, 13)
	e := []bool{true, false, false, false}
	for i := int64(0); i < 100; i++ {
		m, ok := pick(p, e, i)
		if !ok || m != 0 {
			t.Fatalf("cycle %d: %d,%v, want 0,true", i, m, ok)
		}
		p.OnGrant(m, i)
	}
}

func TestFixedPriorityStarvation(t *testing.T) {
	// With master 0 always requesting, lower-priority masters never win:
	// the §II argument for why priorities are unusable here.
	p := NewFixedPriority(3)
	e := allEligible(3)
	for i := int64(0); i < 100; i++ {
		m, ok := pick(p, e, i)
		if !ok || m != 0 {
			t.Fatalf("fixed priority granted %d, want 0", m)
		}
		p.OnGrant(m, i)
	}
}

func TestResetRestoresInitialBehaviour(t *testing.T) {
	for _, mk := range []func() Policy{
		func() Policy { return NewRoundRobin(4) },
		func() Policy { return NewLottery(4, nil, 21) },
		func() Policy { return NewRandomPermutation(4, 21) },
		func() Policy { return NewFIFO(4) },
	} {
		p := mk()
		e := allEligible(4)
		var first []int
		for i := int64(0); i < 50; i++ {
			m, _ := pick(p, e, i)
			p.OnGrant(m, i)
			first = append(first, m)
		}
		p.Reset(21)
		for i := int64(0); i < 50; i++ {
			m, _ := pick(p, e, i)
			p.OnGrant(m, i)
			if m != first[i] {
				t.Fatalf("%s: post-Reset grant %d = %d, want %d", p.Name(), i, m, first[i])
			}
		}
	}
}

func TestConstructorsValidate(t *testing.T) {
	cases := []func(){
		func() { NewRoundRobin(0) },
		func() { NewFIFO(0) },
		func() { NewTDMA(0, 5) },
		func() { NewTDMA(4, 0) },
		func() { NewRandomPermutation(0, 1) },
		func() { NewFixedPriority(0) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("constructor case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

func TestQuickPolicyNeverPicksIneligible(t *testing.T) {
	pols := testPolicies(8)
	f := func(mask uint8, cycle uint16) bool {
		e := make([]bool, 8)
		for i := 0; i < 8; i++ {
			e[i] = mask>>uint(i)&1 == 1
		}
		for _, p := range pols {
			if m, ok := pick(p, e, int64(cycle)); ok {
				if m < 0 || m >= 8 || !e[m] {
					return false
				}
				p.OnGrant(m, int64(cycle))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
