package arbiter

import "math/bits"

// This file holds the linear-scan reference twins of the fairness-policy
// zoo (propfair.go, gwf.go, mts.go), in the same role reference.go plays
// for the original six policies: unexported refPolicy models whose sole
// consumer is the differential suite (scaleref_test.go), which drives each
// exported policy's PickBits pick-for-pick against its twin at every core
// count. The
// fixed-point and token arithmetic is deliberately shared logic written
// twice — any divergence in lazy catch-up scheduling, truncation order or
// tie-breaking between the word-mask path and the plain scan fails the
// suite loudly.

// refPropFair is the linear-scan proportional-fair policy.
type refPropFair struct {
	n       int
	betaQ   uint64
	decayQ  uint64
	weights []uint64
	slot    int64
	avg     []uint64
	stamp   []int64
}

func newRefPropFair(n int, weights []int64, shift int) *refPropFair {
	if shift == 0 {
		shift = DefaultPFShift
	}
	p := &refPropFair{
		n:       n,
		betaQ:   unitQ32 >> uint(shift),
		weights: copyWeights("refPropFair", n, weights),
		avg:     make([]uint64, n),
		stamp:   make([]int64, n),
	}
	p.decayQ = unitQ32 - p.betaQ
	return p
}

func (p *refPropFair) Name() string { return "PF" }

func (p *refPropFair) OnRequest(int, int64) {}

func (p *refPropFair) catchup(m int) {
	if d := p.slot - p.stamp[m]; d > 0 {
		if p.avg[m] != 0 {
			p.avg[m] = mulQ32(p.avg[m], powQ32(p.decayQ, d))
		}
		p.stamp[m] = p.slot
	}
}

func (p *refPropFair) Pick(eligible []bool, _ int64) (int, bool) {
	best := -1
	for m := 0; m < p.n && m < len(eligible); m++ {
		if !eligible[m] {
			continue
		}
		p.catchup(m)
		if best < 0 {
			best = m
			continue
		}
		chi, clo := bits.Mul64(p.avg[m], p.weights[best])
		bhi, blo := bits.Mul64(p.avg[best], p.weights[m])
		if chi < bhi || (chi == bhi && clo < blo) {
			best = m
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func (p *refPropFair) OnGrant(m int, _ int64) {
	if m < 0 || m >= p.n {
		return
	}
	p.catchup(m)
	p.avg[m] = mulQ32(p.avg[m], p.decayQ) + p.betaQ
	p.slot++
	p.stamp[m] = p.slot
}

func (p *refPropFair) Reset(uint64) {
	p.slot = 0
	for i := range p.avg {
		p.avg[i] = 0
		p.stamp[i] = 0
	}
}

// refGWF is the linear-scan start-time-fair-queueing policy.
type refGWF struct {
	n       int
	quantum []uint64
	vtime   uint64
	start   []uint64
	finish  []uint64
}

func newRefGWF(n int, weights []int64) *refGWF {
	g := &refGWF{
		n:       n,
		quantum: make([]uint64, n),
		start:   make([]uint64, n),
		finish:  make([]uint64, n),
	}
	for i, w := range copyWeights("refGWF", n, weights) {
		q := uint64(gwfScale) / w
		if q == 0 {
			q = 1
		}
		g.quantum[i] = q
	}
	return g
}

func (g *refGWF) Name() string { return "GWF" }

func (g *refGWF) OnRequest(m int, _ int64) {
	if m < 0 || m >= g.n {
		return
	}
	if g.finish[m] > g.vtime {
		g.start[m] = g.finish[m]
	} else {
		g.start[m] = g.vtime
	}
}

func (g *refGWF) Pick(eligible []bool, _ int64) (int, bool) {
	best := -1
	var bestStart uint64
	for m := 0; m < g.n && m < len(eligible); m++ {
		if !eligible[m] {
			continue
		}
		if best < 0 || g.start[m] < bestStart {
			best, bestStart = m, g.start[m]
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func (g *refGWF) OnGrant(m int, _ int64) {
	if m < 0 || m >= g.n {
		return
	}
	if g.start[m] > g.vtime {
		g.vtime = g.start[m]
	}
	g.finish[m] = g.start[m] + g.quantum[m]
	g.start[m] = g.finish[m]
}

func (g *refGWF) Reset(uint64) {
	g.vtime = 0
	for i := range g.start {
		g.start[i] = 0
		g.finish[i] = 0
	}
}

// refMTS is the linear-scan multi-timescale token-bucket policy: pass one
// computes conformance levels over the eligible masters, pass two walks
// the rotation order for the first maximum-level master.
type refMTS struct {
	n       int
	nscales int
	cost    []int64
	caps    []int64
	rate    []int64
	tokens  []int64
	last    []int64
	next    int
	levels  []int8
}

func newRefMTS(n int, weights []int64, scales []Timescale) *refMTS {
	if len(scales) == 0 {
		scales = DefaultTimescales()
	}
	t := &refMTS{
		n:       n,
		nscales: len(scales),
		cost:    make([]int64, len(scales)),
		caps:    make([]int64, len(scales)),
		rate:    make([]int64, n*len(scales)),
		tokens:  make([]int64, n*len(scales)),
		last:    make([]int64, n),
		levels:  make([]int8, n),
	}
	ws := copyWeights("refMTS", n, weights)
	for l, s := range scales {
		t.cost[l] = s.Den
		t.caps[l] = s.Depth * s.Den
	}
	for m := 0; m < n; m++ {
		for l, s := range scales {
			t.rate[m*t.nscales+l] = s.Num * int64(ws[m])
		}
	}
	t.Reset(0)
	return t
}

func (t *refMTS) Name() string { return "MTS" }

func (t *refMTS) OnRequest(int, int64) {}

func (t *refMTS) refill(m int, cycle int64) {
	d := cycle - t.last[m]
	if d <= 0 {
		return
	}
	base := m * t.nscales
	for l := 0; l < t.nscales; l++ {
		tok := t.tokens[base+l]
		if c := t.caps[l]; tok < c {
			if r := t.rate[base+l]; d >= (c-tok+r-1)/r {
				tok = c
			} else {
				tok += d * r
			}
			t.tokens[base+l] = tok
		}
	}
	t.last[m] = cycle
}

func (t *refMTS) level(m int) int8 {
	base := m * t.nscales
	var lv int8
	for l := 0; l < t.nscales; l++ {
		if t.tokens[base+l] >= t.cost[l] {
			lv++
		}
	}
	return lv
}

func (t *refMTS) Pick(eligible []bool, cycle int64) (int, bool) {
	max := int8(-1)
	any := false
	for m := 0; m < t.n && m < len(eligible); m++ {
		if !eligible[m] {
			continue
		}
		t.refill(m, cycle)
		lv := t.level(m)
		t.levels[m] = lv
		if lv > max {
			max = lv
		}
		any = true
	}
	if !any {
		return 0, false
	}
	for i := 0; i < t.n; i++ {
		m := (t.next + i) % t.n
		if m < len(eligible) && eligible[m] && t.levels[m] == max {
			return m, true
		}
	}
	return 0, false
}

func (t *refMTS) OnGrant(m int, cycle int64) {
	if m < 0 || m >= t.n {
		return
	}
	t.refill(m, cycle)
	base := m * t.nscales
	for l := 0; l < t.nscales; l++ {
		if t.tokens[base+l] >= t.cost[l] {
			t.tokens[base+l] -= t.cost[l]
		}
	}
	t.next = (m + 1) % t.n
}

func (t *refMTS) Reset(uint64) {
	t.next = 0
	for m := 0; m < t.n; m++ {
		t.last[m] = 0
		base := m * t.nscales
		for l := 0; l < t.nscales; l++ {
			t.tokens[base+l] = t.caps[l]
		}
	}
}
