package arbiter

import (
	"reflect"
	"strings"
	"testing"
)

// The fairness zoo's contract-level details: names, constructor
// validation, and the out-of-range guards of the notification hooks. The
// behavioural properties live in the differential and scale-reference
// suites; this file pins the cheap surfaces those suites never touch.

func TestZooNames(t *testing.T) {
	for _, tc := range []struct {
		want string
		p    interface{ Name() string }
	}{
		{"PF", NewPropFair(4, nil, 0)},
		{"PF", newRefPropFair(4, nil, 0)},
		{"GWF", NewGWF(4, nil)},
		{"GWF", newRefGWF(4, nil)},
		{"MTS", NewMTS(4, nil, nil)},
		{"MTS", newRefMTS(4, nil, nil)},
	} {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("%T.Name() = %q, want %q", tc.p, got, tc.want)
		}
	}
}

func TestDefaultTimescales(t *testing.T) {
	ts := DefaultTimescales()
	if len(ts) == 0 {
		t.Fatal("DefaultTimescales is empty")
	}
	for i, s := range ts {
		if s.Num < 1 || s.Den < 1 || s.Depth < 1 {
			t.Errorf("timescale %d = %+v: fields must be ≥ 1", i, s)
		}
	}
	// Callers may mutate the returned slice; the defaults must not change.
	ts[0].Den = 9999
	if again := DefaultTimescales(); again[0].Den == 9999 {
		t.Error("DefaultTimescales returns a shared slice")
	}
	// An empty profile, like nil, means the defaults.
	if got, want := NewMTS(4, nil, []Timescale{}), NewMTS(4, nil, nil); !reflect.DeepEqual(got, want) {
		t.Error("NewMTS with an empty profile differs from the default profile")
	}
}

func TestZooConstructorPanics(t *testing.T) {
	cases := []struct {
		name, want string
		build      func()
	}{
		{"pf-n", "needs n > 0", func() { NewPropFair(0, nil, 0) }},
		{"pf-shift", "outside [1,30]", func() { NewPropFair(4, nil, 31) }},
		{"pf-weight-len", "got 2 weights for 4 masters", func() { NewPropFair(4, []int64{1, 2}, 0) }},
		{"pf-weight-zero", "need ≥ 1", func() { NewPropFair(2, []int64{1, 0}, 0) }},
		{"gwf-n", "needs n > 0", func() { NewGWF(-1, nil) }},
		{"gwf-weight-neg", "need ≥ 1", func() { NewGWF(2, []int64{-3, 1}) }},
		{"mts-n", "needs n > 0", func() { NewMTS(0, nil, nil) }},
		{"mts-bad-scale", "Num/Den/Depth ≥ 1", func() { NewMTS(4, nil, []Timescale{{Num: 1, Den: 0, Depth: 1}}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v does not mention %q", r, tc.want)
				}
			}()
			tc.build()
		})
	}
}

// TestZooHookGuards drives the no-op and out-of-range paths of the
// notification hooks: a master index outside [0, n) must be ignored, and
// the rate-based policies' OnRequest must not disturb subsequent picks.
func TestZooHookGuards(t *testing.T) {
	policies := []refPolicy{
		boolPolicy{NewPropFair(4, nil, 0)},
		newRefPropFair(4, nil, 0),
		boolPolicy{NewGWF(4, nil)},
		newRefGWF(4, nil),
		boolPolicy{NewMTS(4, nil, nil)},
		newRefMTS(4, nil, nil),
	}
	eligible := []bool{true, true, true, true}
	for _, p := range policies {
		for _, m := range []int{-1, 4, 1000} {
			p.OnRequest(m, 0)
			p.OnGrant(m, 0)
		}
		p.OnRequest(2, 0)
		got, ok := p.Pick(eligible, 0)
		if !ok {
			t.Errorf("%s (%T): no pick from a fully eligible set", p.Name(), p)
		}
		if got < 0 || got > 3 {
			t.Errorf("%s (%T): picked out-of-range master %d", p.Name(), p, got)
		}
	}
}
