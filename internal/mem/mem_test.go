package mem

import "testing"

func TestDefaultLatencyMatchesPaper(t *testing.T) {
	l := DefaultLatency()
	// §IV.A: 5-cycle L2 read hits, 28-cycle memory accesses, 56-cycle
	// worst case (two memory accesses), MaxL = 56.
	cases := []struct {
		k    Kind
		want int64
	}{
		{L2ReadHit, 5}, {L2WriteHit, 5}, {MissClean, 28}, {MissDirty, 56}, {AtomicRMW, 56},
	}
	for _, c := range cases {
		if got := l.Hold(c.k); got != c.want {
			t.Errorf("Hold(%v) = %d, want %d", c.k, got, c.want)
		}
	}
	if got := l.MaxHold(); got != 56 {
		t.Errorf("MaxHold = %d, want 56", got)
	}
}

func TestMaxHoldWithHugeL2(t *testing.T) {
	l := Latency{L2Hit: 100, Mem: 10}
	if got := l.MaxHold(); got != 100 {
		t.Errorf("MaxHold = %d, want 100 when L2 dominates", got)
	}
}

func TestValidate(t *testing.T) {
	for _, l := range []Latency{{0, 28}, {5, 0}, {-1, 28}} {
		if err := l.Validate(); err == nil {
			t.Errorf("latency %+v unexpectedly valid", l)
		}
	}
	if _, err := NewController(Latency{}); err == nil {
		t.Error("NewController accepted invalid latency")
	}
}

func TestControllerAccounting(t *testing.T) {
	c, err := NewController(DefaultLatency())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Price(MissDirty); got != 56 {
		t.Fatalf("Price(MissDirty) = %d, want 56", got)
	}
	c.Price(L2ReadHit)
	c.Price(L2ReadHit)
	if c.Count(L2ReadHit) != 2 || c.Count(MissDirty) != 1 || c.Count(AtomicRMW) != 0 {
		t.Fatalf("counts wrong: hits=%d dirty=%d atomics=%d",
			c.Count(L2ReadHit), c.Count(MissDirty), c.Count(AtomicRMW))
	}
	if c.Cycles(L2ReadHit) != 10 || c.Cycles(MissDirty) != 56 {
		t.Fatalf("cycles wrong: %d, %d", c.Cycles(L2ReadHit), c.Cycles(MissDirty))
	}
	if c.TotalCount() != 3 {
		t.Fatalf("TotalCount = %d, want 3", c.TotalCount())
	}
	c.Reset()
	if c.TotalCount() != 0 {
		t.Fatal("Reset left counts")
	}
	if c.Latency() != DefaultLatency() {
		t.Fatal("Latency accessor wrong")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		L2ReadHit: "l2-read-hit", L2WriteHit: "l2-write-hit",
		MissClean: "miss-clean", MissDirty: "miss-dirty", AtomicRMW: "atomic-rmw",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind string wrong")
	}
}

func TestHoldPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hold(unknown) did not panic")
		}
	}()
	DefaultLatency().Hold(Kind(42))
}
