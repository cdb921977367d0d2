package trace

import (
	"testing"

	"creditbus/internal/bus"
)

func ev(m int, cycle, hold int64) bus.GrantEvent {
	return bus.GrantEvent{Master: m, Cycle: cycle, Hold: hold}
}

func TestRecorderCap(t *testing.T) {
	r := NewRecorder(2)
	r.Record(ev(0, 0, 5))
	r.Record(ev(1, 5, 5))
	r.Record(ev(2, 10, 5))
	if r.Len() != 2 || r.Drops() != 1 {
		t.Fatalf("len=%d drops=%d", r.Len(), r.Drops())
	}
	r.Reset()
	if r.Len() != 0 || r.Drops() != 0 {
		t.Fatal("Reset incomplete")
	}
	// Unbounded recorder.
	u := NewRecorder(0)
	for i := 0; i < 100; i++ {
		u.Record(ev(0, int64(i), 1))
	}
	if u.Len() != 100 {
		t.Fatalf("unbounded recorder len=%d", u.Len())
	}
}

func TestNewRecorderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative capacity accepted")
		}
	}()
	NewRecorder(-1)
}

func TestBackToBack(t *testing.T) {
	events := []bus.GrantEvent{
		ev(0, 0, 5),
		ev(0, 5, 5), // back-to-back with previous
		ev(1, 10, 5),
		ev(0, 20, 5), // gap: not back-to-back
		ev(0, 25, 5), // back-to-back
	}
	got := BackToBackWithin(events, 0)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("BackToBackWithin(events, 0) = %v", got)
	}
}
