package trace

import (
	"strings"
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
	got := BackToBack(events)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("BackToBack = %v", got)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	events := []bus.GrantEvent{{Master: 1, Cycle: 7, Hold: 5, Wait: 2, Tag: 3}}
	if err := WriteCSV(&sb, events); err != nil {
		t.Fatal(err)
	}
	want := "cycle,master,hold,wait,tag\n7,1,5,2,3\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}
