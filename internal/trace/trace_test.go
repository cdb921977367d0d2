package trace

import (
	"testing"

	"creditbus/internal/bus"
)

func ev(m int, cycle, hold int64) bus.GrantEvent {
	return bus.GrantEvent{Master: m, Cycle: cycle, Hold: hold}
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
