// Package trace derives occupancy views from recorded bus grant events (a
// bus.Config.OnGrant or sim.RunSpec.OnGrant callback appending to a
// slice): back-to-back grant detection (the H-CBA cap variant's signature
// behaviour) and the longest single-master occupancy run. Windowed
// bandwidth shares are stats.Fairness's job.
package trace

import "creditbus/internal/bus"

// BackToBackWithin counts consecutive same-master grants separated by at
// most slack idle cycles; slack 0 counts grants starting the cycle after
// the previous hold ends. The H-CBA cap variant permits back-to-back
// grants; threshold-equals-cap CBA forbids them for holds longer than the
// refill a single idle cycle provides. Masters that post their next
// request only after a completion (the simulator's in-order cores and
// injectors) can never reach a zero gap through the one-cycle arbitration
// register, so slack 2 is the platform's effective "back to back".
func BackToBackWithin(events []bus.GrantEvent, slack int64) map[int]int64 {
	out := map[int]int64{}
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		if cur.Master == prev.Master && cur.Cycle <= prev.Cycle+prev.Hold+slack {
			out[cur.Master]++
		}
	}
	return out
}

// LongestOccupancyRun returns the longest stretch of cycles master m held
// the bus without another master (or more than slack idle cycles)
// intervening — §III.A's "temporal starvation to the others" caused by
// back-to-back grants, measured from the victims' side.
func LongestOccupancyRun(events []bus.GrantEvent, m int, slack int64) int64 {
	var best, runStart, runEnd int64
	inRun := false
	flush := func() {
		if inRun && runEnd-runStart > best {
			best = runEnd - runStart
		}
	}
	for _, e := range events {
		if e.Master != m {
			flush()
			inRun = false
			continue
		}
		if inRun && e.Cycle <= runEnd+slack {
			runEnd = e.Cycle + e.Hold
			continue
		}
		flush()
		inRun = true
		runStart, runEnd = e.Cycle, e.Cycle+e.Hold
	}
	flush()
	return best
}
