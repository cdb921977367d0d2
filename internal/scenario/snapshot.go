package scenario

import (
	"encoding/json"
	"fmt"

	"creditbus/internal/bus"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
	"creditbus/internal/sim"
)

// ResultSnapshot is the golden-file form of a sim.Result: every observable
// of the run, with traffic counts keyed by transaction-kind name instead of
// enum value so the files read well and survive enum reordering. JSON
// encoding of this struct is byte-deterministic (fixed field order, sorted
// map keys, shortest-round-trip floats), which is what lets the corpus pin
// snapshots byte for byte.
type ResultSnapshot struct {
	TaskCycles  int64            `json:"task_cycles"`
	WallCycles  int64            `json:"wall_cycles"`
	CPU         cpu.Stats        `json:"cpu"`
	Bus         bus.MasterStats  `json:"bus"`
	Utilisation float64          `json:"utilisation"`
	L1HitRate   float64          `json:"l1_hit_rate"`
	L2HitRate   float64          `json:"l2_hit_rate"`
	MemCounts   map[string]int64 `json:"mem_counts"`
}

// Snap converts a run result to its snapshot form.
func Snap(r sim.Result) ResultSnapshot {
	s := ResultSnapshot{
		TaskCycles:  r.TaskCycles,
		WallCycles:  r.WallCycles,
		CPU:         r.CPU,
		Bus:         r.Bus,
		Utilisation: r.Utilisation,
		L1HitRate:   r.L1HitRate,
		L2HitRate:   r.L2HitRate,
		MemCounts:   map[string]int64{},
	}
	for k, v := range r.MemCounts {
		s.MemCounts[mem.Kind(k).String()] = v
	}
	return s
}

// RunSnapshot pairs a seed with its result.
type RunSnapshot struct {
	Seed   uint64         `json:"seed"`
	Result ResultSnapshot `json:"result"`
}

// Snapshot is one scenario's pinned corpus entry: the scenario name and the
// result of every seed in its schedule, in schedule order.
type Snapshot struct {
	Scenario string        `json:"scenario"`
	Runs     []RunSnapshot `json:"runs"`
}

// Snapshot assembles the golden snapshot from the scenario's per-seed
// results (as returned by Results).
func (c *Compiled) Snapshot(results []sim.Result) (Snapshot, error) {
	if len(results) != len(c.Seeds) {
		return Snapshot{}, fmt.Errorf("scenario: %d results for %d seeds", len(results), len(c.Seeds))
	}
	snap := Snapshot{Scenario: c.Spec.Name, Runs: make([]RunSnapshot, len(results))}
	for i, r := range results {
		snap.Runs[i] = RunSnapshot{Seed: c.Seeds[i], Result: Snap(r)}
	}
	return snap, nil
}

// Encode renders the snapshot in its canonical byte form (indented JSON,
// trailing newline) — the exact content of a golden file.
func (s Snapshot) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode snapshot: %w", err)
	}
	return append(data, '\n'), nil
}
