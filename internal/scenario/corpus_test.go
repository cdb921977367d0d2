package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"creditbus/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden corpus snapshots under testdata/golden/")

const (
	corpusDir = "testdata/corpus"
	goldenDir = "testdata/golden"

	// corpusFloor is the curated corpus's minimum size; shrinking it is a
	// deliberate decision, not a test edit.
	corpusFloor = 36
)

// TestCorpusGolden is the corpus contract: every scenario under
// testdata/corpus/ loads, validates and compiles; the event-horizon engine
// and the per-cycle reference engine produce field-for-field identical
// Results on every seed; and the results match the byte-pinned golden
// snapshot under testdata/golden/. Any timing change anywhere in the stack
// — arbitration order, budget arithmetic, cache placement, rng draws —
// fails here loudly. Regenerate deliberately with
//
//	go test ./internal/scenario -run TestCorpusGolden -update
//
// and re-validate EXPERIMENTS.md whenever golden files change.
func TestCorpusGolden(t *testing.T) {
	if testing.Short() {
		// The full both-engines sweep is CI's dedicated corpus job; the
		// test matrix runs -short and skips the redundant repetitions.
		t.Skip("corpus sweep runs every scenario on both engines")
	}
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < corpusFloor {
		t.Fatalf("corpus has %d scenarios, the curated floor is %d", len(specs), corpusFloor)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			c, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			results := make([]sim.Result, len(c.Seeds))
			for i, seed := range c.Seeds {
				fast, err := c.RunOn(new(sim.Runner), seed, EngineFast, nil)
				if err != nil {
					t.Fatalf("seed %d (fast): %v", seed, err)
				}
				ref, err := c.RunOn(new(sim.Runner), seed, EnginePerCycle, nil)
				if err != nil {
					t.Fatalf("seed %d (per-cycle): %v", seed, err)
				}
				if !reflect.DeepEqual(fast, ref) {
					t.Errorf("seed %d: fast engine diverges from per-cycle reference:\nfast: %+v\nref:  %+v", seed, fast, ref)
				}
				results[i] = fast
			}
			if t.Failed() {
				return
			}
			snap, err := c.Snapshot(results)
			if err != nil {
				t.Fatal(err)
			}
			got, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(goldenDir, spec.Name+".json")
			if *update {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden snapshot missing (%v) — generate it with -update", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("golden snapshot mismatch for %s — simulated timing changed; "+
					"re-validate EXPERIMENTS.md and regenerate with -update\n%s",
					spec.Name, snapshotDiff(want, got))
			}
		})
	}
}

// TestCorpusGoldenNoStrays fails when a golden file no longer has a
// scenario, so renames clean up after themselves.
func TestCorpusGoldenNoStrays(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
	}
	goldens, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		stem := strings.TrimSuffix(filepath.Base(g), ".json")
		if !names[stem] {
			t.Errorf("stray golden snapshot %s: no scenario named %q in the corpus", g, stem)
		}
	}
}

// snapshotDiff renders the first few differing lines of two golden
// encodings — enough to see which observable moved without dumping the
// whole file.
func snapshotDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw == lg {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  golden: %s\n  got:    %s\n", i+1, lw, lg)
		if shown++; shown >= 8 {
			fmt.Fprintln(&b, "  ... (further differences elided)")
			break
		}
	}
	return b.String()
}
