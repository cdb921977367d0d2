package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseScenario drives the scenario-spec decoder — the /v1/run body —
// with arbitrary bytes, seeded with every corpus spec. Parse and Validate
// must never panic; a spec Parse accepts must survive its canonical
// encoding (Encode(Parse(Encode(s))) == Encode(s)); and its CacheKey must
// not move when only the labels or the seed schedule change. It never
// compiles: Compile expands seeds.runs, which nothing bounds yet.
func FuzzParseScenario(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("corpus specs: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"a","polcy":"RR"}`))
	f.Add([]byte(`{"name":"a","seeds":{"list":[1,1]}} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		_ = s.Validate()
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("Encode is not a fixpoint under Parse:\n%s\n%s", enc, enc2)
		}

		key, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		relabelled := s
		relabelled.Name += "-relabelled"
		relabelled.Description = "relabelled"
		relabelled.Seeds = Seeds{Base: s.Seeds.Base + 1, Runs: s.Seeds.Runs + 1}
		if key2, err := relabelled.CacheKey(); err != nil || key2 != key {
			t.Fatalf("CacheKey moved under a label and schedule edit: %s -> %s (%v)", key, key2, err)
		}
	})
}
