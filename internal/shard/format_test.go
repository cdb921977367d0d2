package shard

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"creditbus/internal/bus"
	"creditbus/internal/sim"
)

// The sealed on-disk format of a fixed manifest and a fixed three-unit
// checkpoint, byte for byte. A change here is a format change: it needs a
// ManifestVersion/CheckpointVersion bump, not a new literal.
const (
	goldenManifest   = `{"manifest":{"version":2,"campaign":"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef","name":"golden \u003ca\u0026b\u003e \"q\" \u2028 é","units":3,"shards":1,"block":2},"sum":"4b8acd997f911d8ca4aa47650b330c03068e8ffc68775c86aea0a4ffdb0df520"}` + "\n"
	goldenCheckpoint = `{"checkpoint":{"version":2,"campaign":"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef","shard":0,"agg":{"lo":0,"n":3,"task_cycles":{"n":3,"sum":525,"sumsq_hi":0,"sumsq_lo":103125,"min":100,"max":250},"wall_cycles":{"n":3,"sum":555,"sumsq_hi":0,"sumsq_lo":113925,"min":110,"max":260},"bus_held":{"n":3,"sum":262,"sumsq_hi":0,"sumsq_lo":25694,"min":50,"max":125},"bus_wait":{"n":3,"sum":9,"sumsq_hi":0,"sumsq_lo":27,"min":3,"max":3},"max":{"block":2,"start":0,"n":3,"maxima":[250],"tail":[175]},"digests":"8mSwNhm6GV91s5z2xQnAnPlI+9xJkVhk"}},"sum":"9b1c6e0a43d86761916ada274c2e645a902b4997fec3fa0a53694ad0b0876ab8"}`
)

// TestSealedFormatGolden writes a fixed manifest (its name holding the
// characters encoding/json escapes) and a fixed checkpoint through the
// store and pins both files' bytes, then reads the checkpoint back.
func TestSealedFormatGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := Manifest{
		Version:  ManifestVersion,
		Campaign: strings.Repeat("0123456789abcdef", 4),
		Name:     "golden <a&b> \"q\" \u2028 \u00e9",
		Units:    3,
		Shards:   1,
		Block:    2,
	}
	st, err := Open(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgg(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, cycles := range []int64{100, 250, 175} {
		a.Add(sim.Result{TaskCycles: cycles, WallCycles: cycles + 10,
			Bus: bus.MasterStats{Requests: int64(i + 1), HeldCycles: cycles / 2, WaitCycles: 3}})
	}
	if err := st.SaveShard(0, a); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"manifest.json": goldenManifest, "shard-0000.json": goldenCheckpoint} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	got, ok, err := st.LoadShard(0)
	if err != nil || !ok {
		t.Fatalf("load golden checkpoint: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(snapshot(t, got), snapshot(t, a)) {
		t.Fatal("golden checkpoint does not read back")
	}
}

// TestSealedBitFlipExhaustive flips every bit of a 30-unit store's manifest
// and shard checkpoint, one at a time: every single flip must fail decoding
// with ErrCheckpointCorrupt. This is the chaos bit-flip sweep made
// exhaustive for both sealed file kinds.
func TestSealedBitFlipExhaustive(t *testing.T) {
	c := testCampaign(t, 30, 1, 5)
	dir := filepath.Join(t.TempDir(), "ckpt")
	st, err := Open(dir, c.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Campaign: c, Store: st, Workers: 1}
	if _, complete, err := r.RunShard(0); err != nil || !complete {
		t.Fatalf("run shard: complete=%v err=%v", complete, err)
	}
	for _, f := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"manifest.json", func(b []byte) error { _, err := decodeManifest(b); return err }},
		{"shard-0000.json", func(b []byte) error { _, err := st.decodeCheckpoint(0, b); return err }},
	} {
		data, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.decode(data); err != nil {
			t.Fatalf("%s: intact file rejected: %v", f.name, err)
		}
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				data[i] ^= 1 << bit
				err := f.decode(data)
				data[i] ^= 1 << bit
				if !errors.Is(err, ErrCheckpointCorrupt) {
					t.Fatalf("%s (%d B): flipping bit %d of byte %d (%q) gave err = %v",
						f.name, len(data), bit, i, data[i], err)
				}
			}
		}
	}
}

// TestParseCampaignStrict: ParseCampaign rejects what scenario.Parse
// rejects — an unknown field at the top level or inside a scenario, and
// trailing data — and accepts the same spec without them.
func TestParseCampaignStrict(t *testing.T) {
	const scen = `{"name":"a","cores":2,"run":"isolation","workloads":[{"core":0,"workload":"canrdr","ops":8}],"seeds":{"base":1,"runs":4}}`
	good := `{"name":"strict","scenarios":[` + scen + `],"shards":2}`
	spec, err := ParseCampaign([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Shards != 2 || len(spec.Scenarios) != 1 || spec.Scenarios[0].Seeds.Runs != 4 {
		t.Fatalf("parsed %+v", spec)
	}
	for name, body := range map[string]string{
		"unknown top-level field": `{"name":"strict","scenarios":[` + scen + `],"shardz":2}`,
		"unknown scenario field":  `{"name":"strict","scenarios":[` + strings.TrimSuffix(scen, "}") + `,"polcy":"RR"}]}`,
		"unknown nested field":    strings.Replace(good, `"ops":8`, `"ops":8,"opz":9`, 1),
		"trailing data":           good + ` {}`,
	} {
		if _, err := ParseCampaign([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}
