package shard

import (
	"bytes"
	"testing"

	"creditbus/internal/scenario"
)

// FuzzParseCampaign drives the campaign-spec decoder — the POST /v1/jobs
// body, a stored job's spec.json and corpus -campaign's input — with
// arbitrary bytes. It must never panic, and a spec it accepts must survive
// its canonical encoding: Encode(ParseCampaign(Encode(c))) == Encode(c).
func FuzzParseCampaign(f *testing.F) {
	seed, err := CampaignSpec{
		Name:      "fuzz",
		Scenarios: []scenario.Spec{fastSpec("fuzz-a", 4), fastSpec("fuzz-b", 2)},
		Shards:    2,
		Block:     5,
	}.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"scenarios":[],"seeds":{"base":1,"runs":3}}`))
	f.Add([]byte(`{"scenarios":[{"name":"a","polcy":"RR"}]}`))
	f.Add([]byte(`{"scenarios":null} []`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCampaign(data)
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := ParseCampaign(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("Encode is not a fixpoint under ParseCampaign:\n%s\n%s", enc, enc2)
		}
	})
}
