package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"creditbus/internal/scenario"
)

// DefaultBlock is the MBPTA block-maxima size a campaign uses when the spec
// does not state one — the paper's §III.B protocol size scaled for mega
// campaigns (20 keeps ≥ 10 maxima from as few as 200 units while a 10⁶-unit
// sweep still yields 50,000).
const DefaultBlock = 20

// CampaignSpec declares a sharded mega-campaign: a scenario set, an
// optional seed-schedule override applied to every scenario, and the shard
// plan. It is the job-API request body (POST /v1/jobs) and the CLI
// coordinator's input alike; its canonical encoding digests to the
// campaign identity that names checkpoint stores and job ids.
//
// The unit space is the concatenation of each scenario's materialised seed
// schedule, scenario-major: unit u of a campaign over scenarios s₀…sₙ runs
// seed schedule entry (u − Σ|sⱼ<i|) of the scenario i containing u. The
// order is part of the spec's identity — it fixes the global unit indices
// that anchor block maxima and the result-hash stream.
type CampaignSpec struct {
	// Name labels the campaign in reports and checkpoint manifests. It does
	// not enter the digest: two campaigns differing only in label are the
	// same computation and share cached shards.
	Name string `json:"name,omitempty"`
	// Scenarios is the scenario set, in unit order.
	Scenarios []scenario.Spec `json:"scenarios"`
	// Seeds, when non-nil, replaces every scenario's seed schedule — the
	// sweep form: one schedule crossed with the whole scenario set.
	Seeds *scenario.Seeds `json:"seeds,omitempty"`
	// Shards is the shard count K (default 1).
	Shards int `json:"shards,omitempty"`
	// Block is the MBPTA block-maxima size (default DefaultBlock).
	Block int `json:"block,omitempty"`
}

// digestSpec is the digest's view of the spec: everything that changes the
// computation, nothing that doesn't (Name is a label; Shards partitions the
// work without changing its result — K ∈ {1, 2, 8} must hit the same
// checkpoint identity so their merged outputs can be compared byte for
// byte).
type digestSpec struct {
	Scenarios []scenario.Spec `json:"scenarios"`
	Seeds     *scenario.Seeds `json:"seeds,omitempty"`
	Block     int             `json:"block"`
}

// Digest returns the campaign's content identity: the hex SHA-256 of the
// canonical encoding of its computation-relevant fields. Equal digests mean
// equal unit → (scenario, seed) maps and equal block anchoring, so shards
// checkpointed under one digest are exact for every campaign sharing it.
func (c CampaignSpec) Digest() (string, error) {
	data, err := json.Marshal(digestSpec{Scenarios: c.Scenarios, Seeds: c.Seeds, Block: c.block()})
	if err != nil {
		return "", fmt.Errorf("shard: digest campaign: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func (c CampaignSpec) block() int {
	if c.Block > 0 {
		return c.Block
	}
	return DefaultBlock
}

func (c CampaignSpec) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 1
}

// Encode renders the spec in its canonical byte form (indented JSON,
// trailing newline), the on-disk and on-wire shape.
func (c CampaignSpec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: encode campaign: %w", err)
	}
	return append(data, '\n'), nil
}

// ParseCampaign decodes a campaign spec from JSON through
// scenario.DecodeStrict: an unknown field anywhere — top level or inside a
// scenario — or trailing data is an error, exactly as for scenario.Parse.
func ParseCampaign(data []byte) (CampaignSpec, error) {
	var c CampaignSpec
	if err := scenario.DecodeStrict(data, &c); err != nil {
		return CampaignSpec{}, fmt.Errorf("shard: parse campaign: %w", err)
	}
	return c, nil
}

// Campaign is a compiled, executable campaign: every scenario compiled,
// the unit space linearised, the plan and identity fixed.
type Campaign struct {
	// Spec is the source spec.
	Spec CampaignSpec
	// Scenarios are the compiled scenarios, in unit order.
	Scenarios []*scenario.Compiled
	// Plan is the shard plan over the unit space.
	Plan Plan

	digest string
	// cum[i] is the number of units preceding scenario i; cum[len] = Units.
	cum []int64
}

// Compile validates and compiles the campaign: each scenario is validated
// and compiled (with the Seeds override applied first, when present), the
// unit space is laid out, and the plan and digest are fixed.
func (c CampaignSpec) Compile() (*Campaign, error) {
	if len(c.Scenarios) == 0 {
		return nil, fmt.Errorf("shard: campaign has no scenarios")
	}
	if c.Block < 0 {
		return nil, fmt.Errorf("shard: block = %d", c.Block)
	}
	if c.Shards < 0 {
		return nil, fmt.Errorf("shard: shards = %d", c.Shards)
	}
	digest, err := c.Digest()
	if err != nil {
		return nil, err
	}
	camp := &Campaign{
		Spec:      c,
		Scenarios: make([]*scenario.Compiled, len(c.Scenarios)),
		digest:    digest,
		cum:       make([]int64, len(c.Scenarios)+1),
	}
	seen := map[string]int{}
	for i, sp := range c.Scenarios {
		if c.Seeds != nil {
			sp.Seeds = *c.Seeds
		}
		if prev, dup := seen[sp.Name]; dup {
			return nil, fmt.Errorf("shard: scenarios[%d] and scenarios[%d] share the name %q", prev, i, sp.Name)
		}
		seen[sp.Name] = i
		compiled, err := sp.Compile()
		if err != nil {
			return nil, fmt.Errorf("shard: scenarios[%d] (%s): %w", i, sp.Name, err)
		}
		camp.Scenarios[i] = compiled
		camp.cum[i+1] = camp.cum[i] + int64(len(compiled.Seeds))
	}
	if camp.Plan, err = NewPlan(camp.cum[len(c.Scenarios)], c.shards()); err != nil {
		return nil, err
	}
	return camp, nil
}

// Units returns the campaign size: the total number of (scenario, seed)
// units across every scenario.
func (c *Campaign) Units() int64 { return c.cum[len(c.cum)-1] }

// Digest returns the campaign's content identity (see CampaignSpec.Digest).
func (c *Campaign) Digest() string { return c.digest }

// Block returns the effective MBPTA block-maxima size.
func (c *Campaign) Block() int { return c.Spec.block() }

// Unit maps global unit index u to its (scenario index, seed). The map is
// a pure function of the spec — the determinism every executor relies on.
func (c *Campaign) Unit(u int64) (scen int, seed uint64, err error) {
	if u < 0 || u >= c.Units() {
		return 0, 0, fmt.Errorf("shard: unit %d out of range [0,%d)", u, c.Units())
	}
	// Scenarios are few and units many: a linear scan of cum is fine and
	// branch-predictable (the common campaign is single-scenario).
	i := 0
	for c.cum[i+1] <= u {
		i++
	}
	return i, c.Scenarios[i].Seeds[u-c.cum[i]], nil
}

// Manifest returns the checkpoint-store manifest this campaign requires.
func (c *Campaign) Manifest() Manifest {
	return Manifest{
		Version:  ManifestVersion,
		Campaign: c.digest,
		Name:     c.Spec.Name,
		Units:    c.Units(),
		Shards:   c.Plan.Shards,
		Block:    c.Block(),
	}
}
