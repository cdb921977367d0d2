package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"creditbus/internal/fault"
)

// ManifestVersion is the checkpoint-store format version. Bump it when the
// manifest or shard-file schema changes incompatibly; Open refuses a store
// written by a different version instead of misreading it. Version 2 added
// the SHA-256 integrity envelope around both file kinds.
const ManifestVersion = 2

// CheckpointVersion is the shard checkpoint payload schema version. A
// checkpoint whose integrity sum verifies but whose version differs fails
// with ErrCheckpointVersion — a future schema change must never be merged as
// a zero-valued aggregate.
const CheckpointVersion = 2

// Typed store errors, classified with errors.Is.
var (
	// ErrCheckpointCorrupt — a checkpoint or manifest file failed its
	// integrity check (unparseable, bad SHA-256, wrong campaign identity, or
	// invalid aggregate). The store quarantines such files and resumes from
	// the last intact state.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointVersion — a checkpoint verified intact but was written by
	// a different schema version. Not corruption: the file is quarantine-
	// exempt and the error is surfaced so an operator can migrate it.
	ErrCheckpointVersion = errors.New("checkpoint version mismatch")
	// ErrManifestMismatch — a checkpoint directory's manifest verified
	// intact but names another computation (campaign, size, sharding,
	// block or format version). OpenWith refuses such a directory.
	ErrManifestMismatch = errors.New("checkpoint manifest mismatch")
)

// Domain-separation prefixes for the integrity sums, so a manifest envelope
// can never verify as a checkpoint or vice versa.
const (
	manifestSumDomain   = "cbad/manifest/v2\n"
	checkpointSumDomain = "cbad/checkpoint/v2\n"
)

// Manifest identifies a checkpoint store: which campaign (by content
// digest), how large, how sharded, and in which format version. Open
// verifies a pre-existing manifest field by field, so a checkpoint
// directory can never silently resume a different campaign — the classic
// stale-checkpoint corruption a mega-campaign must rule out.
type Manifest struct {
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
	Name     string `json:"name,omitempty"`
	Units    int64  `json:"units"`
	Shards   int    `json:"shards"`
	Block    int    `json:"block"`
}

// matches reports whether two manifests describe the same computation. Name
// is a label and does not participate, matching its exclusion from the
// campaign digest.
func (m Manifest) matches(o Manifest) bool {
	return m.Version == o.Version && m.Campaign == o.Campaign &&
		m.Units == o.Units && m.Shards == o.Shards && m.Block == o.Block
}

// checkpoint is the payload inside a shard file: schema version, campaign
// identity (so a checkpoint can never be merged into a different campaign
// even if copied between directories), shard index, and the aggregate.
type checkpoint struct {
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Agg      *Agg   `json:"agg"`
}

func sumHex(domain string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(domain))
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// seal wraps a compact JSON payload in the on-disk integrity envelope
// shared by the manifest and the shard checkpoints: {"<key>": payload,
// "sum": hex sha256(domain ‖ payload)}. The payload stays raw, so the sum
// never depends on re-marshal canonicalisation, and the envelope is compact
// on purpose: indenting it would re-format the payload and desync it from
// its sum. encoding/json sorts map keys, so key precedes "sum".
func seal(key, domain string, payload []byte) ([]byte, error) {
	return json.Marshal(map[string]any{key: json.RawMessage(payload), "sum": sumHex(domain, payload)})
}

// unseal verifies an envelope written by seal and returns its payload:
// parse, then the domain-separated sum. Keys match exactly; a struct decode
// would match them case-insensitively and let a flipped case bit in
// "manifest" or "sum" pass unverified. Every failure wraps
// ErrCheckpointCorrupt.
func unseal(key, domain string, data []byte) ([]byte, error) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	var sum string
	if raw, ok := env["sum"]; ok {
		if err := json.Unmarshal(raw, &sum); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
		}
	}
	payload := env[key]
	if len(payload) == 0 || sum == "" {
		return nil, fmt.Errorf("%w: missing integrity envelope", ErrCheckpointCorrupt)
	}
	if got := sumHex(domain, payload); got != sum {
		return nil, fmt.Errorf("%w: %s sum %.12s != recorded %.12s", ErrCheckpointCorrupt, key, got, sum)
	}
	return payload, nil
}

// StoreOptions customise a store's environment. The zero value is
// production: the real filesystem and no quarantine observer.
type StoreOptions struct {
	// FS is the filesystem the store performs every operation through.
	// Nil means the real filesystem; tests inject a fault.Injector.
	FS fault.FS
	// OnQuarantine, when non-nil, observes every quarantined file: the
	// original path and a short reason. Called synchronously from the
	// store operation that detected the corruption.
	OnQuarantine func(path, reason string)
}

// Store is an on-disk checkpoint directory: one manifest plus one file per
// shard holding that shard's last checkpointed aggregate, each wrapped in a
// SHA-256 integrity envelope (seal). Writes go through fault.WriteAtomic
// (temp file + fsync + rename within the directory, with the previous
// checkpoint rotated to a .bak generation first), so a crash at any instant
// leaves the previous or the new checkpoint intact — and a corrupted file is
// detected, quarantined aside, and recovery falls back to the last intact
// generation.
type Store struct {
	dir          string
	manifest     Manifest
	fs           fault.FS
	onQuarantine func(path, reason string)
}

// Open creates or re-opens a checkpoint store under dir for the given
// manifest, against the real filesystem. See OpenWith.
func Open(dir string, m Manifest) (*Store, error) {
	return OpenWith(dir, m, StoreOptions{})
}

// OpenWith creates or re-opens a checkpoint store under dir for the given
// manifest. A fresh directory is initialised (manifest written first, so a
// directory with shard files but no manifest never exists); an existing one
// must carry a matching manifest or OpenWith fails with ErrManifestMismatch
// — resuming under the wrong campaign digest is corruption, not
// convenience. A corrupt manifest file is quarantined and re-initialised
// from m: every shard checkpoint carries its own campaign identity, so a
// rebuilt manifest can never cause a foreign shard file to be merged.
func OpenWith(dir string, m Manifest, opts StoreOptions) (*Store, error) {
	s := &Store{dir: dir, manifest: m, fs: opts.FS, onQuarantine: opts.OnQuarantine}
	if s.fs == nil {
		s.fs = fault.OS{}
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: open store: %w", err)
	}
	path := filepath.Join(dir, "manifest.json")
	data, err := s.fs.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := s.writeManifest(path, m); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("shard: open store: %w", err)
	default:
		have, verr := decodeManifest(data)
		if verr != nil {
			// Unreadable manifest: quarantine it and re-initialise. Shard
			// checkpoints self-identify, so this cannot cross campaigns.
			if err := s.quarantine(path, verr.Error()); err != nil {
				return nil, err
			}
			if err := s.writeManifest(path, m); err != nil {
				return nil, err
			}
			break
		}
		if !have.matches(m) {
			return nil, fmt.Errorf("shard: checkpoint dir %s belongs to campaign %.12s (units=%d shards=%d block=%d v%d), not %.12s (units=%d shards=%d block=%d v%d): %w",
				dir, have.Campaign, have.Units, have.Shards, have.Block, have.Version,
				m.Campaign, m.Units, m.Shards, m.Block, m.Version, ErrManifestMismatch)
		}
	}
	return s, nil
}

func (s *Store) writeManifest(path string, m Manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	env, err := seal("manifest", manifestSumDomain, payload)
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	if err := fault.WriteAtomic(s.fs, path, append(env, '\n'), false); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// decodeManifest verifies and decodes a manifest envelope. Every failure
// wraps ErrCheckpointCorrupt.
func decodeManifest(data []byte) (Manifest, error) {
	payload, err := unseal("manifest", manifestSumDomain, data)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	return m, nil
}

// Manifest returns the store's identity.
func (s *Store) Manifest() Manifest { return s.manifest }

func (s *Store) shardPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%04d.json", i))
}

// quarantine renames a corrupt file aside (fault.Quarantine) and notifies
// the observer.
func (s *Store) quarantine(path, reason string) error {
	if _, err := fault.Quarantine(s.fs, path); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if s.onQuarantine != nil {
		s.onQuarantine(path, reason)
	}
	return nil
}

// SaveShard atomically checkpoints shard i's aggregate through
// fault.WriteAtomic with keepPrevious: the new state is written to a
// fsynced temp file; the current checkpoint (if any) is rotated to a .bak
// generation; then the temp file is renamed into place and the directory
// synced. A crash at any instant leaves either the previous or the new
// checkpoint reachable (primary or .bak), never only a torn file.
func (s *Store) SaveShard(i int, a *Agg) error {
	if i < 0 || i >= s.manifest.Shards {
		return fmt.Errorf("shard: save shard %d of %d", i, s.manifest.Shards)
	}
	payload, err := json.Marshal(checkpoint{
		Version:  CheckpointVersion,
		Campaign: s.manifest.Campaign,
		Shard:    i,
		Agg:      a,
	})
	if err != nil {
		return fmt.Errorf("shard: encode shard %d: %w", i, err)
	}
	env, err := seal("checkpoint", checkpointSumDomain, payload)
	if err != nil {
		return fmt.Errorf("shard: encode shard %d: %w", i, err)
	}
	if err := fault.WriteAtomic(s.fs, s.shardPath(i), env, true); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// LoadShard reads shard i's last intact checkpoint. ok is false with no
// error when the shard has never checkpointed — the fresh-start signal.
// Recovery order: the primary file, then the .bak generation a crashed
// rotation may have left as the only committed state. A file that fails its
// integrity check (bad sum, unparseable, foreign campaign, invalid
// aggregate) is quarantined aside and the next generation is tried; a file
// whose payload verifies but carries a different schema version fails with
// ErrCheckpointVersion and is left in place for migration.
func (s *Store) LoadShard(i int) (a *Agg, ok bool, err error) {
	if i < 0 || i >= s.manifest.Shards {
		return nil, false, fmt.Errorf("shard: load shard %d of %d", i, s.manifest.Shards)
	}
	path := s.shardPath(i)
	for _, p := range []string{path, path + ".bak"} {
		data, err := s.fs.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, false, fmt.Errorf("shard: load shard %d: %w", i, err)
		}
		agg, verr := s.decodeCheckpoint(i, data)
		if verr == nil {
			return agg, true, nil
		}
		if errors.Is(verr, ErrCheckpointVersion) {
			return nil, false, fmt.Errorf("shard: %s: %w", p, verr)
		}
		if qerr := s.quarantine(p, verr.Error()); qerr != nil {
			return nil, false, qerr
		}
	}
	return nil, false, nil
}

// decodeCheckpoint verifies a shard checkpoint envelope end to end: parse,
// integrity sum, schema version, campaign identity, shard index, aggregate
// validity. Check order matters — the sum is verified before the version
// field is trusted, so a bit-flip in the version byte reads as corruption,
// not as a foreign schema.
func (s *Store) decodeCheckpoint(i int, data []byte) (*Agg, error) {
	payload, err := unseal("checkpoint", checkpointSumDomain, data)
	if err != nil {
		return nil, err
	}
	var cp checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: checkpoint v%d, store speaks v%d", ErrCheckpointVersion, cp.Version, CheckpointVersion)
	}
	if cp.Campaign != s.manifest.Campaign {
		return nil, fmt.Errorf("%w: checkpoint belongs to campaign %.12s, not %.12s", ErrCheckpointCorrupt, cp.Campaign, s.manifest.Campaign)
	}
	if cp.Shard != i {
		return nil, fmt.Errorf("%w: checkpoint is for shard %d, not %d", ErrCheckpointCorrupt, cp.Shard, i)
	}
	if cp.Agg == nil {
		return nil, fmt.Errorf("%w: checkpoint has no aggregate", ErrCheckpointCorrupt)
	}
	if err := cp.Agg.validate(s.manifest.Block); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	return cp.Agg, nil
}
