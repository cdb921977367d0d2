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

// manifestEnvelope is the on-disk manifest format: the raw manifest payload
// plus a SHA-256 over those exact payload bytes (domain-separated). Keeping
// the payload raw means the sum never depends on re-marshal canonicalisation.
type manifestEnvelope struct {
	Manifest json.RawMessage `json:"manifest"`
	Sum      string          `json:"sum"`
}

// checkpointEnvelope is the on-disk shard checkpoint format.
type checkpointEnvelope struct {
	Checkpoint json.RawMessage `json:"checkpoint"`
	Sum        string          `json:"sum"`
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
// SHA-256 integrity envelope. Writes are atomic (temp file + fsync + rename
// within the directory, with the previous checkpoint rotated to a .bak
// generation first), so a crash at any instant leaves the previous or the
// new checkpoint intact — and a corrupted file is detected, quarantined
// aside, and recovery falls back to the last intact generation.
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
// must carry a matching manifest or OpenWith fails — resuming under the
// wrong campaign digest is corruption, not convenience. A corrupt manifest
// file is quarantined and re-initialised from m: every shard checkpoint
// carries its own campaign identity, so a rebuilt manifest can never cause
// a foreign shard file to be merged.
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
			return nil, fmt.Errorf("shard: checkpoint dir %s belongs to campaign %.12s (units=%d shards=%d block=%d v%d), not %.12s (units=%d shards=%d block=%d v%d)",
				dir, have.Campaign, have.Units, have.Shards, have.Block, have.Version,
				m.Campaign, m.Units, m.Shards, m.Block, m.Version)
		}
	}
	return s, nil
}

func (s *Store) writeManifest(path string, m Manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	// Compact on purpose: MarshalIndent would re-format the raw payload and
	// desync it from the recorded sum.
	env, err := json.Marshal(manifestEnvelope{
		Manifest: payload,
		Sum:      sumHex(manifestSumDomain, payload),
	})
	if err != nil {
		return fmt.Errorf("shard: encode manifest: %w", err)
	}
	return s.writeAtomic(path, append(env, '\n'))
}

// decodeManifest verifies and decodes a manifest envelope. Every failure
// wraps ErrCheckpointCorrupt.
func decodeManifest(data []byte) (Manifest, error) {
	var env manifestEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Manifest{}, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if len(env.Manifest) == 0 || env.Sum == "" {
		return Manifest{}, fmt.Errorf("%w: missing integrity envelope", ErrCheckpointCorrupt)
	}
	if got := sumHex(manifestSumDomain, env.Manifest); got != env.Sum {
		return Manifest{}, fmt.Errorf("%w: manifest sum %.12s != recorded %.12s", ErrCheckpointCorrupt, got, env.Sum)
	}
	var m Manifest
	if err := json.Unmarshal(env.Manifest, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	return m, nil
}

// Manifest returns the store's identity.
func (s *Store) Manifest() Manifest { return s.manifest }

func (s *Store) shardPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%04d.json", i))
}

// quarantine renames a corrupt file aside to path.quarantine-N (first free
// N), preserving the evidence while guaranteeing it is never read as state
// again, and notifies the observer.
func (s *Store) quarantine(path, reason string) error {
	dst := ""
	for n := 0; ; n++ {
		cand := fmt.Sprintf("%s.quarantine-%d", path, n)
		if _, err := s.fs.Stat(cand); errors.Is(err, os.ErrNotExist) {
			dst = cand
			break
		} else if err != nil {
			return fmt.Errorf("shard: quarantine %s: %w", path, err)
		}
	}
	if err := s.fs.Rename(path, dst); err != nil {
		return fmt.Errorf("shard: quarantine %s: %w", path, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("shard: quarantine %s: %w", path, err)
	}
	if s.onQuarantine != nil {
		s.onQuarantine(path, reason)
	}
	return nil
}

// SaveShard atomically checkpoints shard i's aggregate. The new state is
// written to a fsynced temp file; the current checkpoint (if any) is rotated
// to a .bak generation; then the temp file is renamed into place and the
// directory synced. A crash at any instant leaves either the previous or
// the new checkpoint reachable (primary or .bak), never only a torn file.
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
	env, err := json.Marshal(checkpointEnvelope{
		Checkpoint: payload,
		Sum:        sumHex(checkpointSumDomain, payload),
	})
	if err != nil {
		return fmt.Errorf("shard: encode shard %d: %w", i, err)
	}
	path := s.shardPath(i)

	// Stage the new generation fully durable before touching the old one.
	dir, base := filepath.Split(path)
	tmp, err := s.fs.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	// Rotate the committed checkpoint to its backup generation, so the
	// window between the two renames still has the previous state reachable.
	if _, err := s.fs.Stat(path); err == nil {
		if err := s.fs.Rename(path, path+".bak"); err != nil {
			_ = s.fs.Remove(name)
			return fmt.Errorf("shard: rotate %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: rotate %s: %w", path, err)
	}
	if err := s.fs.Rename(name, path); err != nil {
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: %w", err)
	}
	if err := s.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("shard: sync %s: %w", dir, err)
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
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if len(env.Checkpoint) == 0 || env.Sum == "" {
		return nil, fmt.Errorf("%w: missing integrity envelope", ErrCheckpointCorrupt)
	}
	if got := sumHex(checkpointSumDomain, env.Checkpoint); got != env.Sum {
		return nil, fmt.Errorf("%w: checkpoint sum %.12s != recorded %.12s", ErrCheckpointCorrupt, got, env.Sum)
	}
	var cp checkpoint
	if err := json.Unmarshal(env.Checkpoint, &cp); err != nil {
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

// writeAtomic writes data to path via a fsynced temp file and rename in the
// same directory, then syncs the directory — atomic and durable on POSIX
// filesystems.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := s.fs.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: write %s: %w", path, err)
	}
	if err := s.fs.Rename(name, path); err != nil {
		_ = s.fs.Remove(name)
		return fmt.Errorf("shard: %w", err)
	}
	if err := s.fs.SyncDir(dir); err != nil {
		return fmt.Errorf("shard: sync %s: %w", dir, err)
	}
	return nil
}
