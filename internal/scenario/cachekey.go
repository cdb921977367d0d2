package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// cacheKeyDomain versions the key derivation. Bump it whenever the key's
// semantics change (fields excluded, canonical encoding, hash), so stale
// keys from an older daemon can never alias fresh results.
const cacheKeyDomain = "creditbus-scenario-cachekey-v1\n"

// CacheKey returns the spec's semantic content hash: the hex SHA-256 of a
// domain tag plus the canonical Encode bytes with Name, Description and the
// Seeds schedule cleared. Two specs share a key exactly when they compile
// to the same executable configuration:
//
//   - Name and Description are excluded because they are labels — renaming
//     or re-describing a scenario must not invalidate cached results. The
//     raw Encode bytes include both, so hashing them directly would make
//     semantically identical submissions miss each other's cache entries.
//   - Seeds is excluded because the schedule addresses runs, it does not
//     change what any single run computes: every run is a pure function of
//     (compiled config, seed). Content-addressed consumers key results by
//     CacheKey plus the individual seed, so two specs that differ only in
//     schedule share per-seed results.
//   - Everything else — cores, platform overrides, policy, credit,
//     run kind, TuA, engine, workloads, populations — is hashed, because
//     each of those changes the compiled sim.Config or program vector.
//
// The key is stable across processes and runs: Encode is canonical
// (fixed field order, indented JSON, trailing newline).
func (s Spec) CacheKey() (string, error) {
	sem := s
	sem.Name = ""
	sem.Description = ""
	sem.Seeds = Seeds{}
	data, err := sem.Encode()
	if err != nil {
		return "", fmt.Errorf("scenario: cache key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(cacheKeyDomain))
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), nil
}
