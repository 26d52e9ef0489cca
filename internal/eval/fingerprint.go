package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
)

// FingerprintVersion versions the query fingerprint encoding. Bump it when
// Query gains a field that affects answers or when the encoding changes;
// sim-level semantic changes are already covered by sim.FingerprintVersion,
// which the delegated inner fingerprint hashes in. The lock below is
// maintained by the fpfields analyzer (`gables-lint -fix` refreshes it
// after a deliberate shape change has bumped this constant).
//
//fp:lock v1 154adf1d61f5a6e2
const FingerprintVersion = 1

// Fingerprint returns a stable hex key identifying the query's answer:
// equal fingerprints mean both backends would be asked bitwise-identical
// questions. It extends sim.Fingerprint — the query is realized into the
// canonical (Config, assignments, RunOptions) triple and that run
// fingerprint is hashed together with the eval-level semantics the triple
// cannot express (the serialized-execution flag).
//
//fp:encoder
func Fingerprint(q Query) (string, error) {
	as, opt, err := q.realize()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], FingerprintVersion)
	h.Write(buf[:])
	if q.Serialized {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	inner := sim.Fingerprint(q.Chip, as, opt)
	binary.LittleEndian.PutUint64(buf[:], uint64(len(inner)))
	h.Write(buf[:])
	h.Write([]byte(inner))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Key builds a content-addressed cache key under the eval namespace: the
// one key-derivation scheme for every evaluation-layer cache (backend
// outcome caches, the web page cache). scope
// must be a versioned label like "web-two-ip/v1"; bump its version when
// the keyed value's meaning changes.
func Key(scope string, parts ...any) (string, error) {
	if scope == "" {
		return "", fmt.Errorf("eval: key needs a versioned scope label")
	}
	all := append([]any{"gables-eval", scope}, parts...)
	return simcache.Key(all...)
}
