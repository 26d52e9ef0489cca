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
	if q.key != nil {
		return q.key.query, nil
	}
	as, opt, err := q.realize()
	if err != nil {
		return "", err
	}
	return queryFingerprint(q.Serialized, sim.Fingerprint(q.Chip, as, opt)), nil
}

// Keyed returns q carrying its fingerprints, so Fingerprint, the analytic
// outcome cache and the sim backend's simcache lookup read them instead
// of re-deriving them: a serving layer keys each query once, where it
// parses it. An invalid query comes back unkeyed (its evaluation reports
// the error), and a keyed one unchanged. The result must not be modified:
// a changed copy would carry the original's key.
func Keyed(q Query) Query {
	if q.key != nil {
		return q
	}
	as, opt, err := q.realize()
	if err != nil {
		return q
	}
	run := sim.Fingerprint(q.Chip, as, opt)
	q.key = &queryKey{query: queryFingerprint(q.Serialized, run), run: run}
	return q
}

// queryFingerprint hashes the run fingerprint of a query's realization
// together with the eval-level semantics the run cannot express.
func queryFingerprint(serialized bool, inner string) string {
	var stack [8 + 1 + 8 + 2*sha256.Size]byte
	buf := binary.LittleEndian.AppendUint64(stack[:0], FingerprintVersion)
	if serialized {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(inner)))
	buf = append(buf, inner...)
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Key builds a content-addressed cache key under the eval namespace for
// caches over values that have no hand-written fingerprint (the web page
// cache; the analytic outcome cache keys by Fingerprint alone). scope
// must be a versioned label like "web-two-ip/v1"; bump its version when
// the keyed value's meaning changes.
func Key(scope string, parts ...any) (string, error) {
	if scope == "" {
		return "", fmt.Errorf("eval: key needs a versioned scope label")
	}
	all := append([]any{"gables-eval", scope}, parts...)
	return simcache.Key(all...)
}
