// Content-addressed fingerprints for simulation runs.
//
// A run of the discrete-event substrate is a pure function of
// (Config, assignments, RunOptions): the engine is seeded from nothing and
// every event is deterministic. Fingerprint canonicalizes that triple into
// a fixed-size key so the harness can reuse results across grid cells,
// experiment suites, processes (via the on-disk cache layer), and web
// requests. internal/simcache keys its cache with it.
//
// Canonicalization rules:
//
//   - every field is written explicitly, in struct declaration order —
//     never via reflection or map iteration, so the byte stream is stable
//     across runs and Go versions;
//   - floats are written as their IEEE-754 bit patterns, so any two
//     configs that compare == produce the same key and any bitwise
//     difference produces a different one (no formatting round-trips);
//   - strings are length-prefixed and slices count-prefixed, so
//     concatenation ambiguities ("ab","c" vs "a","bc") cannot collide;
//   - display-only labels that cannot affect simulation results —
//     Kernel.Name is the only one — are excluded, so differently labeled
//     but physically identical kernels share one cache entry;
//   - RunOptions.Probe is excluded for the same reason: probes are
//     observe-only, so a traced and an untraced run produce bitwise
//     identical results. Cache layers must nevertheless not answer a
//     traced run from cache — a hit cannot replay the event stream —
//     which internal/simcache.Run enforces by bypassing the cache when a
//     probe is attached;
//   - RunOptions.MaxEvents is normalized (0 → DefaultMaxEvents) because
//     both spellings run the same schedule.
//
// FingerprintVersion is hashed in first. Bump it whenever the simulated
// semantics of an existing field change, a field is added or removed on
// Config/ip.Config/noc.FabricSpec/thermal.Config/kernel.Kernel/RunOptions,
// or the encoding itself changes: stale on-disk cache entries then miss
// instead of serving results from an older model.
package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/thermal"
)

// Kernel.Name is a display label: differently labeled but physically
// identical kernels must share one cache entry (see the package comment).
//
//fp:skip kernel.Kernel.Name display label only; excluded so identically shaped kernels share a cache entry

// FingerprintVersion versions the fingerprint encoding and the simulated
// semantics it captures. See the package comment for when to bump it.
// The lock below is maintained by the fpfields analyzer: it digests the
// encoded structs' shapes, and `gables-lint -fix` refreshes it after a
// deliberate shape change has bumped this constant.
//
//fp:lock v1 2d9cd03840bf0576
const FingerprintVersion = 1

// Fingerprint returns a stable hex key identifying the result of
// (*System).Run for this configuration, assignment list, and options.
// Two calls agree if and only if they describe the same simulated run
// under the current FingerprintVersion.
//
//fp:encoder
func Fingerprint(cfg Config, assignments []Assignment, opt RunOptions) string {
	var stack [fpStackBytes]byte
	w := fpWriter(stack[:0])
	w = w.uint64(FingerprintVersion)

	// Config, declaration order.
	w = w.str(cfg.Name)
	w = w.f64(cfg.DRAMBandwidth)
	w = w.uint64(uint64(len(cfg.Fabrics)))
	for _, f := range cfg.Fabrics {
		w = w.str(f.Name)
		w = w.f64(f.Bandwidth)
		w = w.str(f.Parent)
	}
	w = w.uint64(uint64(len(cfg.IPs)))
	for _, spec := range cfg.IPs {
		w = w.str(spec.Name)
		w = w.f64(spec.ComputeRate)
		w = w.f64(spec.LinkBandwidth)
		w = w.f64(spec.WritePenalty)
		w = w.f64(spec.CacheSize)
		w = w.f64(spec.CacheBandwidth)
		w = w.f64(spec.ChunkBytes)
		w = w.uint64(uint64(spec.MaxInflight))
		w = w.f64(spec.CoordinationOpsPerByte)
		w = w.f64(spec.MemoryLatency)
		w = w.str(spec.Fabric)
	}
	w = w.str(cfg.Host)
	w = w.thermal(cfg.Thermal)

	// Assignments, in order: order is semantically meaningful (results
	// come back assignment-ordered and ties in the engine break by
	// schedule order).
	w = w.uint64(uint64(len(assignments)))
	for _, a := range assignments {
		w = w.str(a.IP)
		// Kernel.Name is a display label only; excluded by design.
		w = w.f64(float64(a.Kernel.WorkingSet))
		w = w.uint64(uint64(a.Kernel.Trials))
		w = w.uint64(uint64(a.Kernel.FlopsPerWord))
		w = w.uint64(uint64(a.Kernel.Pattern))
	}

	// Options. Probe is excluded by design (observe-only, no effect on
	// the result — see the package comment).
	w = w.bool(opt.Coordination)
	w = w.bool(opt.Thermal)
	maxEvents := opt.MaxEvents
	if maxEvents == 0 {
		maxEvents = DefaultMaxEvents
	}
	w = w.uint64(uint64(maxEvents))

	return w.sum()
}

// FingerprintAssignment is a convenience for the common single-assignment
// run shape the sweep harnesses use.
func FingerprintAssignment(cfg Config, ip string, k kernel.Kernel, opt RunOptions) string {
	return Fingerprint(cfg, []Assignment{{IP: ip, Kernel: k}}, opt)
}

// fpStackBytes sizes the encoder's stack buffer: the largest preset chip
// with every IP assigned encodes to about 1 KiB, so the common case never
// touches the heap; larger inputs grow the buffer as append does.
const fpStackBytes = 2048

// fpWriter is the canonical byte stream, hashed once at the end. SHA-256
// of a concatenation does not depend on how it was chunked, so the keys
// are those of writing each field to the hash in turn. The helpers append
// and return the grown stream, like strconv's Append functions, which
// keeps a stack-backed buffer on the stack.
type fpWriter []byte

func (w fpWriter) uint64(v uint64) fpWriter { return binary.LittleEndian.AppendUint64(w, v) }

func (w fpWriter) f64(v float64) fpWriter { return w.uint64(math.Float64bits(v)) }

func (w fpWriter) bool(v bool) fpWriter {
	if v {
		return w.uint64(1)
	}
	return w.uint64(0)
}

func (w fpWriter) str(s string) fpWriter { return append(w.uint64(uint64(len(s))), s...) }

// sum returns the hex SHA-256 of the stream.
func (w fpWriter) sum() string {
	sum := sha256.Sum256(w)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

func (w fpWriter) thermal(c *thermal.Config) fpWriter {
	if c == nil {
		return w.bool(false)
	}
	w = w.bool(true)
	w = w.f64(c.Ambient)
	w = w.f64(c.Resistance)
	w = w.f64(c.Capacitance)
	w = w.f64(c.IdlePower)
	w = w.f64(c.EnergyPerOp)
	w = w.f64(c.ThrottleAt)
	w = w.f64(c.ResumeAt)
	w = w.f64(c.ThrottleScale)
	return w.f64(c.Interval)
}
