package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/sim/trace"
)

// This file binds the generic cache to the simulated SoC: a process-wide
// default Cache[*sim.RunResult] keyed by sim.Fingerprint, which every
// harness layer (internal/erb grids, internal/experiments suites, the
// cmds) routes runs through via Run. The in-memory layer is always on —
// it can only deduplicate work, never change results — while the on-disk
// layer is opt-in through EnableDisk (the -cache flags / GABLES_CACHE_DIR).

// EnvDir is the environment variable naming the on-disk cache directory;
// the cmds' -cache flags take precedence over it.
const EnvDir = "GABLES_CACHE_DIR"

var defaultCache = New[*sim.RunResult](Options{})

// probeFactory, when set, hands every Run a fresh observe-only probe. It
// is the chokepoint that lets the cmds trace whole harness invocations
// (experiment registries, ERB sweeps) without threading a probe through
// the intermediate layers. Guarded by probeMu: harnesses run in parallel.
var (
	probeMu      sync.Mutex
	probeFactory func(label string) trace.Probe
)

// SetProbeFactory installs (or, with nil, removes) a factory that supplies
// a per-run trace probe for every subsequent Run call that does not carry
// its own. The factory must be safe for concurrent use (trace.Session's
// NewRun is); the label passed to it names the config and assignments.
// Traced runs bypass the result cache — a cache hit cannot replay the
// event stream — so expect tracing to cost the deduplicated work back.
func SetProbeFactory(f func(label string) trace.Probe) {
	probeMu.Lock()
	probeFactory = f
	probeMu.Unlock()
}

// runProbe resolves the probe for one Run call: an explicit one wins,
// otherwise the installed factory (if any) supplies one. The run label is
// built only when a factory will receive it.
func runProbe(cfg sim.Config, assignments []sim.Assignment, opt sim.RunOptions) trace.Probe {
	if opt.Probe != nil {
		return opt.Probe
	}
	f := installedProbeFactory()
	if f == nil {
		return nil
	}
	return f(runLabel(cfg, assignments))
}

// installedProbeFactory returns the factory SetProbeFactory installed, if
// any.
func installedProbeFactory() func(label string) trace.Probe {
	probeMu.Lock()
	defer probeMu.Unlock()
	return probeFactory
}

// runLabel names one run for trace artifacts: the chip, then each
// assignment as ip/kernel.
func runLabel(cfg sim.Config, assignments []sim.Assignment) string {
	var b strings.Builder
	b.WriteString(cfg.Name)
	for i, a := range assignments {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(a.IP)
		if a.Kernel.Name != "" {
			b.WriteString("/")
			b.WriteString(a.Kernel.Name)
		}
	}
	return b.String()
}

// Run executes assignments on a system described by cfg through the
// default cache: memory hit, in-flight coalesce, disk hit, or a fresh
// sim.New + Run. The result is a private copy — callers may mutate it
// freely without poisoning the cache.
//
// Runs observed by a probe (explicit in opt, or supplied by the installed
// factory) bypass the cache in both directions: a hit could not replay the
// event stream, and storing the result would be redundant with the
// untraced entry's key (Fingerprint excludes the probe). Such runs are
// reported in the Bypassed counter — never as misses.
func Run(cfg sim.Config, assignments []sim.Assignment, opt sim.RunOptions) (*sim.RunResult, error) {
	if p := runProbe(cfg, assignments, opt); p != nil {
		defaultCache.Bypass()
		opt.Probe = p
		return execute(cfg, assignments, opt)
	}
	key := sim.Fingerprint(cfg, assignments, opt)
	res, err := defaultCache.Get(key, func() (*sim.RunResult, error) {
		return execute(cfg, assignments, opt)
	})
	if err != nil {
		return nil, err
	}
	return cloneResult(res), nil
}

// RunKeyed is Run for a caller that already holds the run's key: the
// sim.Fingerprint of cfg and of the assignments and options realize
// returns. realize runs only when the run executes — on a miss, or when a
// probe factory is installed, in which case the run bypasses the cache
// exactly as in Run. realize's options must carry no probe: the factory
// is how keyed runs are traced.
func RunKeyed(cfg sim.Config, key string, realize func() ([]sim.Assignment, sim.RunOptions, error)) (*sim.RunResult, error) {
	if installedProbeFactory() != nil {
		assignments, opt, err := realize()
		if err != nil {
			return nil, err
		}
		return Run(cfg, assignments, opt)
	}
	res, err := defaultCache.Get(key, func() (*sim.RunResult, error) {
		assignments, opt, err := realize()
		if err != nil {
			return nil, err
		}
		return execute(cfg, assignments, opt)
	})
	if err != nil {
		return nil, err
	}
	return cloneResult(res), nil
}

// execute builds the system and runs the assignments on it.
func execute(cfg sim.Config, assignments []sim.Assignment, opt sim.RunOptions) (*sim.RunResult, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run(assignments, opt)
}

// cloneResult deep-copies a run result (the struct plus its one slice) so
// cache-resident values stay immutable.
func cloneResult(r *sim.RunResult) *sim.RunResult {
	cp := *r
	cp.IPs = append([]sim.IPResult(nil), r.IPs...)
	return &cp
}

// EnableDisk turns on the default cache's on-disk layer in dir, preserving
// the current in-memory contents and counters. An empty dir is a no-op.
func EnableDisk(dir string) {
	if dir == "" {
		return
	}
	defaultCache.SetDir(dir)
}

// EnableDiskFromEnv enables the disk layer from GABLES_CACHE_DIR and
// returns the directory used (empty when the variable is unset).
func EnableDiskFromEnv() string {
	dir := os.Getenv(EnvDir)
	EnableDisk(dir)
	return dir
}

// DisableDisk turns the default cache's on-disk layer back off; tests use
// it to undo EnableDisk.
func DisableDisk() { defaultCache.SetDir("") }

// DefaultStats snapshots the default sim-run cache's counters.
func DefaultStats() Stats { return defaultCache.Stats() }

// ResetDefault clears the default cache's memory layer and counters —
// benchmarks use it to measure cold in-process runs, and tests use it for
// isolation. The disk layer setting is preserved.
func ResetDefault() { defaultCache.Reset() }

// FormatStats renders a stats snapshot as the one-line summary the cmds
// print under -v.
func FormatStats(name string, s Stats) string {
	return fmt.Sprintf("%s: hits=%d disk_hits=%d misses=%d coalesced=%d bypassed=%d evictions=%d entries=%d",
		name, s.Hits, s.DiskHits, s.Misses, s.Coalesced, s.Bypassed, s.Evictions, s.Entries)
}

// Key builds a content-addressed cache key from arbitrary JSON-encodable
// parts: each part is marshaled with encoding/json (struct fields in
// declaration order, map keys sorted — deterministic by construction) and
// length-prefixed into a sha-256. Use it for caches over value types that
// do not have a hand-written fingerprint; the first part should be a
// versioned scope label (e.g. "web-eval/v1") so unrelated caches and
// schema revisions never share keys. Parts that cannot be marshaled
// (NaN/Inf floats, channels...) return an error — callers should then
// bypass their cache.
func Key(parts ...any) (string, error) {
	var stack [512]byte // the eval scopes' keys fit; larger parts grow it
	buf := stack[:0]
	for i, p := range parts {
		data, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("simcache: key part %d: %w", i, err)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), nil
}
