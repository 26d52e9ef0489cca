// Package surrogate is the sim-calibrated surrogate backend: a calibration
// pass runs ERB-style sweeps through the sim backend (every cell memoized
// by simcache, so re-calibration on a warm cache is cheap), least-squares
// fits effective Gables parameters — Ppeak, Bpeak, per-IP Bi — over the
// sweep grid, and derives a residual-based efficiency table keyed by
// kernel shape (operational-intensity bucket × work-split bucket).
// Subsequent queries are answered in closed form, microseconds instead of
// the simulator's ~10 ms: eval's injected-model analytic backend
// (eval.NewAnalyticModel) evaluates the fitted core.Model — the same
// Gables arithmetic every other closed-form answer uses — and the answer
// is scaled by the query's efficiency bucket and carries a confidence
// envelope derived from the calibration residuals.
//
// The envelope is honest: Supports on the fitted fast path reports exactly
// the calibrated region (chip identity by fingerprint, calibrated IPs and
// pattern, intensity within the sweep range, DRAM-resident working sets,
// no coordination/thermal/serialized semantics, bucket residual under the
// tolerance), and queries outside it route to the sim backend through the
// same eval.Auto machinery the analytic/sim pair uses — byte-identical to
// asking sim directly. Calibrations persist as content-addressed JSON
// artifacts keyed by an //fp:lock-covered fingerprint of (chip, plan), so
// a config or plan change invalidates them instead of silently answering
// from a stale fit.
package surrogate

import (
	"context"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/sim"
)

// Options configures a Backend.
type Options struct {
	// Plan is the calibration sweep plan; zero-value fields are defaulted
	// per chip (see Plan).
	Plan Plan
	// Dir, when non-empty, persists calibrations as
	// <Dir>/<fingerprint>.json and loads them back on the next run.
	Dir string
	// Tolerance is the envelope's residual bound; 0 means
	// DefaultTolerance.
	Tolerance float64
}

// Backend is the surrogate evaluator. It calibrates lazily per chip
// (keyed by the calibration fingerprint) on the first query that chip
// sees, then routes every query to the fitted fast path inside the
// calibrated envelope and to the sim backend outside it. Safe for
// concurrent use.
type Backend struct {
	opts Options
	sim  eval.Evaluator

	mu    sync.Mutex
	chips map[string]*chipEntry

	calibrations  atomic.Uint64
	artifactLoads atomic.Uint64
	fastAnswers   atomic.Uint64
	fallbacks     atomic.Uint64
}

// chipEntry is one chip's lazily built calibration state.
type chipEntry struct {
	mu     sync.Mutex
	spec   Spec
	fp     string
	cal    *Calibration
	fitted *Fitted
	router *eval.Auto
}

// New builds a surrogate backend over a fresh sim fallback.
func New(opts Options) *Backend {
	return &Backend{opts: opts, sim: eval.NewSim(), chips: map[string]*chipEntry{}}
}

var (
	defaultOnce    sync.Once
	defaultBackend *Backend
)

// Default returns the process-wide surrogate backend (what the registry's
// "surrogate" name resolves to). Its artifact directory comes from
// GABLES_CALIBRATION_DIR when set.
func Default() *Backend {
	defaultOnce.Do(func() {
		defaultBackend = New(Options{Dir: os.Getenv(EnvDir)})
	})
	return defaultBackend
}

func init() {
	eval.Register("surrogate", func() (eval.Evaluator, error) { return Default(), nil })
}

// Meta implements eval.Evaluator. Like the auto router, the surrogate
// guarantees measurement semantics everywhere — the fitted fast path
// merely matches them inside the calibrated envelope.
func (b *Backend) Meta() eval.Meta {
	return eval.Meta{
		Name:        "surrogate",
		Fidelity:    eval.FidelitySimulation,
		Description: "sim-calibrated fitted roofline inside the envelope, sim fallback outside",
	}
}

// Supports implements eval.Evaluator: the backend answers whatever its sim
// fallback can. The honest envelope lives on the fitted fast path
// ((*Fitted).Supports) and decides routing, not answerability.
func (b *Backend) Supports(q eval.Query) error { return b.sim.Supports(q) }

// Evaluate implements eval.Evaluator.
func (b *Backend) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	e, err := b.calibrated(ctx, q.Chip)
	if err != nil {
		return nil, err
	}
	ev := e.router.Pick(q)
	if ev == eval.Evaluator(e.fitted) {
		b.fastAnswers.Add(1)
	} else {
		b.fallbacks.Add(1)
	}
	return ev.Evaluate(ctx, q)
}

// Fitted returns the chip's fitted fast-path evaluator, calibrating on
// first use. Its Supports is the honest envelope; its Evaluate never
// falls back.
func (b *Backend) Fitted(ctx context.Context, cfg sim.Config) (*Fitted, error) {
	e, err := b.calibrated(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return e.fitted, nil
}

// Calibration returns the chip's calibration, fitting (or loading the
// persisted artifact) on first use.
func (b *Backend) Calibration(ctx context.Context, cfg sim.Config) (*Calibration, error) {
	e, err := b.calibrated(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return e.cal, nil
}

func (b *Backend) tolerance() float64 {
	if b.opts.Tolerance > 0 {
		return b.opts.Tolerance
	}
	return DefaultTolerance
}

// calibrated returns the chip's entry, building it on first use. Failures
// are not latched: a canceled or failed calibration retries on the next
// query. The hot-path lookup matches the chip structurally (configEqual:
// bit-exact on every fingerprinted field, nanoseconds) — the full
// fingerprint is only computed once, when a chip is first seen.
func (b *Backend) calibrated(ctx context.Context, cfg sim.Config) (*chipEntry, error) {
	b.mu.Lock()
	var e *chipEntry
	for _, cand := range b.chips {
		if configEqual(cfg, cand.spec.Chip) {
			e = cand
			break
		}
	}
	if e == nil {
		spec := Spec{Chip: cfg, Plan: b.opts.Plan.withDefaults(cfg)}
		e = &chipEntry{spec: spec, fp: Fingerprint(spec)}
		b.chips[e.fp] = e
	}
	b.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cal != nil {
		return e, nil
	}
	var cal *Calibration
	if b.opts.Dir != "" {
		a, err := NewStore(b.opts.Dir).Load(e.fp)
		if err != nil {
			return nil, err
		}
		if a != nil {
			cal, err = newCalibration(a, b.tolerance(), true)
			if err != nil {
				return nil, err
			}
			cal.chip = e.spec.Chip
			b.artifactLoads.Add(1)
		}
	}
	if cal == nil {
		var err error
		cal, err = Calibrate(ctx, e.spec.Chip, e.spec.Plan)
		if err != nil {
			return nil, err
		}
		cal.tolerance = b.tolerance()
		if b.opts.Dir != "" {
			if _, err := NewStore(b.opts.Dir).Save(&cal.Artifact); err != nil {
				return nil, err
			}
		}
		b.calibrations.Add(1)
	}
	e.cal = cal
	e.fitted = &Fitted{cal: cal}
	e.router = eval.NewRouter("surrogate",
		"fitted roofline inside the calibrated envelope, sim outside",
		e.fitted, b.sim, cal)
	return e, nil
}

// Fitted is a chip's fitted fast-path evaluator: closed-form answers from
// the calibrated core.Model, no fallback. Supports reports the calibrated
// envelope honestly.
type Fitted struct {
	cal *Calibration
}

// Meta implements eval.Evaluator.
func (f *Fitted) Meta() eval.Meta {
	return eval.Meta{
		Name:        "surrogate",
		Fidelity:    eval.FidelityAnalytic,
		Description: "fitted roofline fast path (calibrated envelope only)",
	}
}

// Supports implements eval.Evaluator: exactly the calibrated envelope.
func (f *Fitted) Supports(q eval.Query) error { return f.cal.Check(q) }

// Evaluate implements eval.Evaluator.
func (f *Fitted) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := f.cal.Check(q); err != nil {
		return nil, err
	}
	return f.cal.Answer(q)
}

// Stats is a point-in-time snapshot of the backend's activity, shaped for
// the web /stats endpoint.
type Stats struct {
	// Calibrations counts cold fits performed by this process.
	Calibrations uint64 `json:"calibrations"`
	// ArtifactLoads counts calibrations loaded from persisted artifacts.
	ArtifactLoads uint64 `json:"artifact_loads"`
	// FastAnswers counts queries answered by the fitted fast path.
	FastAnswers uint64 `json:"fast_answers"`
	// Fallbacks counts queries routed to the sim backend.
	Fallbacks uint64 `json:"fallbacks"`
	// Models summarizes each calibrated chip's fit.
	Models []ModelSummary `json:"models,omitempty"`
}

// ModelSummary is one calibrated chip's fit parameters and residuals.
type ModelSummary struct {
	Chip         string  `json:"chip"`
	Fingerprint  string  `json:"fingerprint"`
	Ppeak        float64 `json:"ppeak"`
	Bpeak        float64 `json:"bpeak"`
	IPs          []IPFit `json:"ips"`
	ResidualMean float64 `json:"residual_mean"`
	ResidualMax  float64 `json:"residual_max"`
	Buckets      int     `json:"buckets"`
}

// Stats snapshots the backend's counters and calibrated models (sorted by
// chip name then fingerprint, so the output is deterministic).
func (b *Backend) Stats() Stats {
	s := Stats{
		Calibrations:  b.calibrations.Load(),
		ArtifactLoads: b.artifactLoads.Load(),
		FastAnswers:   b.fastAnswers.Load(),
		Fallbacks:     b.fallbacks.Load(),
	}
	b.mu.Lock()
	entries := make([]*chipEntry, 0, len(b.chips))
	for _, e := range b.chips {
		entries = append(entries, e)
	}
	b.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		cal := e.cal
		e.mu.Unlock()
		if cal == nil {
			continue
		}
		s.Models = append(s.Models, ModelSummary{
			Chip:         cal.Chip,
			Fingerprint:  cal.Fingerprint,
			Ppeak:        cal.IPs[0].Peak,
			Bpeak:        cal.Bpeak,
			IPs:          cal.IPs,
			ResidualMean: cal.ResidualMean,
			ResidualMax:  cal.ResidualMax,
			Buckets:      len(cal.Table),
		})
	}
	sort.Slice(s.Models, func(i, j int) bool {
		if s.Models[i].Chip != s.Models[j].Chip {
			return s.Models[i].Chip < s.Models[j].Chip
		}
		return s.Models[i].Fingerprint < s.Models[j].Fingerprint
	})
	return s
}

// DefaultStats snapshots the default backend (what /stats reports).
func DefaultStats() Stats { return Default().Stats() }
