package web

import (
	"net/http"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/sim/trace"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/surrogate"
)

// Whole-page memoization: the interactive pages are pure functions of
// their form parameters, and real traffic repeats them heavily (the
// default form, the back button, many users poking the same example), so
// identical submissions are served from a bounded content-addressed cache.
// Concurrent identical requests coalesce onto one model evaluation + SVG
// render via the cache's singleflight. Errors (invalid parameters) are
// never cached.
//
// The "/v1" in the key scopes are the page schema versions: bump one
// whenever its Params struct or rendering changes meaning. Keys derive
// through eval.Key, the evaluation layer's shared key scheme.
var evalCache = simcache.New[*Evaluation](simcache.Options{Capacity: 512})

// EvaluateCached is Evaluate through the page cache.
func EvaluateCached(p Params) (*Evaluation, error) {
	key, err := eval.Key("web-eval2/v1", p)
	if err != nil {
		return Evaluate(p) // unkeyable (non-finite) params bypass the cache
	}
	ev, err := evalCache.Get(key, func() (*Evaluation, error) { return Evaluate(p) })
	if err != nil {
		return nil, err
	}
	return cloneEvaluation(ev), nil
}

// EvaluateThreeCached is EvaluateThree through the page cache.
func EvaluateThreeCached(p ThreeParams) (*Evaluation, error) {
	key, err := eval.Key("web-eval3/v1", p)
	if err != nil {
		return EvaluateThree(p)
	}
	ev, err := evalCache.Get(key, func() (*Evaluation, error) { return EvaluateThree(p) })
	if err != nil {
		return nil, err
	}
	return cloneEvaluation(ev), nil
}

// cloneEvaluation hands each request a private copy so cache-resident
// pages stay immutable.
func cloneEvaluation(ev *Evaluation) *Evaluation {
	cp := *ev
	cp.Terms = append([]termView(nil), ev.Terms...)
	return &cp
}

// CacheStats reports the page cache's counters (the /stats payload also
// includes the simulation-run cache for completeness: gables-web itself
// is analytic, but the snapshot shape is shared with the harness cmds).
func CacheStats() simcache.Stats { return evalCache.Stats() }

// ResetCache clears the page cache; tests use it for isolation.
func ResetCache() { evalCache.Reset() }

// statsHandler serves the cache, tracing, surrogate-backend, and admission
// counters as JSON at /stats. The surrogate section reports the default
// backend's calibrations (fit parameters, residual summary) and its
// fast-answer vs sim-fallback routing counts; the admission section is the
// overload picture (in-flight and queue-depth gauges, admitted/queued/
// shed/canceled counters — exactly one per evaluation request).
func (s *server) statsHandler(w http.ResponseWriter, r *http.Request) {
	snapshot := struct {
		Web       simcache.Stats    `json:"web_eval"`
		Sim       simcache.Stats    `json:"sim_runs"`
		Eval      simcache.Stats    `json:"eval_outcomes"`
		Trace     trace.GlobalStats `json:"trace"`
		Surrogate surrogate.Stats   `json:"surrogate"`
		Admission AdmissionStats    `json:"admission"`
	}{Web: evalCache.Stats(), Sim: simcache.DefaultStats(), Eval: eval.CacheStats(), Trace: trace.Stats(), Surrogate: surrogate.DefaultStats(), Admission: s.adm.Stats()}
	writeJSON(w, http.StatusOK, snapshot)
}
