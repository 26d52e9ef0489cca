package web

import (
	"bytes"
	"html/template"
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
// An entry holds the evaluation and the page it renders to, so a hit
// without form errors writes the cached bytes instead of executing the
// template again. Concurrent identical requests coalesce onto one model
// evaluation + render via the cache's singleflight. Errors (invalid
// parameters) are never cached.
//
// The "/v1" in the key scopes are the page schema versions: bump one
// whenever its Params struct or rendering changes meaning. Keys derive
// through eval.Key, the evaluation layer's shared key scheme.
var evalCache = simcache.New[*cachedPage](simcache.Options{Capacity: 512})

// cachedPage is one page cache entry: the evaluation, and the page it
// renders to when the request has no form errors. Both are immutable.
type cachedPage struct {
	ev   *Evaluation
	html []byte
}

// EvaluateCached is Evaluate through the page cache.
func EvaluateCached(p Params) (*Evaluation, error) {
	pg, err := twoIPPage(p)
	if err != nil {
		return nil, err
	}
	return cloneEvaluation(pg.ev), nil
}

// EvaluateThreeCached is EvaluateThree through the page cache.
func EvaluateThreeCached(p ThreeParams) (*Evaluation, error) {
	pg, err := threeIPPage(p)
	if err != nil {
		return nil, err
	}
	return cloneEvaluation(pg.ev), nil
}

// twoIPPage is the "/" page for p, through the page cache.
func twoIPPage(p Params) (*cachedPage, error) {
	return pageFor("web-eval2/v1", p, func() (*Evaluation, error) { return Evaluate(p) },
		func(ev *Evaluation) ([]byte, error) { return render(page, ev) })
}

// threeIPPage is the "/three" page for p, through the page cache.
func threeIPPage(p ThreeParams) (*cachedPage, error) {
	return pageFor("web-eval3/v1", p, func() (*Evaluation, error) { return EvaluateThree(p) },
		func(ev *Evaluation) ([]byte, error) {
			return render(threeTemplate, threePage{Params: p, Evaluation: ev})
		})
}

// pageFor looks the page up under eval.Key(scope, params), evaluating and
// rendering it on a miss; unkeyable (non-finite) params bypass the cache.
func pageFor(scope string, params any, evaluate func() (*Evaluation, error), renderPage func(*Evaluation) ([]byte, error)) (*cachedPage, error) {
	compute := func() (*cachedPage, error) {
		ev, err := evaluate()
		if err != nil {
			return nil, err
		}
		html, err := renderPage(ev)
		if err != nil {
			return nil, err
		}
		return &cachedPage{ev: ev, html: html}, nil
	}
	key, err := eval.Key(scope, params)
	if err != nil {
		return compute()
	}
	return evalCache.Get(key, compute)
}

// render executes a page template into a fresh buffer.
func render(t *template.Template, data any) ([]byte, error) {
	var b bytes.Buffer
	if err := t.Execute(&b, data); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// writeHTML answers 200 with a rendered page.
func writeHTML(w http.ResponseWriter, html []byte) {
	writeBody(w, http.StatusOK, "text/html; charset=utf-8", html)
}

// renderFresh answers a page the cache cannot: one with form errors or
// an evaluation error, rendered from the request's private evaluation.
func renderFresh(w http.ResponseWriter, t *template.Template, data any) {
	html, err := render(t, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeHTML(w, html)
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
