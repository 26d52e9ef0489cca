package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/sim"
)

// /eval exposes the unified evaluator as a JSON API: one SoC+work query,
// answered by a registry-selected backend. Unlike the HTML pages — which
// render the closed-form model over free-form hardware parameters — this
// endpoint works on the simulated chip presets, so the same question can
// be answered at either fidelity (?backend=analytic|sim|auto) and the
// response records which backend produced the number. /eval/batch
// (batch.go) answers arrays of the same question shape.

// evalResponse is the /eval payload.
type evalResponse struct {
	// Chip and Backend echo the resolved query.
	Chip    string `json:"chip"`
	Backend string `json:"backend"`
	// Fingerprint is the canonical query identity (eval.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Outcome is the evaluator's answer.
	Outcome *eval.Outcome `json:"outcome"`
}

// evalChip resolves a preset name; the default is the calibrated 835.
func evalChip(name string) (sim.Config, error) {
	switch name {
	case "", "snapdragon835":
		return sim.Snapdragon835(), nil
	case "snapdragon821":
		return sim.Snapdragon821(), nil
	case "snapdragon835x":
		return sim.Snapdragon835Extended(), nil
	}
	return sim.Config{}, fmt.Errorf("unknown chip %q (have snapdragon835, snapdragon821, snapdragon835x)", name)
}

// evalHandler answers GET /eval.
func (s *server) evalHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		evalError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on /eval (use GET; POST /eval/batch for arrays)", r.Method))
		return
	}
	form := r.URL.Query()
	q, err := parseEvalQuery(form)
	if err != nil {
		evalError(w, http.StatusBadRequest, err)
		return
	}
	ev, err := resolveBackend(form.Get("backend"))
	if err != nil {
		evalError(w, http.StatusBadRequest, err)
		return
	}
	o, err := ev.Evaluate(r.Context(), q)
	if err != nil {
		evalError(w, http.StatusUnprocessableEntity, err)
		return
	}
	fp, err := eval.Fingerprint(q)
	if err != nil {
		evalError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, evalResponse{
		Chip: q.Chip.Name, Backend: o.Backend, Fingerprint: fp, Outcome: o,
	})
}

// resolveBackend maps a request's backend name to an evaluator: the
// process default when empty, the registry otherwise.
func resolveBackend(name string) (eval.Evaluator, error) {
	if name == "" {
		return eval.Default(), nil
	}
	return eval.Resolve(name)
}

// parseEvalQuery builds the eval.Query from the request's query string;
// all numeric fields go through the shared validated parsers (parse.go),
// so NaN/Inf and non-positive counts are rejected with the field named.
func parseEvalQuery(form url.Values) (eval.Query, error) {
	spec := defaultEvalSpec()
	spec.Chip = form.Get("chip")
	spec.Serialized = form.Get("serialized") == "1"

	var err error
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"f", &spec.F}, {"dsp", &spec.DSP}} {
		if v := form.Get(f.name); v != "" {
			if *f.dst, err = parseFinite(f.name, v); err != nil {
				return eval.Query{}, err
			}
		}
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"fpw", &spec.FPW}, {"words", &spec.Words}, {"trials", &spec.Trials}} {
		if v := form.Get(f.name); v != "" {
			if *f.dst, err = parsePositiveInt(f.name, v); err != nil {
				return eval.Query{}, err
			}
		}
	}
	return spec.buildQuery()
}

// evalError reports an /eval failure as JSON.
func evalError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeJSON answers with v as one compact JSON value and a newline. The
// body is encoded in full before anything is written: an encoding failure
// after the first body byte would otherwise truncate a committed response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		evalError(w, http.StatusInternalServerError, err) // a string map always encodes
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)+1))
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte{'\n'})
}
