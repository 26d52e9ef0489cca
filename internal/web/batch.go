package web

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/jsonenc"
	"github.com/gables-model/gables/internal/parallel"
)

// POST /eval/batch: the fleet-scale face of the /eval question. A client
// submits an array of SoC+work queries and gets per-item outcomes — or
// per-item errors; a malformed or unanswerable item never fails the
// request (the transport succeeds, the item reports). Items naming the
// same backend are evaluated together: through the backend's
// EvaluateBatch fast path when it implements eval.BatchEvaluator (the
// analytic backend answers a whole slab allocation-free), and through a
// bounded parallel fan-out otherwise (sim items run concurrently up
// to the worker bound, deduplicated by the simcache singleflight). The
// fan-out is charged against the admission limiter: the request's own
// slot covers one evaluation at a time, and each additional worker runs
// only if it wins a free slot (admission.tryAcquire), so MaxInFlight
// bounds real concurrency whatever the batch mix.
//
// With ?stream=1 or Accept: application/x-ndjson the response is NDJSON —
// one result object per line, in item order, written and flushed as
// results complete — so a large batch delivers its early answers while
// later items are still evaluating.

// DefaultBatchLimit bounds the item count of one batch request.
const DefaultBatchLimit = 1024

// maxBatchBody bounds the request body; 8 MiB comfortably holds a
// DefaultBatchLimit-item request with every field spelled out.
const maxBatchBody = 8 << 20

// ndjsonContentType is the streaming response content type.
const ndjsonContentType = "application/x-ndjson"

// batchItem is one query in the request array. Pointer fields distinguish
// "absent" (use the /eval default) from an explicit zero (rejected by
// validation, exactly like the GET surface).
type batchItem struct {
	// Chip names the preset chip ("" = snapdragon835).
	Chip string `json:"chip"`
	// Backend overrides the request-level backend for this item.
	Backend string `json:"backend"`
	// F and DSP are the GPU and DSP work fractions.
	F   *float64 `json:"f"`
	DSP *float64 `json:"dsp"`
	// FPW, Words, Trials are the sizing counts; must be positive.
	FPW    *int `json:"fpw"`
	Words  *int `json:"words"`
	Trials *int `json:"trials"`
	// Serialized selects the §V-C exclusive-work form.
	Serialized bool `json:"serialized"`
}

// spec resolves the item against the shared defaults.
func (it batchItem) spec() evalQuerySpec {
	s := defaultEvalSpec()
	s.Chip = it.Chip
	s.Serialized = it.Serialized
	if it.F != nil {
		s.F = *it.F
	}
	if it.DSP != nil {
		s.DSP = *it.DSP
	}
	if it.FPW != nil {
		s.FPW = *it.FPW
	}
	if it.Words != nil {
		s.Words = *it.Words
	}
	if it.Trials != nil {
		s.Trials = *it.Trials
	}
	return s
}

// batchRequest is the POST body.
type batchRequest struct {
	// Backend selects the evaluator for items that do not name their
	// own ("" = the process default).
	Backend string `json:"backend"`
	// Items are the queries, answered in order.
	Items []batchItem `json:"items"`
}

// batchItemResult is one item's answer: exactly one of Outcome or Error is
// set — including for items the request's cancellation kept from ever
// starting, which report the context error.
type batchItemResult struct {
	Chip        string        `json:"chip,omitempty"`
	Backend     string        `json:"backend,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Outcome     *eval.Outcome `json:"outcome,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// batchResponse is the non-streaming response envelope.
type batchResponse struct {
	Items []batchItemResult `json:"items"`
}

// batchHandler answers POST /eval/batch.
func (s *server) batchHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		evalError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on /eval/batch (POST a JSON body)", r.Method))
		return
	}
	limit := s.opts.BatchLimit
	if limit <= 0 {
		limit = DefaultBatchLimit
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err := dec.Decode(&req); err != nil {
		evalError(w, http.StatusBadRequest, fmt.Errorf("undecodable batch body: %w", err))
		return
	}
	if len(req.Items) == 0 {
		evalError(w, http.StatusBadRequest, fmt.Errorf("batch has no items"))
		return
	}
	if len(req.Items) > limit {
		evalError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("batch has %d items, limit %d", len(req.Items), limit))
		return
	}

	if wantsNDJSON(r) {
		s.streamBatch(w, r, req)
		return
	}
	results := make([]batchItemResult, len(req.Items))
	s.evaluateBatch(r.Context(), req, results, nil)
	writeAnswer(w, &batchResponse{Items: results})
}

// AppendJSON appends the item's JSON encoding, byte-identical to
// json.Marshal's: every field is omitempty, so each is written with a
// leading comma and the first comma becomes the opening brace.
func (r *batchItemResult) AppendJSON(dst []byte) []byte {
	start := len(dst)
	if r.Chip != "" {
		dst = append(dst, `,"chip":`...)
		dst = jsonenc.AppendString(dst, r.Chip)
	}
	if r.Backend != "" {
		dst = append(dst, `,"backend":`...)
		dst = jsonenc.AppendString(dst, r.Backend)
	}
	if r.Fingerprint != "" {
		dst = append(dst, `,"fingerprint":`...)
		dst = jsonenc.AppendString(dst, r.Fingerprint)
	}
	if r.Outcome != nil {
		dst = append(dst, `,"outcome":`...)
		dst = r.Outcome.AppendJSON(dst)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonenc.AppendString(dst, r.Error)
	}
	if len(dst) == start {
		return append(dst, "{}"...)
	}
	dst[start] = '{'
	return append(dst, '}')
}

func (r *batchItemResult) finite() bool { return r.Outcome.Finite() }

// AppendJSON appends the response's JSON encoding, byte-identical to
// json.Marshal's.
func (r *batchResponse) AppendJSON(dst []byte) []byte {
	if r.Items == nil {
		return append(dst, `{"items":null}`...)
	}
	dst = append(dst, `{"items":[`...)
	for i := range r.Items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = r.Items[i].AppendJSON(dst)
	}
	return append(dst, "]}"...)
}

func (r *batchResponse) finite() bool {
	for i := range r.Items {
		if !r.Items[i].finite() {
			return false
		}
	}
	return true
}

// streamBatch answers the NDJSON shape: evaluation runs concurrently with
// the response writer, which emits each line — in item order — as soon as
// that item's result is final, so early answers reach the client while
// later items are still evaluating. A write failure (client gone) cancels
// the evaluation context; the handler still waits for the evaluation
// goroutine so the admission slot is never released with work in flight.
func (s *server) streamBatch(w http.ResponseWriter, r *http.Request, req batchRequest) {
	n := len(req.Items)
	results := make([]batchItemResult, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.evaluateBatch(ctx, req, results, func(i int) { close(ready[i]) })
	}()

	w.Header().Set("Content-Type", ndjsonContentType)
	flusher, _ := w.(http.Flusher)
	var line []byte
	for i := 0; i < n; i++ {
		<-ready[i] // evaluateBatch finalizes every item, canceled or not
		if !results[i].finite() {
			cancel() // an unencodable item: the line boundary marks the cut
			break
		}
		line = append(results[i].AppendJSON(line[:0]), '\n')
		if _, err := w.Write(line); err != nil {
			cancel() // mid-stream failure: the line boundary marks the cut
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	<-done
}

// wantsNDJSON reports whether the client asked for the streaming shape.
func wantsNDJSON(r *http.Request) bool {
	return r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

// evaluateBatch answers every item into results, grouping by backend so
// batch-capable evaluators see whole slabs. note, when non-nil, is called
// exactly once per item the moment results[i] is final (the streaming
// writer's signal); every item is finalized — and noted — before return,
// with items that never ran (cancellation) reporting the context error so
// the exactly-one-of-Outcome-or-Error contract holds unconditionally.
func (s *server) evaluateBatch(ctx context.Context, req batchRequest, results []batchItemResult, note func(i int)) {
	if note == nil {
		note = func(int) {}
	}
	n := len(req.Items)
	queries := make([]eval.Query, n)

	// Parse every item and bucket the parseable ones by backend name, in
	// first-appearance order (deterministic grouping; results go back to
	// their item index, so grouping never reorders the response).
	groups := make(map[string][]int)
	var names []string
	for i, it := range req.Items {
		q, err := it.spec().buildQuery()
		if err != nil {
			results[i] = batchItemResult{Chip: it.Chip, Error: err.Error()}
			note(i)
			continue
		}
		queries[i] = q
		name := it.Backend
		if name == "" {
			name = req.Backend
		}
		if _, seen := groups[name]; !seen {
			names = append(names, name)
		}
		groups[name] = append(groups[name], i)
	}

	for _, name := range names {
		idxs := groups[name]
		ev, err := resolveBackend(name)
		if err != nil {
			for _, i := range idxs {
				results[i] = batchItemResult{Chip: req.Items[i].Chip, Error: err.Error()}
				note(i)
			}
			continue
		}
		s.evaluateGroup(ctx, ev, idxs, queries, results, note)
	}
}

// evaluateGroup answers one backend's items: slab-wise through the batch
// fast path when every query is supported and the backend implements it,
// point-wise under a bounded fan-out otherwise (including as the fallback
// that attributes a slab failure to its item).
func (s *server) evaluateGroup(ctx context.Context, ev eval.Evaluator, idxs []int, queries []eval.Query, results []batchItemResult, note func(i int)) {
	if be, ok := ev.(eval.BatchEvaluator); ok && allSupported(be, idxs, queries) {
		qs := make([]eval.Query, len(idxs))
		for k, i := range idxs {
			qs[k] = queries[i]
		}
		out := make([]eval.Outcome, len(qs))
		if err := be.EvaluateBatch(ctx, qs, out); err == nil {
			for k, i := range idxs {
				o := out[k]
				results[i] = finishItem(queries[i], &o)
				note(i)
			}
			return
		}
		// A slab error names one query but poisons the whole slab's
		// outcomes; replay point-wise so each item reports its own.
	}

	// The request's admission slot covers one worker; each one beyond it
	// must win a free slot or it doesn't run, so the whole fleet of point
	// requests, batches, and batch workers stays under MaxInFlight. With
	// nothing free the group degrades to sequential on the slot it holds.
	workers := parallel.Workers(s.opts.BatchWorkers)
	if workers > len(idxs) {
		workers = len(idxs)
	}
	var extra []func()
	for len(extra) < workers-1 {
		release, ok := s.adm.tryAcquire()
		if !ok {
			break
		}
		extra = append(extra, release)
	}
	parallel.ForEach(ctx, 1+len(extra), idxs, func(ctx context.Context, _ int, i int) error {
		o, err := ev.Evaluate(ctx, queries[i])
		switch {
		case err != nil:
			results[i] = batchItemResult{Chip: queries[i].Chip.Name, Error: err.Error()}
		case o == nil:
			results[i] = batchItemResult{Chip: queries[i].Chip.Name, Error: "backend returned no outcome"}
		default:
			results[i] = finishItem(queries[i], o)
		}
		note(i)
		return nil // item errors stay with the item
	})
	for _, release := range extra {
		release()
	}

	// Cancellation can keep items from ever starting; finalize them with
	// the context error rather than leaving zero-value results behind.
	for _, i := range idxs {
		if results[i].Outcome == nil && results[i].Error == "" {
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			results[i] = batchItemResult{Chip: queries[i].Chip.Name, Error: err.Error()}
			note(i)
		}
	}
}

// allSupported reports whether the backend can answer every query in the
// group (the batch contract has no per-item error channel, so one
// unsupported query sends the whole group down the point-wise path).
func allSupported(ev eval.Evaluator, idxs []int, queries []eval.Query) bool {
	for _, i := range idxs {
		if ev.Supports(queries[i]) != nil {
			return false
		}
	}
	return true
}

// finishItem builds one successful item result, attaching the canonical
// fingerprint (the key buildQuery computed).
func finishItem(q eval.Query, o *eval.Outcome) batchItemResult {
	res := batchItemResult{Chip: q.Chip.Name, Backend: o.Backend, Outcome: o}
	if fp, err := eval.Fingerprint(q); err == nil {
		res.Fingerprint = fp
	}
	return res
}
