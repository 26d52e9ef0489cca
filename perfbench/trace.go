package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/gables-model/gables/internal/eval"
)

// Spans are recorded by the benchmark's own wrappers around the layers'
// public entry points: the client (http), an http.Handler around
// web.NewHandler (web), and evaluators registered under the real backend
// names that delegate to the real ones (eval). All spans of one request
// share its id; each layer's parent is the layer above it.

type layer uint8

const (
	layerClient layer = iota
	layerHandler
	layerEvalAnalytic
	layerEvalSim
	layerEvalBatch // one analytic EvaluateBatch slab
	numLayers
)

var layerNames = [numLayers]string{"http.client", "web.handler", "eval.analytic", "eval.sim", "eval.analytic_batch"}

// parentOf is each layer's causing layer.
var parentOf = [numLayers]layer{layerClient, layerClient, layerHandler, layerHandler, layerHandler}

type span struct {
	id         uint64 // the request's id, shared by all of its spans
	layer      layer
	kind       kind  // the request's endpoint
	items      int32 // queries in an eval.analytic_batch slab
	bytes      int32 // response bytes of a web.handler span
	start, end int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a new list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// spanHeader carries the request id from the client to the handler.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

type ctxSpan struct {
	id   uint64
	kind kind
}

func spanOf(ctx context.Context) ctxSpan {
	s, _ := ctx.Value(spanKey{}).(ctxSpan)
	return s
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// tracedHandler records a web.handler span per request and passes the
// request id to the evaluators through the request context.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		k := kindPage
		switch r.URL.Path {
		case "/eval":
			k = kindEval
		case "/eval/batch":
			k = kindBatch
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, ctxSpan{id: id, kind: k})))
		rec.add(span{id: id, layer: layerHandler, kind: k, bytes: int32(cw.n), start: rec.since(start), end: rec.since(time.Now())})
	})
}

// tracedEval records a span around each Evaluate of the real backend.
type tracedEval struct {
	inner eval.Evaluator
	layer layer
	rec   *recorder
}

func (t *tracedEval) Meta() eval.Meta             { return t.inner.Meta() }
func (t *tracedEval) Supports(q eval.Query) error { return t.inner.Supports(q) }

func (t *tracedEval) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	start := time.Now()
	o, err := t.inner.Evaluate(ctx, q)
	if s := spanOf(ctx); s.id != 0 {
		t.rec.add(span{id: s.id, layer: t.layer, kind: s.kind, start: t.rec.since(start), end: t.rec.since(time.Now())})
	}
	return o, err
}

// tracedBatchEval also delegates the batch fast path, so a backend that
// has one keeps it under tracing.
type tracedBatchEval struct {
	tracedEval
	batch eval.BatchEvaluator
}

func (t *tracedBatchEval) EvaluateBatch(ctx context.Context, qs []eval.Query, out []eval.Outcome) error {
	start := time.Now()
	err := t.batch.EvaluateBatch(ctx, qs, out)
	if s := spanOf(ctx); s.id != 0 {
		t.rec.add(span{id: s.id, layer: layerEvalBatch, kind: s.kind, items: int32(len(qs)), start: t.rec.since(start), end: t.rec.since(time.Now())})
	}
	return err
}

// traceEvaluators registers span-recording wrappers under the analytic
// and sim backend names and returns a function that puts the real
// backends back.
func traceEvaluators(rec *recorder) (restore func(), err error) {
	var undo []func()
	restore = func() {
		for _, f := range undo {
			f()
		}
	}
	for name, l := range map[string]layer{"analytic": layerEvalAnalytic, "sim": layerEvalSim} {
		inner, err := eval.Resolve(name)
		if err != nil {
			restore()
			return nil, err
		}
		var ev eval.Evaluator = &tracedEval{inner: inner, layer: l, rec: rec}
		if be, ok := inner.(eval.BatchEvaluator); ok {
			ev = &tracedBatchEval{tracedEval: tracedEval{inner: inner, layer: l, rec: rec}, batch: be}
		}
		name := name
		eval.Register(name, func() (eval.Evaluator, error) { return ev, nil })
		undo = append(undo, func() { eval.Register(name, func() (eval.Evaluator, error) { return inner, nil }) })
	}
	return restore, nil
}

// layerSamples are the per-layer samples of one traced serving phase, in
// microseconds unless named otherwise.
type layerSamples struct {
	handler   [numKinds][]float64
	self      [numKinds][]float64 // handler minus the union of its eval spans
	transport []float64           // client minus handler
	respBytes [numKinds][]float64
	analytic  []float64
	sim       []float64
	batchItem []float64 // per-query time of eval work under batch requests
}

// analyze sorts the spans by request and computes each layer's samples
// and self time.
func analyze(spans []span) *layerSamples {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].id != spans[j].id {
			return spans[i].id < spans[j].id
		}
		if spans[i].layer != spans[j].layer {
			return spans[i].layer < spans[j].layer
		}
		return spans[i].start < spans[j].start
	})
	ls := &layerSamples{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].id == spans[lo].id {
			hi++
		}
		var client, handler *span
		var children []span
		for i := lo; i < hi; i++ {
			s := &spans[i]
			switch s.layer {
			case layerClient:
				client = s
			case layerHandler:
				handler = s
			default:
				children = append(children, *s)
				switch s.layer {
				case layerEvalAnalytic:
					ls.analytic = append(ls.analytic, us(s.dur()))
				case layerEvalSim:
					ls.sim = append(ls.sim, us(s.dur()))
				}
				if s.kind == kindBatch {
					per := us(s.dur())
					if s.layer == layerEvalBatch && s.items > 0 {
						per /= float64(s.items)
					}
					ls.batchItem = append(ls.batchItem, per)
				}
			}
		}
		if handler != nil {
			k := handler.kind
			ls.handler[k] = append(ls.handler[k], us(handler.dur()))
			ls.self[k] = append(ls.self[k], us(handler.dur()-covered(children)))
			ls.respBytes[k] = append(ls.respBytes[k], float64(handler.bytes))
			if client != nil {
				ls.transport = append(ls.transport, us(client.dur()-handler.dur()))
			}
		}
		lo = hi
	}
	return ls
}

// covered is the length of the union of the spans' intervals (batch
// items run in parallel, so their spans overlap).
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.start > end {
			total += s.dur()
			end = s.end
			continue
		}
		if s.end > end {
			total += s.end - end
			end = s.end
		}
	}
	return total
}

// writeSpans writes the spans as CSV (id, layer, parent, kind, items,
// bytes, start_ns, end_ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,layer,parent,kind,items,bytes,start_ns,end_ns")
	for _, s := range spans {
		parent := ""
		if s.layer != layerClient {
			parent = layerNames[parentOf[s.layer]]
		}
		fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d,%d,%d\n", s.id, layerNames[s.layer], parent, kindNames[s.kind], s.items, s.bytes, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
