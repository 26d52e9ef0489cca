package web

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gables-model/gables/internal/eval"
)

func postBatch(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv, "/eval/batch", `{
		"backend": "analytic",
		"items": [
			{"f": 0.5, "fpw": 512},
			{"f": 0.375, "dsp": 0.125, "fpw": 512, "words": 16777216},
			{"serialized": true}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 {
		t.Fatalf("got %d items, want 3", len(out.Items))
	}
	for i, it := range out.Items {
		if it.Error != "" || it.Outcome == nil {
			t.Fatalf("item %d: error=%q outcome=%v", i, it.Error, it.Outcome)
		}
		if it.Backend != "analytic" {
			t.Errorf("item %d backend = %q", i, it.Backend)
		}
		if it.Fingerprint == "" {
			t.Errorf("item %d has no fingerprint", i)
		}
		if it.Outcome.Attainable <= 0 {
			t.Errorf("item %d attainable = %v", i, it.Outcome.Attainable)
		}
	}
	if len(out.Items[1].Outcome.IPs) != 3 {
		t.Errorf("three-IP item activated %d IPs", len(out.Items[1].Outcome.IPs))
	}

	// Batch answers must match the point endpoint bitwise: same query,
	// same fingerprint, same attainable.
	point, status := getEval(t, srv, "?backend=analytic&f=0.5&fpw=512")
	if status != http.StatusOK {
		t.Fatalf("point status = %d", status)
	}
	if out.Items[0].Fingerprint != point.Fingerprint {
		t.Error("batch item fingerprints differently than the point query")
	}
	if out.Items[0].Outcome.Attainable != point.Outcome.Attainable {
		t.Errorf("batch attainable %v != point %v", out.Items[0].Outcome.Attainable, point.Outcome.Attainable)
	}
}

// TestBatchPartialFailure pins the per-item error contract: bad items
// report their own errors, good items still answer, and the request as a
// whole succeeds.
func TestBatchPartialFailure(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv, "/eval/batch", `{
		"backend": "analytic",
		"items": [
			{"f": 0.5},
			{"f": 2.0},
			{"chip": "nope"},
			{"backend": "nope"},
			{"trials": -1},
			{"words": 0}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 despite bad items: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 6 {
		t.Fatalf("got %d items, want 6", len(out.Items))
	}
	if out.Items[0].Error != "" || out.Items[0].Outcome == nil {
		t.Errorf("good item: error=%q outcome=%v", out.Items[0].Error, out.Items[0].Outcome)
	}
	for i, frag := range map[int]string{
		1: "fraction", 2: "unknown chip", 3: "unknown backend", 4: "trials", 5: "words",
	} {
		it := out.Items[i]
		if it.Outcome != nil {
			t.Errorf("bad item %d produced an outcome", i)
		}
		if !strings.Contains(it.Error, frag) {
			t.Errorf("item %d error %q does not mention %q", i, it.Error, frag)
		}
	}
}

// TestBatchStream pins the NDJSON shape: one result object per line, in
// item order.
func TestBatchStream(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, body := postBatch(t, srv, "/eval/batch?stream=1", `{
		"backend": "analytic",
		"items": [{"f": 0.25}, {"f": 2.0}, {"f": 0.75}]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ndjsonContentType)
	}
	var items []batchItemResult
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var it batchItemResult
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("line %d: %v", len(items), err)
		}
		items = append(items, it)
	}
	if len(items) != 3 {
		t.Fatalf("got %d lines, want 3", len(items))
	}
	if items[0].Outcome == nil || items[2].Outcome == nil {
		t.Error("good items missing outcomes")
	}
	if items[1].Error == "" {
		t.Error("bad middle item reported no error")
	}
	if items[0].Outcome.Attainable == items[2].Outcome.Attainable {
		t.Error("distinct queries answered identically: order lost?")
	}

	// The Accept header selects the same shape.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/eval/batch",
		strings.NewReader(`{"backend":"analytic","items":[{"f":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ndjsonContentType)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Errorf("Accept negotiation: Content-Type = %q", ct)
	}
}

// slowItemBackend answers immediately except for trials == block, which
// waits on gate; batch streaming tests use it to hold one item open while
// others complete.
type slowItemBackend struct {
	block int
	gate  chan struct{}
}

func (s *slowItemBackend) Meta() eval.Meta {
	return eval.Meta{Name: "slow-item", Fidelity: eval.FidelityAnalytic, Description: "per-item gated test stub"}
}
func (s *slowItemBackend) Supports(eval.Query) error { return nil }
func (s *slowItemBackend) Evaluate(ctx context.Context, q eval.Query) (*eval.Outcome, error) {
	if q.Trials == s.block {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &eval.Outcome{Backend: "slow-item", Attainable: float64(q.Trials), TotalFlops: 1}, nil
}

// TestBatchStreamIncremental pins the streaming contract the review found
// hollow: with ?stream=1, an early item's line must reach the client
// while a later item is still evaluating — not after the whole batch.
func TestBatchStreamIncremental(t *testing.T) {
	stub := &slowItemBackend{block: 2, gate: make(chan struct{})}
	eval.Register("stub-stream", func() (eval.Evaluator, error) { return stub, nil })
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/eval/batch?stream=1", "application/json",
		strings.NewReader(`{"backend":"stub-stream","items":[{"trials":1},{"trials":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	br := bufio.NewReader(resp.Body)
	lines := make(chan []byte, 2)
	readErr := make(chan error, 2)
	go func() {
		for i := 0; i < 2; i++ {
			line, err := br.ReadBytes('\n')
			if err != nil {
				readErr <- err
				return
			}
			lines <- line
		}
	}()

	// The first line must arrive while item 2 is still gated.
	var first batchItemResult
	select {
	case line := <-lines:
		if err := json.Unmarshal(line, &first); err != nil {
			t.Fatalf("first line: %v", err)
		}
	case err := <-readErr:
		t.Fatalf("read: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no line delivered while a later item was still evaluating: streaming is not incremental")
	}
	if first.Outcome == nil || first.Outcome.Attainable != 1 {
		t.Fatalf("first line = %+v, want item 0's outcome", first)
	}

	close(stub.gate)
	select {
	case line := <-lines:
		var second batchItemResult
		if err := json.Unmarshal(line, &second); err != nil {
			t.Fatalf("second line: %v", err)
		}
		if second.Outcome == nil || second.Outcome.Attainable != 2 {
			t.Fatalf("second line = %+v, want item 1's outcome", second)
		}
	case err := <-readErr:
		t.Fatalf("read: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("second line never arrived after the gate opened")
	}
}

// TestBatchCanceledItems pins the exactly-one-of-Outcome-or-Error
// contract under cancellation: items the canceled context kept from ever
// starting still report an explicit error (and are finalized exactly
// once), never a zero-value result.
func TestBatchCanceledItems(t *testing.T) {
	stub := &slowItemBackend{block: -1, gate: make(chan struct{})}
	eval.Register("stub-cancel", func() (eval.Evaluator, error) { return stub, nil })
	s := &server{adm: newAdmission(4, 4)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any item can start
	req := batchRequest{Backend: "stub-cancel", Items: []batchItem{{}, {}, {}}}
	results := make([]batchItemResult, len(req.Items))
	var mu sync.Mutex
	noted := make(map[int]int)
	s.evaluateBatch(ctx, req, results, func(i int) {
		mu.Lock()
		noted[i]++
		mu.Unlock()
	})

	for i, res := range results {
		if res.Outcome != nil {
			t.Errorf("item %d produced an outcome under a canceled context", i)
		}
		if !strings.Contains(res.Error, context.Canceled.Error()) {
			t.Errorf("item %d error = %q, want the context error", i, res.Error)
		}
		if noted[i] != 1 {
			t.Errorf("item %d finalized %d times, want exactly once", i, noted[i])
		}
	}
}

func TestBatchRequestErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	overLimit := `{"items": [{}` + strings.Repeat(`, {}`, DefaultBatchLimit) + `]}`

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"garbage", `{"items": [`, http.StatusBadRequest},
		{"empty", `{"items": []}`, http.StatusBadRequest},
		{"no-items", `{}`, http.StatusBadRequest},
		{"over-limit", overLimit, http.StatusRequestEntityTooLarge},
	} {
		resp, body := postBatch(t, srv, "/eval/batch", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d: %.300s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

// TestCompactWireFormat pins the machine-facing encoding: /eval and
// /eval/batch answer one compact JSON value ended by the only newline in
// the body, and each batch item is byte-equal to the matching NDJSON line
// of the same request, so the streaming and buffered shapes cannot drift.
func TestCompactWireFormat(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/eval?backend=analytic&f=0.5&fpw=64")
	if err != nil {
		t.Fatal(err)
	}
	var point bytes.Buffer
	if _, err := point.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	const req = `{"items":[
		{"backend":"analytic","f":0.25,"fpw":512},
		{"backend":"sim","chip":"snapdragon821","f":0.5,"fpw":8,"words":65536},
		{"backend":"analytic","f":2},
		{"backend":"analytic","chip":"snapdragon835x","f":0.375,"dsp":0.125,"serialized":true}
	]}`
	_, batch := postBatch(t, srv, "/eval/batch", req)
	_, stream := postBatch(t, srv, "/eval/batch?stream=1", req)

	for name, body := range map[string][]byte{"/eval": point.Bytes(), "/eval/batch": batch} {
		if n := bytes.Count(body, []byte("\n")); n != 1 || !bytes.HasSuffix(body, []byte("\n")) {
			t.Errorf("%s body has %d newlines, want exactly one at the end:\n%s", name, n, body)
		}
	}

	var decoded struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(batch, &decoded); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(decoded.Items) != 4 || len(lines) != 4 {
		t.Fatalf("got %d batch items and %d NDJSON lines, want 4 each", len(decoded.Items), len(lines))
	}
	for i, item := range decoded.Items {
		var compact bytes.Buffer
		if err := json.Compact(&compact, item); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), lines[i]) {
			t.Errorf("item %d:\nbatch  %s\nstream %s", i, compact.Bytes(), lines[i])
		}
	}
}
