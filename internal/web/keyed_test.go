package web

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/simcache"
)

// TestKeyedQueriesAnswerLikeUnkeyed is the property behind keying each
// query once in the parser: over generated /eval questions (3 chips x
// fractions x fpw x words x trials x serialized), the keyed query that
// buildQuery returns has the unkeyed query's Fingerprint, and both
// backends answer the two bit for bit. The simcache is emptied before
// each sim answer, so the keyed run and the unkeyed run each execute.
func TestKeyedQueriesAnswerLikeUnkeyed(t *testing.T) {
	eval.ResetCache()
	simcache.ResetDefault()
	t.Cleanup(func() {
		eval.ResetCache()
		simcache.ResetDefault()
	})
	ctx := context.Background()
	backends := map[string]eval.Evaluator{"analytic": eval.NewAnalytic(), "sim": eval.NewSim()}
	n := 0
	for _, chip := range []string{"snapdragon835", "snapdragon821", "snapdragon835x"} {
		for _, f := range []float64{0, 0.3, 1} {
			for _, fpw := range []int{1, 512} {
				for _, words := range []int{1, 1 << 16, 3<<20 + 7} {
					for _, trials := range []int{1, 3} {
						for _, serialized := range []bool{false, true} {
							s := evalQuerySpec{Chip: chip, F: f, FPW: fpw, Words: words, Trials: trials, Serialized: serialized}
							keyed, err := s.buildQuery()
							if err != nil {
								t.Fatalf("%+v: %v", s, err)
							}
							unkeyed, err := s.query()
							if err != nil {
								t.Fatal(err)
							}
							kfp, kerr := eval.Fingerprint(keyed)
							ufp, uerr := eval.Fingerprint(unkeyed)
							if kerr != nil || uerr != nil || kfp != ufp {
								t.Fatalf("%+v: keyed fingerprint %s (%v), unkeyed %s (%v)", s, kfp, kerr, ufp, uerr)
							}
							for name, ev := range backends {
								var answers [2][]byte
								for i, q := range []eval.Query{keyed, unkeyed} {
									eval.ResetCache()
									simcache.ResetDefault()
									o, err := ev.Evaluate(ctx, q)
									if err != nil {
										t.Fatalf("%s %+v: %v", name, s, err)
									}
									answers[i] = o.AppendJSON(nil)
								}
								if !bytes.Equal(answers[0], answers[1]) {
									t.Fatalf("%s %+v: keyed answer %s, unkeyed %s", name, s, answers[0], answers[1])
								}
							}
							n++
						}
					}
				}
			}
		}
	}
	if n != 3*3*2*3*2*2 {
		t.Fatalf("checked %d questions", n)
	}
}

// getBody answers one GET through the handler.
func getBody(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// TestOverBudgetQueriesRefused pins the parser's event budget and the
// words overflow guard: each question is a 400 naming its field on both
// backends (and an item error in a batch), decided before any chunk is
// built — within milliseconds and a few MB of allocation, where the
// largest of them used to panic the handler or grow the process to
// gigabytes.
func TestOverBudgetQueriesRefused(t *testing.T) {
	h := NewHandler(Options{})
	cases := []struct {
		query, field string
	}{
		{"trials=20001&words=1073741824", "trials"},
		{"words=8796093022208", "words"}, // one trial is already over budget
		{"words=2305843009213693952", "words"},
		{"words=9223372036854775807", "words"},
	}
	for _, c := range cases {
		for _, backend := range []string{"analytic", "sim"} {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocated := ms.TotalAlloc
			start := time.Now()
			code, body := getBody(t, h, "/eval?backend="+backend+"&"+c.query)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms)
			allocated = ms.TotalAlloc - allocated
			if code != http.StatusBadRequest || !strings.Contains(body, c.field+"=") {
				t.Errorf("%s %s: %d %s, want 400 naming %s", backend, c.query, code, body, c.field)
			}
			if elapsed > time.Second || allocated > 4<<20 {
				t.Errorf("%s %s: refusal took %v and %d bytes", backend, c.query, elapsed, allocated)
			}
		}
	}

	body := `{"items":[{"backend":"sim","trials":20001,"words":1073741824},{"backend":"analytic","words":9223372036854775807},{"backend":"sim","f":0.5}]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/eval/batch", strings.NewReader(body)))
	var out batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Items) != 3 {
		t.Fatalf("batch answered %d %s (%v)", rec.Code, rec.Body, err)
	}
	for i, field := range []string{"trials", "words"} {
		if it := out.Items[i]; it.Outcome != nil || !strings.Contains(it.Error, field+"=") {
			t.Errorf("batch item %d = %+v, want an error naming %s", i, it, field)
		}
	}
	if it := out.Items[2]; it.Outcome == nil {
		t.Errorf("in-budget batch item failed: %+v", it)
	}
}

// TestPageCacheServesRenderedBytes pins the page cache's rendered bytes:
// a hit writes exactly what a fresh render of the evaluation produces,
// while a request with form errors is rendered fresh — carrying its
// errors — and leaves the cached page untouched.
func TestPageCacheServesRenderedBytes(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	h := NewHandler(Options{})

	p := DefaultParams()
	p.F, p.I1 = 0.5, 1
	ev, err := Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := render(page, ev)
	if err != nil {
		t.Fatal(err)
	}
	tp := DefaultThreeParams()
	tp.F1 = 0.25
	ev3, err := EvaluateThree(tp)
	if err != nil {
		t.Fatal(err)
	}
	fresh3, err := render(threeTemplate, threePage{Params: tp, Evaluation: ev3})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		ok, bad string
		fresh   []byte
	}{
		{"/?f=0.5&i1=1", "/?f=0.5&i1=1&i0=banana", fresh},
		{"/three?f1=0.25", "/three?f1=0.25&a1=NaN", fresh3},
	} {
		for i := 0; i < 2; i++ { // a miss, then a hit
			if code, body := getBody(t, h, c.ok); code != http.StatusOK || body != string(c.fresh) {
				t.Fatalf("%s (request %d): cached page differs from a fresh render", c.ok, i)
			}
		}
		before := CacheStats()
		code, body := getBody(t, h, c.bad)
		if code != http.StatusOK || !strings.Contains(body, "rejected") || body == string(c.fresh) {
			t.Errorf("%s: form errors must be rendered into the page, got %d", c.bad, code)
		}
		if after := CacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Errorf("%s: the evaluation must still come from the cache: %+v -> %+v", c.bad, before, after)
		}
		if _, body := getBody(t, h, c.ok); body != string(c.fresh) {
			t.Errorf("%s: a form-error request changed the cached page", c.ok)
		}
	}

	// Evaluation errors are rendered fresh and never cached.
	before := CacheStats()
	code, body := getBody(t, h, "/?f=2")
	if code != http.StatusOK || !strings.Contains(body, "f must be in [0,1]") {
		t.Errorf("invalid parameters answered %d without their error", code)
	}
	if after := CacheStats(); after.Entries != before.Entries {
		t.Errorf("an error page was cached: %+v -> %+v", before, after)
	}
}

// TestPageContentLength pins that a cached page is written in one piece
// with its length.
func TestPageContentLength(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/?f=0.25")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Type") != "text/html; charset=utf-8" {
		t.Errorf("page length %d for %d bytes, type %q", resp.ContentLength, len(body), resp.Header.Get("Content-Type"))
	}
}
