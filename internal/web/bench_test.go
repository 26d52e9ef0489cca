package web

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The serving benchmarks drive NewHandler in process. The warm ones time
// the web layer plus cache reads: request parsing, routing, admission,
// fingerprinting and JSON encoding. The cold one adds a simulated run per
// request.

var (
	hotChips = []string{"snapdragon835", "snapdragon821", "snapdragon835x"}
	hotFPWs  = []int{8, 64, 512}
)

// hotQuery is the i-th question of the hot mix: the three chip presets,
// nine GPU fractions and three intensities, alternately asked of the
// analytic and sim backends.
func hotQuery(i int) (backend, chip string, f float64, fpw int) {
	backend = "analytic"
	if i%2 == 1 {
		backend = "sim"
	}
	return backend, hotChips[i%3], float64(i%9) / 8, hotFPWs[(i/3)%3]
}

// serve runs one request through h and fails on a non-200 answer.
func serve(b *testing.B, h http.Handler, req *http.Request) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body)
	}
}

// BenchmarkServeEval measures one warm GET /eval, cycling over 18 hot-mix
// questions on both backends.
func BenchmarkServeEval(b *testing.B) {
	h := NewHandler(Options{})
	paths := make([]string, 18)
	for i := range paths {
		backend, chip, f, fpw := hotQuery(i)
		paths[i] = fmt.Sprintf("/eval?backend=%s&chip=%s&f=%g&fpw=%d", backend, chip, f, fpw)
		serve(b, h, httptest.NewRequest(http.MethodGet, paths[i], nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
	}
}

// coldSeq numbers cold questions across benchmark rounds, so a later
// round never repeats an earlier round's question.
var coldSeq int

// coldPath is the i-th question of a cold mix shaped like the serve_cold
// workload's: a sim question on one of the three chip presets with a GPU
// fraction in [0.02, 0.98), fpw 1-512 and 64 Ki-4 Mi words. The fraction
// steps by the golden ratio, so no two indices ask the same question.
func coldPath(i int) string {
	u := math.Mod(float64(i)*0.6180339887498949, 1)
	return fmt.Sprintf("/eval?backend=sim&chip=%s&f=%g&fpw=%d&words=%d",
		hotChips[i%3], 0.02+0.96*u, 1+(i*37)%512, (64<<10)<<(i%7))
}

// BenchmarkServeEvalCold measures one cold GET /eval: every iteration asks
// a new sim question, so each request misses the simulation cache and
// builds and runs a simulated system.
func BenchmarkServeEvalCold(b *testing.B) {
	h := NewHandler(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, httptest.NewRequest(http.MethodGet, coldPath(coldSeq), nil))
		coldSeq++
	}
}

// BenchmarkServeBatch measures one warm POST /eval/batch of 16 hot-mix
// items, half analytic and half sim.
func BenchmarkServeBatch(b *testing.B) {
	h := NewHandler(Options{})
	items := make([]string, 16)
	for i := range items {
		backend, chip, f, fpw := hotQuery(i)
		items[i] = fmt.Sprintf(`{"backend":%q,"chip":%q,"f":%g,"fpw":%d}`, backend, chip, f, fpw)
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/eval/batch", strings.NewReader(body))
	}
	serve(b, h, post())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, post())
	}
}
