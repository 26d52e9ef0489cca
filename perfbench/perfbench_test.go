package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func requestKey(r request) string { return r.path + "\n" + string(r.body) }

func TestSameSeedSameRequests(t *testing.T) {
	const n = 2000
	sequences := map[string]func(seed int64) func(uint64) request{
		"serve_hot":  func(seed int64) func(uint64) request { return newHot(seed).gen },
		"serve_cold": func(seed int64) func(uint64) request { return newCold(seed).gen },
	}
	for name, seq := range sequences {
		a, b, other := seq(7), seq(7), seq(8)
		differs := false
		for i := uint64(0); i < n; i++ {
			if requestKey(a(i)) != requestKey(b(i)) {
				t.Fatalf("%s: request %d differs between two generators of seed 7", name, i)
			}
			differs = differs || requestKey(a(i)) != requestKey(other(i))
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same %d requests", name, n)
		}
	}
}

func TestHotMixShares(t *testing.T) {
	h := newHot(1)
	var counts [numKinds]int
	const n = 100000
	for i := uint64(0); i < n; i++ {
		counts[h.gen(i).kind]++
	}
	want := [numKinds]float64{1 - hotBatchShare - hotPageShare, hotBatchShare, hotPageShare}
	for k, c := range counts {
		if got := float64(c) / n; math.Abs(got-want[k]) > 0.01 {
			t.Errorf("%s share %.3f, want %.2f", kindNames[k], got, want[k])
		}
	}
	if len(h.mix.slots) != 162+hotBatchPool+len(hotPages()) {
		t.Errorf("hot mix has %d slots", len(h.mix.slots))
	}
}

func TestColdQuestionsAreDistinct(t *testing.T) {
	c := newCold(3)
	seen := map[string]bool{}
	for i := uint64(0); i < c.fill+2000; i++ {
		for _, q := range c.gen(i).qs {
			key := q.params()
			if seen[key] {
				t.Fatalf("request %d repeats question %s", i, key)
			}
			seen[key] = true
		}
	}
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // the median has 9 samples beyond it
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := highestTail(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has %d beyond", c.n, 100*got, beyond(c.n, got))
		}
	}
	values := make([]float64, 999)
	var h hist
	for i := range values {
		values[i] = float64(i + 1)
		h.add(values[i])
	}
	if _, err := newDist(values).tail(0.99); err == nil {
		t.Error("p99 of 999 samples passed the tail rule")
	}
	if _, err := h.tail(0.99); err == nil {
		t.Error("histogram p99 of 999 samples passed the tail rule")
	}
	if v, err := newDist(values).tail(0.9); err != nil || v != 900 {
		t.Errorf("p90 of 1..999 = %v, %v; want 900", v, err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	values := make([]float64, 5000)
	for i := range values {
		values[i] = 0.01 * math.Exp(float64(i)/700)
		h.add(values[i])
	}
	d := newDist(values)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := h.q(q), d.q(q); math.Abs(got-want)/want > histGrowth-1 {
			t.Errorf("histogram p%g = %v, exact %v", 100*q, got, want)
		}
	}
}

func TestWindows(t *testing.T) {
	w := newWindows(time.Second)
	for i := 0; i < 3000; i++ {
		at := time.Duration(i) * time.Millisecond
		w.add(at, 1+float64(i/1000), 2)
	}
	w.add(3500*time.Millisecond, 100, 2) // in the partial last window
	rate, p50, _, err := w.means(3600*time.Millisecond, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 2000 {
		t.Errorf("rate %v, want 2000 answers/s", rate)
	}
	if math.Abs(p50-2) > 0.02 {
		t.Errorf("mid-mean p50 %v, want about 2", p50)
	}

	// A stalled window with too few answers for the p99 counts only for
	// the rate; with most windows stalled the phase has no tail.
	stalled := newWindows(time.Second)
	for i := 0; i < 4000; i++ {
		if i/1000 != 1 || i%100 == 0 {
			stalled.add(time.Duration(i)*time.Millisecond, 1, 1)
		}
	}
	rate, _, _, err = stalled.means(4*time.Second, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 1000 {
		t.Errorf("rate with one stalled window of four %v, want 1000", rate)
	}
	if _, _, _, err := stalled.means(4*time.Second, 0.999); err == nil {
		t.Error("no window holds a p99.9, yet means returned one")
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: 5, end: 12}, {start: 20, end: 25}, {start: 21, end: 22}}
	if got := covered(spans); got != 17 {
		t.Errorf("covered = %d, want 17", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric table must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var gotE2E, gotLayer []m
	for _, e := range b.EndToEnd {
		gotE2E = append(gotE2E, m(e))
	}
	for _, e := range b.PerLayer {
		gotLayer = append(gotLayer, m(e))
	}
	table := func(defs []metricDef) []m {
		var out []m
		for _, d := range defs {
			out = append(out, m{d.Name, d.Unit, d.Better})
		}
		return out
	}
	if !reflect.DeepEqual(gotE2E, table(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %v\nmetric table %v", gotE2E, table(endToEnd))
	}
	if !reflect.DeepEqual(gotLayer, table(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer %v\nmetric table %v", gotLayer, table(perLayer))
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	if want := []string{"serve_hot", "serve_cold", "repro"}; !reflect.DeepEqual(workloads, want) {
		t.Errorf("workloads %v, want %v", workloads, want)
	}
}

func TestEmitPrintsExactlyTheTable(t *testing.T) {
	full := metricSet{}
	for _, d := range endToEnd {
		full[d.Name] = 1
	}
	out, err := full.emit(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != len(endToEnd) {
		t.Errorf("emitted %v", names)
	}
	extra := metricSet{"unlisted": 1}
	for k, v := range full {
		extra[k] = v
	}
	if _, err := extra.emit(endToEnd); err == nil || !strings.Contains(err.Error(), "unlisted") {
		t.Errorf("emit with an unlisted metric: %v", err)
	}
	delete(full, "qps")
	if _, err := full.emit(endToEnd); err == nil {
		t.Error("emit without qps succeeded")
	}
}

func writeOutput(t *testing.T, h host, metrics string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	content := "host " + h.json() + "\nreport line\n" + `{"correct":true,"attempted":1,"failed":0,"metrics":` + metrics + "}\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := host{CPU: "x", NumCPU: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64", Go: "go1", GitSHA: "a"}
	b := a
	b.GitSHA = "b"
	metrics := `{"qps":{"value":10,"unit":"1/s"}}`
	if code := compareMain([]string{writeOutput(t, a, metrics), writeOutput(t, b, metrics)}); code != 0 {
		t.Errorf("compare of two commits on one host: exit %d", code)
	}
	b.NumCPU = 4
	if code := compareMain([]string{writeOutput(t, a, metrics), writeOutput(t, b, metrics)}); code != 3 {
		t.Errorf("compare across hosts: exit %d, want 3", code)
	}
	if diff := a.mismatch(b); len(diff) != 1 || !strings.HasPrefix(diff[0], "num_cpu") {
		t.Errorf("mismatch = %v", diff)
	}
}

func TestBatchBodyDecodes(t *testing.T) {
	q := coldQuestion(1, streamColdEval, 0)
	var body struct {
		Items []map[string]any `json:"items"`
	}
	if err := json.Unmarshal(batchBody([]question{q, q}), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Items) != 2 || body.Items[0]["backend"] != "sim" {
		t.Errorf("batch body %v", body)
	}
	if !bytes.Contains([]byte(q.path()), []byte("words=")) {
		t.Errorf("cold question path %s lacks words", q.path())
	}
}
