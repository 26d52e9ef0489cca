package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef is one metric the benchmark prints. The table below is the
// single list of names: BENCHMARK.json must carry exactly these (a test
// holds the two together), and emit refuses any other name.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Target, for a per-layer metric, names the end-to-end metric it
	// should move and the workload on which it should move it.
	Target string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them: qps counts answered queries on the serving
// workloads and completed gables-repro processes on repro; p50_ms and
// tail_ms time one request or one process, tail_ms being the p99 on the
// serving workloads and the p90 on repro (servingTail, reproTail);
// peak_mem_mb is the server's heap on the serving workloads and the
// child's max RSS on repro.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_mem_mb", Unit: "MB", Better: "lower"},
}

// The five experiments that cost the most when run cold (about 1-4 ms
// each on a 2-vCPU x86 host); together they are over half of a full
// gables-repro run's experiment time.
var costlyExperiments = []string{"fig8", "latency", "derive", "validate", "sd821"}

// perLayer are the traced run's metrics. A span-derived metric comes from
// the workload's own traffic when that traffic reaches the layer, and from
// the fixed hot-mix serving probe otherwise (for example page spans on
// serve_cold, or every web span on repro, which has no HTTP).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"web.handler_us.eval.p50", "us", "lower", "p50_ms, qps on serve_hot"},
		{"web.handler_us.eval.p99", "us", "lower", "tail_ms on serve_hot"},
		{"web.handler_us.batch.p50", "us", "lower", "tail_ms, qps on serve_hot"},
		{"web.handler_us.batch.p99", "us", "lower", "tail_ms on serve_hot"},
		{"web.handler_us.page.p50", "us", "lower", "qps on serve_hot"},
		{"web.handler_us.page.p99", "us", "lower", "tail_ms on serve_hot"},
		{"web.self_us.eval.p50", "us", "lower", "qps on serve_hot; near-zero share on serve_cold"},
		{"web.self_us.batch.p50", "us", "lower", "qps on serve_hot; near-zero share on serve_cold"},
		{"web.resp_bytes.eval", "bytes", "lower", "qps on serve_hot"},
		{"web.resp_bytes.batch", "bytes", "lower", "qps on serve_hot"},
		{"web.admission.queued", "count", "lower", "failed requests on serve_hot and serve_cold"},
		{"web.admission.shed", "count", "lower", "failed requests on serve_hot and serve_cold"},
		{"web.page_cache.hit_ratio", "ratio", "higher", "qps on serve_hot"},
		{"http.transport_us.p50", "us", "lower", "expected not to move"},
		{"eval.analytic.evaluate_us.p50", "us", "lower", "p50_ms on serve_hot"},
		{"eval.sim.evaluate_us.p50", "us", "lower", "p50_ms, qps on serve_cold"},
		{"eval.sim.evaluate_us.p99", "us", "lower", "tail_ms, qps on serve_cold"},
		{"eval.batch_item_us.p50", "us", "lower", "tail_ms on serve_hot and serve_cold"},
		{"eval.fingerprint_us.p50", "us", "lower", "p50_ms on serve_hot"},
		{"eval.analytic.hit_us", "us", "lower", "p50_ms on serve_hot"},
		{"eval.analytic.compute_us", "us", "lower", "p50_ms on serve_hot"},
		{"eval.outcome_cache.hit_ratio", "ratio", "higher", "p50_ms on serve_hot"},
		{"simcache.hits", "count", "higher", "qps on serve_hot"},
		{"simcache.misses", "count", "lower", "qps on serve_cold"},
		{"simcache.coalesced", "count", "higher", "qps on serve_hot"},
		{"simcache.evictions", "count", "lower", "qps on serve_cold"},
		{"simcache.hit_ratio", "ratio", "higher", "qps on serve_hot"},
		{"simcache.key_us.p50", "us", "lower", "p50_ms on serve_cold"},
		{"simcache.hit_us.p50", "us", "lower", "p50_ms on serve_hot"},
		{"simcache.miss_overhead_us.p50", "us", "lower", "p50_ms on serve_cold"},
		{"sim.new_us.p50", "us", "lower", "qps on serve_cold; p50_ms on repro; no change on serve_hot"},
		{"sim.run_us.p50", "us", "lower", "qps on serve_cold; p50_ms on repro; no change on serve_hot"},
		{"sim.run_us.p99", "us", "lower", "qps on serve_cold; p50_ms on repro; no change on serve_hot"},
	}
	for _, id := range costlyExperiments {
		defs = append(defs, metricDef{"experiments." + id + "_ms", "ms", "lower", "p50_ms on repro"})
	}
	return append(defs,
		metricDef{"parallel.efficiency", "ratio", "higher", "p50_ms on repro"},
		metricDef{"usecase.suite_us", "us", "lower", "p50_ms on repro"},
		metricDef{"repro.simcache.hits", "count", "higher", "p50_ms on repro"},
		metricDef{"repro.simcache.misses", "count", "lower", "p50_ms on repro"},
		metricDef{"gc.cycles", "count", "lower", "peak_mem_mb and tail_ms on every workload"},
		metricDef{"gc.pause_ms", "ms", "lower", "tail_ms on every workload"},
		metricDef{"trace.overhead.qps_pct", "%", "lower", "none: tracing cost against the untraced phase"},
		metricDef{"trace.overhead.p50_pct", "%", "lower", "none: tracing cost against the untraced phase"},
	)
}()

// metricSet collects one run's values by name.
type metricSet map[string]float64

// emit checks the set against defs — every name present, no other name,
// every value finite — and returns the contract's metrics object.
func (m metricSet) emit(defs []metricDef) (map[string]any, error) {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if len(m) != len(defs) {
		var extra []string
		for name := range m {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics not in the table: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

// printTable writes the set as aligned "name value unit" lines, in table
// order, with each per-layer metric's target.
func (m metricSet) printTable(defs []metricDef) {
	for _, d := range defs {
		line := fmt.Sprintf("  %-32s %14.6g %-6s", d.Name, m[d.Name], d.Unit)
		if d.Target != "" {
			line += "  -> " + d.Target
		}
		fmt.Println(line)
	}
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]any `json:"metrics"`
}

func printResult(r result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", data)
	return err
}
