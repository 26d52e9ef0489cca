package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Tail percentiles of tail_ms: the p99 on the serving workloads (tens of
// thousands of requests per run), the p90 on repro (hundreds of
// processes). tail() refuses either when fewer than minBeyond samples lie
// beyond it.
const (
	servingTail = 0.99
	reproTail   = 0.90
)

// End-to-end metrics are interquartile means over windows of these
// lengths (see windows.means). A serving window holds thousands of
// requests and a repro window a few hundred processes; their tails need
// a thousand and a hundred.
const (
	servingWindow = time.Second
	reproWindow   = 6 * time.Second
)

// printLatencies prints a phase's client latencies per endpoint.
func printLatencies(st *loopStats, label string) {
	for k := range st.byKind {
		if h := &st.byKind[k]; h.n > 0 {
			fmt.Printf("  %s %-5s latency %s\n", label, kindNames[k], h.describe(servingTail))
		}
	}
}

// pooledP50 prints a phase's latencies and returns the median over all
// of its requests.
func pooledP50(st *loopStats, label string) float64 {
	printLatencies(st, label)
	return st.all().q(0.5)
}

// Set-up repeats setupBefore times before the timed window and
// setupAfter times after it; setup_s is the median of all of them. Set-up
// is short, and splitting the repeats keeps one slow spell of the host
// from setting every one of them.
const (
	setupBefore = 5
	setupAfter  = 6
)

// setUp starts a server on cold caches and prepares the workload on it.
func setUp(o options, w servingWorkload) (srv *server, c *client, next uint64, seconds float64, err error) {
	resetCaches()
	start := time.Now()
	if srv, err = startServer(nil); err != nil {
		return nil, nil, 0, 0, err
	}
	c = newClient(srv.base, o.clients, nil)
	if next, err = w.prepare(c); err != nil {
		c.close()
		srv.close()
		return nil, nil, 0, 0, err
	}
	return srv, c, next, time.Since(start).Seconds(), nil
}

// runServing runs serve_hot or serve_cold.
func runServing(o options, w servingWorkload) report {
	if o.trace {
		return traceServing(o, w)
	}
	mem := startMemSampler()
	var setups []float64
	var srv *server
	var c *client
	var next uint64
	for r := 0; r < setupBefore; r++ {
		if srv != nil {
			c.close()
			srv.close()
		}
		var secs float64
		var err error
		if srv, c, next, secs, err = setUp(o, w); err != nil {
			return report{err: err}
		}
		setups = append(setups, secs)
	}
	phase, _ := c.run(w.gen, next, 0, time.Now().Add(o.window()), w.check)
	c.close()
	srv.close()
	rep := report{metrics: metricSet{}, attempted: phase.attempted, failed: phase.failed}
	if phase.firstErr != nil {
		fmt.Printf("first failure: %v\n", phase.firstErr)
	}
	printLatencies(phase, "timed")
	qps, p50, tail, err := phase.win.means(phase.elapsed, servingTail)
	if err != nil {
		return report{err: err}
	}
	verified, verr := w.verify()
	rep.verified = verified
	if verr != nil {
		fmt.Printf("verification failed: %v\n", verr)
		rep.failed++
	}
	n, sum := w.digest()
	fmt.Printf("results digest: %d answers, makespan+rate float64 bits sha256 %s\n", n, sum)
	for r := 0; r < setupAfter; r++ {
		srv, c, _, secs, err := setUp(o, w)
		if err != nil {
			return report{err: err}
		}
		c.close()
		srv.close()
		setups = append(setups, secs)
	}
	fmt.Printf("setup runs (s): %.4g\n", setups)
	rep.metrics["qps"] = qps
	rep.metrics["p50_ms"] = p50
	rep.metrics["tail_ms"] = tail
	rep.metrics["setup_s"] = median(setups)
	if rep.metrics["peak_mem_mb"], err = mem.finish(); err != nil {
		return report{err: fmt.Errorf("peak_mem_mb: %w", err)}
	}
	return rep
}

// overheadPairs is the number of untraced/traced segment pairs a traced
// run alternates, so drift in the host's speed falls on both sides.
const overheadPairs = 4

// traceServing is the traced run of a serving workload: the workload's
// timed window twice over, alternating untraced and traced segments that
// continue one request sequence, then the hot-mix serving probe and the
// direct layer probes.
func traceServing(o options, w servingWorkload) report {
	resetCaches()
	srv, err := startServer(nil)
	if err != nil {
		return report{err: err}
	}
	defer srv.close()
	c := newClient(srv.base, o.clients, nil)
	defer c.close()
	next, err := w.prepare(c)
	if err != nil {
		return report{err: err}
	}
	rec := newRecorder()
	tsrv, err := startServer(rec)
	if err != nil {
		return report{err: err}
	}
	defer tsrv.close()
	tc := newClient(tsrv.base, o.clients, rec)
	defer tc.close()

	before, err := tc.stats()
	if err != nil {
		return report{err: err}
	}
	gc0, pause0 := gcCounts()
	plain, traced := newLoopStats(), newLoopStats()
	seg := o.window() / overheadPairs
	for p := 0; p < overheadPairs; p++ {
		st, n := c.run(w.gen, next, 0, time.Now().Add(seg), w.check)
		plain.merge(st)
		restore, err := traceEvaluators(rec)
		if err != nil {
			return report{err: err}
		}
		st, next = tc.run(w.gen, n, 0, time.Now().Add(seg), w.check)
		restore()
		traced.merge(st)
	}
	gc1, pause1 := gcCounts()
	after, err := tc.stats()
	if err != nil {
		return report{err: err}
	}

	rep := report{
		metrics:   metricSet{},
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
	}
	verified, verr := w.verify()
	rep.verified = verified
	if verr != nil {
		fmt.Printf("verification failed: %v\n", verr)
		rep.failed++
	}
	spans := rec.take()
	traffic := analyze(spans)
	counters := countersOf(before, after)
	rep.metrics["gc.cycles"] = float64(gc1 - gc0)
	rep.metrics["gc.pause_ms"] = millis(pause1 - pause0)
	overhead(rep.metrics, plain, traced)
	probe, err := runProbes(o, rep.metrics)
	if err != nil {
		return report{err: err}
	}
	rep.attempted += probe.attempted
	rep.failed += probe.failed
	if err := setLayerMetrics(rep.metrics, traffic, counters, probe); err != nil {
		return report{err: err}
	}
	if err := saveSpans(o, append(spans, probe.spans...)); err != nil {
		return report{err: err}
	}
	return rep
}

// overhead reports the traced segments' qps loss and p50 gain against the
// untraced ones, in percent.
func overhead(m metricSet, plain, traced *loopStats) {
	p50, tp50 := pooledP50(plain, "untraced"), pooledP50(traced, "traced")
	m["trace.overhead.qps_pct"] = 100 * (plain.qps() - traced.qps()) / plain.qps()
	m["trace.overhead.p50_pct"] = 100 * (tp50 - p50) / p50
	fmt.Printf("tracing overhead: qps %.1f -> %.1f, p50 %.4gms -> %.4gms\n", plain.qps(), traced.qps(), p50, tp50)
}

// saveSpans writes the run's spans into .bench_build/trace.
func saveSpans(o options, spans []span) error {
	dir := filepath.Join(o.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", len(spans), path)
	return nil
}
