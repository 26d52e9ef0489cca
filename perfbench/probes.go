package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/experiments"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/parallel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/soc"
	"github.com/gables-model/gables/internal/units"
	"github.com/gables-model/gables/internal/usecase"
)

// Probe sizes. probeRequests hot-mix requests give about 1200 pages, so
// every p99 of the serving probe has at least minBeyond samples beyond
// it; simRuns does the same for sim.run_us.p99.
const (
	probeRequests = 12000
	probeIDBase   = 1 << 40
	simRuns       = 1000
	simSample     = 200
	directRepeats = 20
)

// trafficCounters are the server-side counter deltas of one phase.
type trafficCounters struct {
	web, sim, eval cacheDelta
	queued, shed   int64
}

func countersOf(before, after serverStats) trafficCounters {
	return trafficCounters{
		web: deltaOf(after.Web, before.Web), sim: deltaOf(after.Sim, before.Sim), eval: deltaOf(after.Eval, before.Eval),
		queued: after.Admission.Queued - before.Admission.Queued, shed: after.Admission.Shed - before.Admission.Shed,
	}
}

// probeResult is what the traced run measures besides the workload's own
// traffic.
type probeResult struct {
	spans     []span
	layers    *layerSamples
	counters  trafficCounters
	reproSim  cacheDelta // simcache deltas of one in-process experiments pass
	attempted int
	failed    int
}

// runProbes runs the hot-mix serving probe and the direct layer probes,
// writing the direct ones into m.
func runProbes(o options, m metricSet) (*probeResult, error) {
	p, err := servingProbe(o)
	if err != nil {
		return nil, fmt.Errorf("serving probe: %w", err)
	}
	if err := evalProbe(o, m); err != nil {
		return nil, fmt.Errorf("eval probe: %w", err)
	}
	if err := simProbe(o, m); err != nil {
		return nil, fmt.Errorf("sim probe: %w", err)
	}
	if err := suiteProbe(m); err != nil {
		return nil, fmt.Errorf("usecase probe: %w", err)
	}
	if p.reproSim, err = experimentsProbe(o, m); err != nil {
		return nil, fmt.Errorf("experiments probe: %w", err)
	}
	if _, ok := m["repro.simcache.hits"]; !ok {
		if err := reproProbe(o, m); err != nil {
			return nil, fmt.Errorf("repro probe: %w", err)
		}
	}
	return p, nil
}

// servingProbe serves a fixed number of hot-mix requests through the
// traced server, for the span metrics a workload's own traffic does not
// reach.
func servingProbe(o options) (*probeResult, error) {
	rec := newRecorder()
	restore, err := traceEvaluators(rec)
	if err != nil {
		return nil, err
	}
	defer restore()
	srv, err := startServer(rec)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	h := newHot(o.seed)
	warm := newClient(srv.base, o.clients, nil)
	_, err = h.prepare(warm)
	warm.close()
	if err != nil {
		return nil, err
	}
	c := newClient(srv.base, o.clients, rec)
	c.idBase = probeIDBase
	defer c.close()
	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	st, _ := c.run(h.gen, 0, probeRequests, time.Time{}, h.check)
	after, err := c.stats()
	if err != nil {
		return nil, err
	}
	spans := rec.take()
	return &probeResult{
		spans:     spans,
		layers:    analyze(spans),
		counters:  countersOf(before, after),
		attempted: st.attempted,
		failed:    st.failed,
	}, nil
}

// timeCalls returns the per-call time in microseconds of each of n calls.
func timeCalls(n int, f func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out[i] = micros(time.Since(start))
	}
	return out, nil
}

// gridQueries are the hot mix's distinct analytic questions as queries.
func gridQueries(seed int64) ([]eval.Query, error) {
	var qs []eval.Query
	for _, req := range newHotMix(seed).slots {
		if req.kind != kindEval || req.qs[0].Backend != "analytic" {
			continue
		}
		q, err := req.qs[0].query()
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// evalProbe times eval.Fingerprint and the analytic backend's cache-hit
// and compute paths directly.
func evalProbe(o options, m metricSet) error {
	qs, err := gridQueries(o.seed)
	if err != nil {
		return err
	}
	n := len(qs) * directRepeats
	fp, err := timeCalls(n, func(i int) error { _, err := eval.Fingerprint(qs[i%len(qs)]); return err })
	if err != nil {
		return err
	}
	an, err := eval.Resolve("analytic")
	if err != nil {
		return err
	}
	ctx := context.Background()
	compute, err := timeCalls(len(qs), func(i int) error {
		eval.ResetCache()
		_, err := an.Evaluate(ctx, qs[i])
		return err
	})
	if err != nil {
		return err
	}
	hit, err := timeCalls(n, func(i int) error { _, err := an.Evaluate(ctx, qs[i%len(qs)]); return err })
	if err != nil {
		return err
	}
	m["eval.fingerprint_us.p50"] = median(fp)
	m["eval.analytic.compute_us"] = median(compute)
	// The first pass over the questions fills the cache again.
	m["eval.analytic.hit_us"] = median(hit[len(qs):])
	return nil
}

// simCall is one sampled serve_cold question in the simulator's terms.
type simCall struct {
	cfg sim.Config
	as  []sim.Assignment
	opt sim.RunOptions
}

// simCalls realizes cold questions as simulator assignments the way the
// sim backend does: one kernel per IP with work, in chip order.
func simCalls(seed int64, n int) ([]simCall, error) {
	out := make([]simCall, n)
	for i := range out {
		q, err := coldQuestion(seed, streamSample, uint64(i)).query()
		if err != nil {
			return nil, err
		}
		c := simCall{cfg: q.Chip}
		for k, w := range q.Work {
			if w.Words == 0 {
				continue
			}
			name := q.Chip.IPs[k].Name
			c.as = append(c.as, sim.Assignment{IP: name, Kernel: kernel.Kernel{
				Name: "eval/" + name, WorkingSet: units.Bytes(w.Words * kernel.WordSize),
				Trials: q.Trials, FlopsPerWord: w.FlopsPerWord, Pattern: w.Pattern,
			}})
		}
		out[i] = c
	}
	return out, nil
}

// simProbe times sim.Fingerprint, sim.New and System.Run directly, and
// simcache.Run on a miss and on a hit.
func simProbe(o options, m metricSet) error {
	calls, err := simCalls(o.seed, simRuns)
	if err != nil {
		return err
	}
	keys, err := timeCalls(len(calls), func(i int) error {
		sim.Fingerprint(calls[i].cfg, calls[i].as, calls[i].opt)
		return nil
	})
	if err != nil {
		return err
	}
	newUS := make([]float64, len(calls))
	runUS := make([]float64, len(calls))
	for i, c := range calls {
		start := time.Now()
		sys, err := sim.New(c.cfg)
		if err != nil {
			return err
		}
		mid := time.Now()
		if _, err := sys.Run(c.as, c.opt); err != nil {
			return err
		}
		newUS[i], runUS[i] = micros(mid.Sub(start)), micros(time.Since(mid))
	}
	simcache.ResetDefault()
	sample := calls[:simSample]
	overhead := make([]float64, len(sample))
	for i, c := range sample {
		miss, err := timeCalls(1, func(int) error { _, err := simcache.Run(c.cfg, c.as, c.opt); return err })
		if err != nil {
			return err
		}
		direct, err := timeCalls(1, func(int) error {
			sys, err := sim.New(c.cfg)
			if err != nil {
				return err
			}
			_, err = sys.Run(c.as, c.opt)
			return err
		})
		if err != nil {
			return err
		}
		overhead[i] = miss[0] - direct[0]
	}
	hits, err := timeCalls(len(sample)*directRepeats, func(i int) error {
		c := sample[i%len(sample)]
		_, err := simcache.Run(c.cfg, c.as, c.opt)
		return err
	})
	if err != nil {
		return err
	}
	runs := newDist(runUS)
	p99, err := runs.tail(0.99)
	if err != nil {
		return err
	}
	m["simcache.key_us.p50"] = median(keys)
	m["simcache.hit_us.p50"] = median(hits)
	m["simcache.miss_overhead_us.p50"] = median(overhead)
	m["sim.new_us.p50"] = median(newUS)
	m["sim.run_us.p50"] = runs.q(0.5)
	m["sim.run_us.p99"] = p99
	return nil
}

// suiteProbe times usecase.AnalyzeSuite over the standard suite.
func suiteProbe(m metricSet) error {
	chip := soc.Snapdragon835Like()
	reqs := usecase.StandardSuite()
	t, err := timeCalls(directRepeats, func(int) error { _, err := usecase.AnalyzeSuite(chip, reqs); return err })
	if err != nil {
		return err
	}
	m["usecase.suite_us"] = median(t)
	return nil
}

// experimentsProbe times the costliest experiments cold, and the whole
// registry on a nproc-worker pool for the parallel efficiency; it returns
// the simcache deltas of one whole-registry pass.
func experimentsProbe(o options, m metricSet) (cacheDelta, error) {
	for _, id := range costlyExperiments {
		t, err := timeCalls(3, func(int) error {
			simcache.ResetDefault()
			eval.ResetCache()
			_, err := experiments.Run(id)
			return err
		})
		if err != nil {
			return cacheDelta{}, err
		}
		m["experiments."+id+"_ms"] = median(t) / 1e3
	}
	var effs []float64
	var pass cacheDelta
	for r := 0; r < 3; r++ {
		simcache.ResetDefault()
		eval.ResetCache()
		before := simcache.DefaultStats()
		var mu sync.Mutex
		busy := time.Duration(0)
		start := time.Now()
		_, err := parallel.Map(context.Background(), o.clients, experiments.IDs(), func(_ context.Context, _ int, id string) (struct{}, error) {
			t0 := time.Now()
			_, err := experiments.Run(id)
			mu.Lock()
			busy += time.Since(t0)
			mu.Unlock()
			return struct{}{}, err
		})
		if err != nil {
			return cacheDelta{}, err
		}
		wall := time.Since(start)
		pass = deltaOf(simcache.DefaultStats(), before)
		effs = append(effs, busy.Seconds()/(float64(o.clients)*wall.Seconds()))
	}
	m["parallel.efficiency"] = median(effs)
	return pass, nil
}

// reproProbe reads the simcache counters of a few traced gables-repro
// processes, for the workloads whose traffic runs none.
func reproProbe(o options, m metricSet) error {
	var runs []reproRun
	for i := 0; i < 3; i++ {
		r, err := runReproOnce(o, true)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	hits, misses, _, _, err := reproCounts(runs)
	if err != nil {
		return err
	}
	m["repro.simcache.hits"] = hits
	m["repro.simcache.misses"] = misses
	return nil
}

// setLayerMetrics fills the span- and counter-derived metrics, from the
// workload's traffic where it reached the layer and from the serving
// probe otherwise.
func setLayerMetrics(m metricSet, t *layerSamples, tc trafficCounters, p *probeResult) error {
	pick := func(traffic, probe []float64) dist {
		if len(traffic) > 0 {
			return newDist(traffic)
		}
		return newDist(probe)
	}
	var err error
	tail := func(name string, d dist) {
		v, e := d.tail(0.99)
		if e != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
		m[name] = v
	}
	for k := kind(0); k < numKinds; k++ {
		h := pick(t.handler[k], p.layers.handler[k])
		m["web.handler_us."+kindNames[k]+".p50"] = h.q(0.5)
		tail("web.handler_us."+kindNames[k]+".p99", h)
	}
	for _, k := range []kind{kindEval, kindBatch} {
		m["web.self_us."+kindNames[k]+".p50"] = pick(t.self[k], p.layers.self[k]).q(0.5)
		m["web.resp_bytes."+kindNames[k]] = pick(t.respBytes[k], p.layers.respBytes[k]).mean()
	}
	m["http.transport_us.p50"] = pick(t.transport, p.layers.transport).q(0.5)
	m["eval.analytic.evaluate_us.p50"] = pick(t.analytic, p.layers.analytic).q(0.5)
	s := pick(t.sim, p.layers.sim)
	m["eval.sim.evaluate_us.p50"] = s.q(0.5)
	tail("eval.sim.evaluate_us.p99", s)
	m["eval.batch_item_us.p50"] = pick(t.batchItem, p.layers.batchItem).q(0.5)

	counters := func(traffic, probe cacheDelta) cacheDelta {
		if traffic.lookups() > 0 {
			return traffic
		}
		return probe
	}
	m["web.admission.queued"] = float64(tc.queued)
	m["web.admission.shed"] = float64(tc.shed)
	m["web.page_cache.hit_ratio"] = counters(tc.web, p.counters.web).hitRatio()
	m["eval.outcome_cache.hit_ratio"] = counters(tc.eval, p.counters.eval).hitRatio()
	sc := counters(tc.sim, p.reproSim)
	m["simcache.hits"] = float64(sc.hits)
	m["simcache.misses"] = float64(sc.misses)
	m["simcache.coalesced"] = float64(sc.coalesced)
	m["simcache.evictions"] = float64(sc.evictions)
	m["simcache.hit_ratio"] = sc.hitRatio()
	return err
}
