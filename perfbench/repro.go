package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// reproPassed is the line every good gables-repro run prints.
const reproPassed = "all 64 checks passed"

// reproRun is one gables-repro process.
type reproRun struct {
	at     time.Duration // completion time from the phase start
	ms     float64
	rssMB  float64
	digest [32]byte // sha256 of stdout
	stderr []byte   // kept for traced runs only
}

// reproEnv is the parent environment without the variables that would
// give the child a cache directory or another pool size; traced children
// also print a line per GC cycle.
func reproEnv(traced bool) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if k == "GABLES_CACHE_DIR" || k == "GABLES_PARALLEL" || k == "GODEBUG" {
			continue
		}
		env = append(env, kv)
	}
	if traced {
		env = append(env, "GODEBUG=gctrace=1")
	}
	return env
}

// runReproOnce runs one full gables-repro with a nproc pool through the
// spawn helper and checks it exited 0 having passed every paper check.
func runReproOnce(o options, traced bool) (reproRun, error) {
	args := []string{o.repro, "-j", strconv.Itoa(o.clients)}
	if traced {
		args = append(args, "-v")
	}
	rd, wr, err := os.Pipe()
	if err != nil {
		return reproRun{}, err
	}
	defer rd.Close()
	cmd := exec.Command(o.spawn, args...)
	cmd.Dir = o.root
	cmd.Env = reproEnv(traced)
	cmd.ExtraFiles = []*os.File{wr}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Start()
	wr.Close()
	if err != nil {
		return reproRun{}, err
	}
	report, rerr := io.ReadAll(rd)
	err = cmd.Wait()
	var wallNS, rssKB int64
	if _, serr := fmt.Sscan(string(report), &wallNS, &rssKB); serr != nil && err == nil {
		err = fmt.Errorf("spawn report %q: %v (%v)", report, serr, rerr)
	}
	r := reproRun{ms: float64(wallNS) / 1e6, rssMB: float64(rssKB) / 1024, digest: sha256.Sum256(stdout.Bytes())}
	if traced {
		r.stderr = stderr.Bytes()
	}
	if err != nil {
		return r, fmt.Errorf("gables-repro: %w: %.300s", err, stderr.Bytes())
	}
	if !bytes.Contains(stdout.Bytes(), []byte(reproPassed)) {
		return r, fmt.Errorf("gables-repro exited 0 without %q", reproPassed)
	}
	return r, nil
}

// reproPhase is a timed sequence of gables-repro processes.
type reproPhase struct {
	runs      []reproRun
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func (p reproPhase) ms() []float64 {
	out := make([]float64, len(p.runs))
	for i, r := range p.runs {
		out[i] = r.ms
	}
	return out
}

func (p reproPhase) qps() float64 { return float64(len(p.runs)) / p.elapsed.Seconds() }

// timedRepro runs processes one after another for the window; with
// alternate set, every second process is traced. A run fails when it errs
// or its stdout differs from the set-up run's.
func timedRepro(o options, window time.Duration, alternate bool, want [32]byte) (plain, traced reproPhase) {
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		p := &plain
		if alternate && i%2 == 1 {
			p = &traced
		}
		t0 := time.Now()
		p.attempted++
		r, err := runReproOnce(o, p == &traced)
		if err == nil && r.digest != want {
			err = fmt.Errorf("gables-repro stdout differs from the set-up run's")
		}
		p.elapsed += time.Since(t0)
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
				fmt.Printf("first failure: %v\n", err)
			}
			continue
		}
		r.at = time.Since(start)
		p.runs = append(p.runs, r)
	}
	return plain, traced
}

// reproSetup runs n untimed processes and returns them; every later run
// must print the same stdout.
func reproSetup(o options, n int) ([]reproRun, error) {
	var runs []reproRun
	for i := 0; i < n; i++ {
		r, err := runReproOnce(o, false)
		if err != nil {
			return nil, err
		}
		if i > 0 && r.digest != runs[0].digest {
			return nil, fmt.Errorf("gables-repro stdout differs between set-up runs")
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func runRepro(o options) report {
	if o.repro == "" || o.spawn == "" {
		return report{err: fmt.Errorf("repro needs -repro and -spawn (run.sh builds both)")}
	}
	if o.trace {
		return traceRepro(o)
	}
	setupRuns, err := reproSetup(o, setupBefore)
	if err != nil {
		return report{err: err}
	}
	fmt.Printf("results digest: gables-repro stdout sha256 %x\n", setupRuns[0].digest[:8])
	p, _ := timedRepro(o, o.window(), false, setupRuns[0].digest)
	rep := report{metrics: metricSet{}, attempted: p.attempted, failed: p.failed, verified: len(p.runs)}
	var all hist
	win := newWindows(reproWindow)
	var rss []float64
	for _, r := range p.runs {
		all.add(r.ms)
		win.add(r.at, r.ms, 1)
		rss = append(rss, r.rssMB)
	}
	fmt.Printf("  timed gables-repro latency %s\n", all.describe(reproTail))
	qps, p50, tail, err := win.means(o.window(), reproTail)
	if err != nil {
		return report{err: err}
	}
	after, err := reproSetup(o, setupAfter)
	if err != nil {
		return report{err: err}
	}
	if after[0].digest != setupRuns[0].digest {
		return report{err: fmt.Errorf("gables-repro stdout changed during the run")}
	}
	var setups []float64
	for _, r := range append(setupRuns, after...) {
		setups = append(setups, r.ms/1e3)
	}
	fmt.Printf("setup runs (s): %.4g\n", setups)
	rep.metrics["qps"] = qps
	rep.metrics["p50_ms"] = p50
	rep.metrics["tail_ms"] = tail
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["peak_mem_mb"] = median(rss)
	return rep
}

var (
	cacheLine = regexp.MustCompile(`sim-cache: hits=(\d+) .*misses=(\d+)`)
	gcLine    = regexp.MustCompile(`(?m)^gc \d+ @\S+ \S+: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock`)
)

// childCounts parses a traced child's stderr: its simcache counters and
// its GC cycles and stop-the-world pause.
func childCounts(stderr []byte) (hits, misses, cycles, pauseMS float64, err error) {
	m := cacheLine.FindSubmatch(stderr)
	if m == nil {
		return 0, 0, 0, 0, fmt.Errorf("gables-repro -v printed no sim-cache line")
	}
	hits, _ = strconv.ParseFloat(string(m[1]), 64)
	misses, _ = strconv.ParseFloat(string(m[2]), 64)
	for _, g := range gcLine.FindAllSubmatch(stderr, -1) {
		a, _ := strconv.ParseFloat(string(g[1]), 64)
		b, _ := strconv.ParseFloat(string(g[2]), 64)
		cycles++
		pauseMS += a + b
	}
	return hits, misses, cycles, pauseMS, nil
}

// reproCounts returns the medians of traced children's simcache hits
// and misses, GC cycles and GC pause.
func reproCounts(runs []reproRun) (hits, misses, cycles, pauseMS float64, err error) {
	var hs, ms, cs, ps []float64
	for _, r := range runs {
		h, m, c, p, err := childCounts(r.stderr)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		hs, ms, cs, ps = append(hs, h), append(ms, m), append(cs, c), append(ps, p)
	}
	if len(runs) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no traced gables-repro run succeeded")
	}
	return median(hs), median(ms), median(cs), median(ps), nil
}

// traceRepro is repro's traced run: twice the timed window, alternating
// untraced processes with processes that report their simcache counters
// and GC cycles, then the probes.
func traceRepro(o options) report {
	setupRuns, err := reproSetup(o, 1)
	if err != nil {
		return report{err: err}
	}
	plain, traced := timedRepro(o, 2*o.window(), true, setupRuns[0].digest)
	rep := report{metrics: metricSet{}, attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	if len(plain.runs) == 0 {
		return report{err: fmt.Errorf("no untraced gables-repro run succeeded: %v", plain.firstErr)}
	}
	hits, misses, cycles, pause, err := reproCounts(traced.runs)
	if err != nil {
		return report{err: err}
	}
	rep.metrics["repro.simcache.hits"] = hits
	rep.metrics["repro.simcache.misses"] = misses
	rep.metrics["gc.cycles"] = cycles
	rep.metrics["gc.pause_ms"] = pause
	p50, tp50 := median(plain.ms()), median(traced.ms())
	rep.metrics["trace.overhead.qps_pct"] = 100 * (plain.qps() - traced.qps()) / plain.qps()
	rep.metrics["trace.overhead.p50_pct"] = 100 * (tp50 - p50) / p50
	fmt.Printf("tracing overhead: runs/s %.2f -> %.2f, p50 %.4gms -> %.4gms\n", plain.qps(), traced.qps(), p50, tp50)
	probe, err := runProbes(o, rep.metrics)
	if err != nil {
		return report{err: err}
	}
	rep.attempted += probe.attempted
	rep.failed += probe.failed
	counters := probe.counters
	counters.sim = cacheDelta{} // repro's simcache is the experiments pass's
	if err := setLayerMetrics(rep.metrics, &layerSamples{}, counters, probe); err != nil {
		return report{err: err}
	}
	if err := saveSpans(o, probe.spans); err != nil {
		return report{err: err}
	}
	return rep
}
