package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/web"
)

// server is web.NewHandler with default Options on a loopback listener.
type server struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func startServer(rec *recorder) (*server, error) {
	h := web.NewHandler(web.Options{})
	if rec != nil {
		h = tracedHandler(h, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// client is the closed-loop load generator: clients goroutines, each
// sending its next request only after the previous answer, over at most
// clients connections.
type client struct {
	hc      *http.Client
	base    string
	clients int
	rec     *recorder // nil when untraced
	idBase  uint64    // added to request indices to form span ids
}

func newClient(base string, clients int, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, clients: clients, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer into buf.
func (c *client) do(req request, id uint64, buf *bytes.Buffer) (int, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if req.body != nil {
		method, body = http.MethodPost, bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(method, c.base+req.path, body)
	if err != nil {
		return 0, err
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if c.rec != nil {
		hr.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// checkFunc verifies one answer; it runs on the client goroutine.
type checkFunc func(i uint64, req request, status int, body []byte) error

// loopStats is one closed-loop phase.
type loopStats struct {
	byKind    [numKinds]hist // client latency per endpoint
	win       *windows       // client latency and answers per servingWindow
	queries   int            // answered queries: one per /eval, batch item or page
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func newLoopStats() *loopStats { return &loopStats{win: newWindows(servingWindow)} }

// merge adds o's requests to s; elapsed times add up. Windows merge by
// index, so only phases that share a start have meaningful windows.
func (s *loopStats) merge(o *loopStats) {
	for k := range o.byKind {
		s.byKind[k].merge(&o.byKind[k])
	}
	s.win.merge(o.win)
	s.queries += o.queries
	s.attempted += o.attempted
	s.failed += o.failed
	s.elapsed += o.elapsed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *loopStats) qps() float64 { return float64(s.queries) / s.elapsed.Seconds() }

// all pools the latencies of every endpoint.
func (s *loopStats) all() *hist {
	var h hist
	for k := range s.byKind {
		h.merge(&s.byKind[k])
	}
	return &h
}

// run drives the closed loop over requests gen(next), gen(next+1), ...
// until the deadline passes or, with a zero deadline, until limit
// requests have been sent. It returns the index after the last request.
func (c *client) run(gen func(uint64) request, next uint64, limit uint64, deadline time.Time, check checkFunc) (*loopStats, uint64) {
	var (
		counter = next
		mu      sync.Mutex
		total   = newLoopStats()
		wg      sync.WaitGroup
		start   = time.Now()
	)
	claim := func() (uint64, bool) {
		if deadline.IsZero() {
			i := atomic.AddUint64(&counter, 1) - 1
			return i, i < next+limit
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		return atomic.AddUint64(&counter, 1) - 1, true
	}
	for w := 0; w < c.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newLoopStats()
			var buf bytes.Buffer
			for {
				i, ok := claim()
				if !ok {
					break
				}
				req := gen(i)
				t0 := time.Now()
				status, err := c.do(req, c.idBase+i+1, &buf)
				t1 := time.Now()
				if c.rec != nil {
					c.rec.add(span{id: c.idBase + i + 1, layer: layerClient, kind: req.kind, start: c.rec.since(t0), end: c.rec.since(t1)})
				}
				local.attempted++
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: status %d: %.200s", req.path, status, buf.Bytes())
				}
				if err == nil && check != nil {
					err = check(i, req, status, buf.Bytes())
				}
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = err
					}
					continue
				}
				ms := millis(t1.Sub(t0))
				local.byKind[req.kind].add(ms)
				local.win.add(t1.Sub(start), ms, req.kind.queries())
				local.queries += req.kind.queries()
			}
			mu.Lock()
			total.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total, atomic.LoadUint64(&counter)
}

// serverStats is the slice of /stats the benchmark reads.
type serverStats struct {
	Web       simcache.Stats `json:"web_eval"`
	Sim       simcache.Stats `json:"sim_runs"`
	Eval      simcache.Stats `json:"eval_outcomes"`
	Admission struct {
		Queued int64 `json:"queued"`
		Shed   int64 `json:"shed"`
	} `json:"admission"`
}

func (c *client) stats() (serverStats, error) {
	var s serverStats
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// cacheDelta is the change of one cache's counters over a phase.
type cacheDelta struct{ hits, misses, coalesced, evictions int64 }

func deltaOf(after, before simcache.Stats) cacheDelta {
	return cacheDelta{
		hits:      after.Hits - before.Hits,
		misses:    after.Misses - before.Misses,
		coalesced: after.Coalesced - before.Coalesced,
		evictions: after.Evictions - before.Evictions,
	}
}

func (d cacheDelta) lookups() int64 { return d.hits + d.misses + d.coalesced }

// hitRatio counts coalesced lookups as hits: neither computes.
func (d cacheDelta) hitRatio() float64 {
	return float64(d.hits+d.coalesced) / float64(d.lookups())
}

// memSampler samples the in-use heap every memPeriod. The reported peak
// is the p99 of the samples: the maximum of a sawtooth sampled at random
// phases grows with the run's length and jumps between runs, while its
// p99 repeats to within a few percent.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

const memPeriod = 2 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		m.samples = append(m.samples, float64(sample[0].Value.Uint64())/(1<<20))
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(memPeriod)
		defer t.Stop()
		for {
			read()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the p99 heap in MB.
func (m *memSampler) finish() (float64, error) {
	close(m.stop)
	<-m.done
	return newDist(m.samples).tail(0.99)
}

// gcCounts reads the cumulative GC cycle count and pause time.
func gcCounts() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}
