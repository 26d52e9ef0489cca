package main

import (
	"fmt"
	"math"
	"time"
)

// Client latencies go into fixed log-bucketed histograms rather than a
// growing sample list: the serving workloads run in the same process as
// the server, and a list of every latency would be most of the heap that
// peak_mem_mb reports and would change how often the server collects
// garbage.

const (
	histMin     = 1e-4 // ms: the lower edge of bucket 0
	histGrowth  = 1.01 // each bucket is 1% wider than the one before
	histBuckets = 2100 // up to about 120 s
)

var logGrowth = math.Log(histGrowth)

// hist counts latencies in milliseconds.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

func (h *hist) add(ms float64) {
	i := 0
	if ms > histMin {
		i = min(int(math.Log(ms/histMin)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// q returns the nearest-rank quantile as its bucket's geometric middle;
// NaN when empty.
func (h *hist) q(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	r := rank(h.n, q)
	seen := 0
	for i, c := range h.counts {
		if seen += int(c); seen >= r {
			return histMin * math.Exp((float64(i)+0.5)*logGrowth)
		}
	}
	return math.NaN()
}

// tail returns quantile q under the tail rule.
func (h *hist) tail(q float64) (float64, error) {
	if b := beyond(h.n, q); b < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minBeyond, b, h.n)
	}
	return h.q(q), nil
}

func (h *hist) describe(q float64) string {
	s := fmt.Sprintf("n=%d p50=%.4gms p%g=%.4gms", h.n, h.q(0.5), 100*q, h.q(q))
	if hq, ok := highestTail(h.n); ok {
		s += fmt.Sprintf(" (highest tail with >=%d beyond: p%g=%.4gms)", minBeyond, 100*hq, h.q(hq))
	}
	return s
}

// windows splits a timed phase into windows of length d by completion
// time, keeping a latency histogram and an answer count per window.
type windows struct {
	d       time.Duration
	hists   []*hist
	queries []float64
}

func newWindows(d time.Duration) *windows { return &windows{d: d} }

func (w *windows) add(at time.Duration, ms float64, queries int) {
	i := int(at / w.d)
	for len(w.hists) <= i {
		w.hists = append(w.hists, &hist{})
		w.queries = append(w.queries, 0)
	}
	w.hists[i].add(ms)
	w.queries[i] += float64(queries)
}

func (w *windows) merge(o *windows) {
	for i, h := range o.hists {
		for len(w.hists) <= i {
			w.hists = append(w.hists, &hist{})
			w.queries = append(w.queries, 0)
		}
		w.hists[i].merge(h)
		w.queries[i] += o.queries[i]
	}
}

// means returns the interquartile means, over the whole windows of a
// phase of the given length, of the answer rate, the median latency and
// the q tail latency. A phase shorter than one window is one window. A
// window of a stalled host may hold too few answers for the tail rule; it
// still counts for the rate, and the latencies come from the others, which
// must be at least half of the windows.
func (w *windows) means(elapsed time.Duration, q float64) (rate, p50, tail float64, err error) {
	n, d := int(elapsed/w.d), w.d
	if n < 1 {
		n, d = 1, elapsed
	}
	rates := make([]float64, n)
	var p50s, tails []float64
	for i := 0; i < n && i < len(w.hists); i++ {
		rates[i] = w.queries[i] / d.Seconds()
		if t, err := w.hists[i].tail(q); err == nil {
			p50s = append(p50s, w.hists[i].q(0.5))
			tails = append(tails, t)
		}
	}
	fmt.Printf("  %d windows of %v, answers/s: %.5g\n", n, d, rates)
	if 2*len(tails) < n {
		return 0, 0, 0, fmt.Errorf("only %d of %d windows hold enough answers for p%g", len(tails), n, 100*q)
	}
	return midMean(rates), midMean(p50s), midMean(tails), nil
}
