package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie beyond it, so one stray sample cannot set it.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// dist is a sorted sample.
type dist []float64

func newDist(values []float64) dist {
	d := append(dist(nil), values...)
	sort.Float64s(d)
	return d
}

// rank is the 1-based nearest-rank position of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above quantile q's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// highestTail returns the highest ladder percentile with at least
// minBeyond samples beyond it; false when even the median has fewer.
func highestTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			best, ok = q, true
		}
	}
	return best, ok
}

// q returns the nearest-rank quantile; NaN on an empty sample.
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d[rank(len(d), q)-1]
}

// tail returns quantile q, or an error when the sample is too small for
// the tail rule to allow it.
func (d dist) tail(q float64) (float64, error) {
	if b := beyond(len(d), q); b < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minBeyond, b, len(d))
	}
	return d.q(q), nil
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

func median(values []float64) float64 { return newDist(values).q(0.5) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// midMean is the mean of the middle half of the values (the interquartile
// mean): it averages over the host's slow and fast spells like a mean,
// but one stalled window cannot move it.
func midMean(values []float64) float64 {
	d := newDist(values)
	lo, hi := len(d)/4, len(d)-len(d)/4
	s := 0.0
	for _, v := range d[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}
