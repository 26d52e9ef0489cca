package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"html/template"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/web"
)

// servingWorkload is one of the two closed-loop serving mixes.
type servingWorkload interface {
	// prepare brings a fresh server to the steady state timing starts
	// from and returns the first timed request index; it is the
	// workload's set-up.
	prepare(c *client) (uint64, error)
	gen(i uint64) request
	// check verifies one timed answer cheaply on the client goroutine.
	check(i uint64, req request, status int, body []byte) error
	// verify checks answers against direct evaluator calls after the
	// timed phase, and returns the number of answers it checked.
	verify() (int, error)
	// digest hashes the float64 bits of the makespan and rate of a fixed
	// seeded set of answers.
	digest() (answers int, sum string)
}

// resetCaches empties every cache the serving path reads, so each set-up
// starts cold.
func resetCaches() {
	web.ResetCache()
	eval.ResetCache()
	simcache.ResetDefault()
}

// evalAnswer is the part of an /eval answer or a batch item the benchmark
// checks.
type evalAnswer struct {
	Backend     string        `json:"backend"`
	Fingerprint string        `json:"fingerprint"`
	Outcome     *eval.Outcome `json:"outcome"`
	Error       string        `json:"error"`
}

// decodeAnswers returns the answers of an /eval or /eval/batch body.
func decodeAnswers(k kind, body []byte) ([]evalAnswer, error) {
	if k == kindEval {
		var a evalAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return []evalAnswer{a}, nil
	}
	var b struct {
		Items []evalAnswer `json:"items"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	return b.Items, nil
}

// checkAnswer compares a served answer with a direct call of the named
// backend: same fingerprint and a bitwise-equal outcome (encoding/json
// writes float64s in their shortest exact form, so equal encodings are
// equal bits).
func checkAnswer(q question, a evalAnswer) error {
	if a.Error != "" || a.Outcome == nil {
		return fmt.Errorf("%s: served error %q", q.path(), a.Error)
	}
	query, err := q.query()
	if err != nil {
		return err
	}
	fp, err := eval.Fingerprint(query)
	if err != nil {
		return err
	}
	if a.Fingerprint != fp {
		return fmt.Errorf("%s: fingerprint %s, direct %s", q.path(), a.Fingerprint, fp)
	}
	ev, err := eval.Resolve(q.Backend)
	if err != nil {
		return err
	}
	direct, err := ev.Evaluate(context.Background(), query)
	if err != nil {
		return fmt.Errorf("%s: direct evaluation: %w", q.path(), err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		return err
	}
	got, err := json.Marshal(a.Outcome)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: served outcome %s, direct %s", q.path(), got, want)
	}
	return nil
}

// digester hashes outcome bits in a fixed order.
type digester struct {
	n int
	b []byte
}

func (d *digester) add(o *eval.Outcome) {
	d.b = binary.LittleEndian.AppendUint64(d.b, math.Float64bits(o.Makespan))
	d.b = binary.LittleEndian.AppendUint64(d.b, math.Float64bits(o.Attainable))
	d.n++
}

func (d *digester) sum() (int, string) {
	s := sha256.Sum256(d.b)
	return d.n, fmt.Sprintf("%x", s[:8])
}

// hot is serve_hot: every timed answer is a cache read.
type hot struct {
	mix      *hotMix
	expected [][]byte // served body per slot, recorded in the warm-up
}

func newHot(seed int64) *hot { return &hot{mix: newHotMix(seed)} }

func (h *hot) gen(i uint64) request { return h.mix.at(i) }

// prepare answers every slot once, so every question is resident in the
// eval outcome cache, the simcache and the page cache.
func (h *hot) prepare(c *client) (uint64, error) {
	h.expected = make([][]byte, len(h.mix.slots))
	var mu sync.Mutex
	st, _ := c.run(func(i uint64) request { return h.mix.slots[i] }, 0, uint64(len(h.mix.slots)), time.Time{},
		func(_ uint64, req request, _ int, body []byte) error {
			mu.Lock()
			h.expected[req.slot] = append([]byte(nil), body...)
			mu.Unlock()
			return nil
		})
	if st.failed > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d requests failed: %v", st.failed, st.attempted, st.firstErr)
	}
	return 0, nil
}

func (h *hot) check(_ uint64, req request, _ int, body []byte) error {
	if !bytes.Equal(body, h.expected[req.slot]) {
		return fmt.Errorf("%s: answer differs from the verified warm-up answer", req.path)
	}
	return nil
}

// verify checks every distinct question's served answer against a direct
// evaluator call, and every page against a direct model evaluation.
func (h *hot) verify() (int, error) {
	n := 0
	for _, req := range h.mix.slots {
		body := h.expected[req.slot]
		if req.kind == kindPage {
			if err := checkPage(req.path, body); err != nil {
				return n, err
			}
			n++
			continue
		}
		answers, err := decodeAnswers(req.kind, body)
		if err != nil {
			return n, fmt.Errorf("%s: %w", req.path, err)
		}
		if len(answers) != len(req.qs) {
			return n, fmt.Errorf("%s: %d answers for %d questions", req.path, len(answers), len(req.qs))
		}
		for k, q := range req.qs {
			if err := checkAnswer(q, answers[k]); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// checkPage finds the directly evaluated attainable performance in the
// served page.
func checkPage(path string, body []byte) error {
	p := web.DefaultParams()
	form := strings.TrimPrefix(path, "/?")
	for _, kv := range strings.Split(form, "&") {
		k, v, _ := strings.Cut(kv, "=")
		var dst *float64
		switch k {
		case "f":
			dst = &p.F
		case "i1":
			dst = &p.I1
		case "a":
			dst = &p.A
		default:
			return fmt.Errorf("%s: unknown form field %q", path, k)
		}
		if _, err := fmt.Sscan(v, dst); err != nil {
			return err
		}
	}
	ev, err := web.Evaluate(p)
	if err != nil {
		return err
	}
	want := "P<sub>attainable</sub> = <b>" + template.HTMLEscapeString(ev.Attainable) + "</b>"
	if !bytes.Contains(body, []byte(want)) {
		return fmt.Errorf("%s: page lacks %q", path, want)
	}
	return nil
}

func (h *hot) digest() (int, string) {
	var d digester
	for _, req := range h.mix.slots {
		if req.kind == kindPage {
			continue
		}
		answers, err := decodeAnswers(req.kind, h.expected[req.slot])
		if err != nil {
			continue // verify reports it
		}
		for _, a := range answers {
			if a.Outcome != nil {
				d.add(a.Outcome)
			}
		}
	}
	return d.sum()
}

// cold is serve_cold: every question is new, so every answer runs the
// simulator and writes the simcache, which is full before timing starts.
type cold struct {
	seed int64
	// fill is the number of set-up requests: enough queries to insert
	// twice the simcache's capacity.
	fill    uint64
	mu      sync.Mutex
	filled  []*eval.Outcome // set-up answers, by query order, for the digest
	samples []sampled
	taken   atomic.Int32
}

// sampled is one timed answer kept for re-computation.
type sampled struct {
	req  request
	body []byte
}

// Verification keeps about one timed answer in coldSampleEvery, at most
// coldSamples of them.
const (
	coldSampleEvery = 32
	coldSamples     = 64
)

func newCold(seed int64) *cold {
	c := &cold{seed: seed}
	queries := 0
	for queries < 2*simcache.DefaultCapacity {
		queries += coldAt(seed, c.fill).kind.queries()
		c.fill++
	}
	return c
}

func (c *cold) gen(i uint64) request { return coldAt(c.seed, i) }

func (c *cold) prepare(cl *client) (uint64, error) {
	c.filled = make([]*eval.Outcome, c.fill*batchSize)
	st, _ := cl.run(c.gen, 0, c.fill, time.Time{}, func(i uint64, req request, _ int, body []byte) error {
		answers, err := decodeAnswers(req.kind, body)
		if err != nil {
			return err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		for k, a := range answers {
			if a.Outcome == nil {
				return fmt.Errorf("%s: served error %q", req.path, a.Error)
			}
			c.filled[i*batchSize+uint64(k)] = a.Outcome
		}
		return nil
	})
	if st.failed > 0 {
		return 0, fmt.Errorf("fill: %d of %d requests failed: %v", st.failed, st.attempted, st.firstErr)
	}
	s, err := cl.stats()
	if err != nil {
		return 0, err
	}
	if s.Sim.Evictions == 0 {
		return 0, fmt.Errorf("fill: simcache did not reach capacity (%d entries, no evictions)", s.Sim.Entries)
	}
	return c.fill, nil
}

// check counts the outcomes of every timed answer and keeps a seeded
// sample of the answers for verify.
func (c *cold) check(i uint64, req request, _ int, body []byte) error {
	if n := bytes.Count(body, []byte(`"outcome"`)); n != req.kind.queries() {
		return fmt.Errorf("%s: %d outcomes in an answer to %d questions", req.path, n, req.kind.queries())
	}
	if newRNG(c.seed, streamSample, i).intn(coldSampleEvery) != 0 {
		return nil
	}
	if c.taken.Add(1) > coldSamples {
		return nil
	}
	c.mu.Lock()
	c.samples = append(c.samples, sampled{req: req, body: append([]byte(nil), body...)})
	c.mu.Unlock()
	return nil
}

// verify recomputes the sampled answers on a reset simcache.
func (c *cold) verify() (int, error) {
	simcache.ResetDefault()
	n := 0
	for _, s := range c.samples {
		answers, err := decodeAnswers(s.req.kind, s.body)
		if err != nil {
			return n, fmt.Errorf("%s: %w", s.req.path, err)
		}
		if len(answers) != len(s.req.qs) {
			return n, fmt.Errorf("%s: %d answers for %d questions", s.req.path, len(answers), len(s.req.qs))
		}
		for k, q := range s.req.qs {
			if err := checkAnswer(q, answers[k]); err != nil {
				return n, err
			}
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no timed answer was sampled for verification")
	}
	return n, nil
}

func (c *cold) digest() (int, string) {
	var d digester
	for _, o := range c.filled {
		if o != nil {
			d.add(o)
		}
	}
	return d.sum()
}
