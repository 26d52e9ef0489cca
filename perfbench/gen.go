package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

// Every input derives from the seed through splitmix64 keyed by (stream,
// index), so request i is the same whatever order clients claim indices
// in, and a workload can draw as many requests as its time allows.

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type rng struct{ s uint64 }

// Independent streams of the seed.
const (
	streamHotKind uint64 = iota + 1
	streamHotBatch
	streamColdKind
	streamColdEval
	streamColdItem
	streamSample
)

func newRNG(seed int64, stream, i uint64) *rng {
	return &rng{s: mix64(uint64(seed) ^ mix64(stream<<48^i))}
}

func (r *rng) next() uint64 { r.s += 0x9e3779b97f4a7c15; return mix64(r.s) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// question is one /eval question in the endpoint's own terms.
type question struct {
	Chip    string  // preset name as /eval takes it ("" = snapdragon835)
	F       float64 // GPU work fraction; the CPU takes the rest
	FPW     int     // flops per word
	Words   int     // total words; 0 leaves the endpoint default
	Backend string
}

// defaultWords is the /eval default total word count.
const defaultWords = 4 << 20

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func (q question) params() string {
	s := "backend=" + q.Backend + "&chip=" + q.Chip + "&f=" + fmtFloat(q.F) + "&fpw=" + strconv.Itoa(q.FPW)
	if q.Words > 0 {
		s += "&words=" + strconv.Itoa(q.Words)
	}
	return s
}

func (q question) path() string { return "/eval?" + q.params() }

func (q question) batchItem() string {
	s := fmt.Sprintf(`{"backend":%q,"chip":%q,"f":%s,"fpw":%d`, q.Backend, q.Chip, fmtFloat(q.F), q.FPW)
	if q.Words > 0 {
		s += `,"words":` + strconv.Itoa(q.Words)
	}
	return s + "}"
}

func batchBody(qs []question) []byte {
	items := make([]string, len(qs))
	for i, q := range qs {
		items[i] = q.batchItem()
	}
	return []byte(`{"items":[` + strings.Join(items, ",") + `]}`)
}

func chipConfig(name string) (sim.Config, error) {
	switch name {
	case "", "snapdragon835":
		return sim.Snapdragon835(), nil
	case "snapdragon821":
		return sim.Snapdragon821(), nil
	case "snapdragon835x":
		return sim.Snapdragon835Extended(), nil
	}
	return sim.Config{}, fmt.Errorf("unknown chip %q", name)
}

// query builds the eval.Query the endpoint answers for q, so a direct
// evaluator call can check the served answer.
func (q question) query() (eval.Query, error) {
	cfg, err := chipConfig(q.Chip)
	if err != nil {
		return eval.Query{}, err
	}
	words := q.Words
	if words == 0 {
		words = defaultWords
	}
	work, err := eval.SplitWork(cfg, words, q.FPW, kernel.ReadWrite,
		[]eval.Share{{IP: "GPU", Fraction: q.F}, {IP: "CPU", Fraction: 1 - q.F}})
	if err != nil {
		return eval.Query{}, err
	}
	return eval.Query{Chip: cfg, Work: work, Trials: eval.DefaultTrials}, nil
}

// kind is a request's endpoint.
type kind int

const (
	kindEval kind = iota
	kindBatch
	kindPage
	numKinds
)

var kindNames = [numKinds]string{"eval", "batch", "page"}

// batchSize is the item count of every batch request.
const batchSize = 16

// request is one HTTP request of a workload.
type request struct {
	kind kind
	path string
	body []byte // POST body for batches
	// slot indexes the hot mix's expected answers; -1 on serve_cold.
	slot int
	// qs are the questions the request asks (none for pages).
	qs []question
}

// queries counts the answers a request of kind k returns.
func (k kind) queries() int {
	if k == kindBatch {
		return batchSize
	}
	return 1
}

// hotMix is serve_hot's finite question set: the gables-load grid of 3
// chips x 9 GPU fractions x 3 fpw, each asked of both backends, a seeded
// pool of 16-item batches over it, and a small grid of HTML form pages.
type hotMix struct {
	seed           int64
	slots          []request // eval slots, then batch slots, then page slots
	evals, batches int
}

// Hot-mix shares: 70% /eval, 20% /eval/batch, 10% pages.
const (
	hotBatchShare = 0.2
	hotPageShare  = 0.1
	hotBatchPool  = 32
)

var (
	gridChips = []string{"", "snapdragon821", "snapdragon835x"}
	gridFPW   = []int{32, 128, 512}
	backends  = []string{"analytic", "sim"}
)

// hotPages is the form grid of the "/" page: work fraction f x IP[1]
// intensity x accelerator speed-up A1.
func hotPages() []string {
	var out []string
	for _, f := range []string{"0.25", "0.5", "0.75"} {
		for _, i1 := range []string{"0.1", "1"} {
			for _, a := range []string{"2", "5"} {
				out = append(out, "/?f="+f+"&i1="+i1+"&a="+a)
			}
		}
	}
	return out
}

func newHotMix(seed int64) *hotMix {
	m := &hotMix{seed: seed}
	var grid []question
	for _, chip := range gridChips {
		for f := 1; f <= 9; f++ {
			for _, fpw := range gridFPW {
				for _, b := range backends {
					grid = append(grid, question{Chip: chip, F: float64(f) / 10, FPW: fpw, Backend: b})
				}
			}
		}
	}
	for _, q := range grid {
		m.slots = append(m.slots, request{kind: kindEval, path: q.path(), slot: len(m.slots), qs: []question{q}})
	}
	m.evals = len(m.slots)
	for b := 0; b < hotBatchPool; b++ {
		r := newRNG(seed, streamHotBatch, uint64(b))
		qs := make([]question, batchSize)
		for k := range qs {
			qs[k] = grid[r.intn(len(grid))]
		}
		m.slots = append(m.slots, request{kind: kindBatch, path: "/eval/batch", body: batchBody(qs), slot: len(m.slots), qs: qs})
	}
	m.batches = hotBatchPool
	for _, p := range hotPages() {
		m.slots = append(m.slots, request{kind: kindPage, path: p, slot: len(m.slots)})
	}
	return m
}

// at returns the i-th request of the timed sequence.
func (m *hotMix) at(i uint64) request {
	r := newRNG(m.seed, streamHotKind, i)
	u := r.float()
	switch {
	case u < hotPageShare:
		return m.slots[m.evals+m.batches+r.intn(len(m.slots)-m.evals-m.batches)]
	case u < hotPageShare+hotBatchShare:
		return m.slots[m.evals+r.intn(m.batches)]
	default:
		return m.slots[r.intn(m.evals)]
	}
}

// coldBatchShare is serve_cold's share of 16-item batches.
const coldBatchShare = 0.2

// coldQuestion draws a question no other index of the seed asks (up to
// a negligible collision chance): a continuous GPU fraction, fpw 1-512,
// 64 Ki-4 Mi words (log-uniform) on one of the three chips.
func coldQuestion(seed int64, stream, i uint64) question {
	r := newRNG(seed, stream, i)
	return question{
		Chip:    gridChips[r.intn(len(gridChips))],
		F:       0.02 + 0.96*r.float(),
		FPW:     1 + r.intn(512),
		Words:   int(float64(64<<10) * math.Exp2(6*r.float())),
		Backend: "sim",
	}
}

// coldAt returns serve_cold's i-th request.
func coldAt(seed int64, i uint64) request {
	if newRNG(seed, streamColdKind, i).float() < coldBatchShare {
		qs := make([]question, batchSize)
		for k := range qs {
			qs[k] = coldQuestion(seed, streamColdItem, i*batchSize+uint64(k))
		}
		return request{kind: kindBatch, path: "/eval/batch", body: batchBody(qs), slot: -1, qs: qs}
	}
	q := coldQuestion(seed, streamColdEval, i)
	return request{kind: kindEval, path: q.path(), slot: -1, qs: []question{q}}
}
