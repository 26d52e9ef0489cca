package eval

import (
	"context"
	"fmt"
	"math"

	"github.com/gables-model/gables/internal/core"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
	"github.com/gables-model/gables/internal/units"
)

// Analytic answers queries with the closed-form Gables model. Two
// construction modes:
//
//   - NewAnalytic derives a core.SoC from the chip's configured
//     parameters per query: Ppeak and Ai from the IP compute rates, Bi
//     from each link's bandwidth derated for the query's access pattern
//     (writes cost WritePenalty×), Bpeak from the DRAM controller, and
//     one §V-B bus per fabric.
//   - NewAnalyticModel wraps an injected fitted or calibrated core.Model
//     (one assembled by erb.DeriveGables from measured rooflines, or the
//     surrogate backend's fit) whose IPs are matched to chip IPs by name.
//     It is the one point-by-point evaluator of such models.
//
// Configured-mode outcomes are memoized in the package outcome cache,
// keyed by the query fingerprint. Injected-mode outcomes are computed on
// every call: the fingerprint does not cover the model, and the
// closed-form answer costs less than keying it would.
type Analytic struct {
	model   *core.Model
	ipNames []string       // model IP index → chip IP name (injected mode)
	index   map[string]int // chip IP name → model IP index (injected mode)
}

// NewAnalytic returns the configured-parameter analytic backend.
func NewAnalytic() *Analytic { return &Analytic{} }

// NewAnalyticModel returns an analytic backend that evaluates queries on
// the injected model. ipNames maps each model IP index to the chip IP
// name it represents; queries that put work on chip IPs outside this set
// are unsupported.
func NewAnalyticModel(m *core.Model, ipNames []string) (*Analytic, error) {
	if m == nil || m.SoC == nil {
		return nil, fmt.Errorf("eval: analytic needs a model")
	}
	if len(ipNames) != len(m.SoC.IPs) {
		return nil, fmt.Errorf("eval: model has %d IPs but %d names given", len(m.SoC.IPs), len(ipNames))
	}
	index := make(map[string]int, len(ipNames))
	for i, name := range ipNames {
		index[name] = i
	}
	return &Analytic{model: m, ipNames: ipNames, index: index}, nil
}

// Meta implements Evaluator.
func (a *Analytic) Meta() Meta {
	return Meta{
		Name:        "analytic",
		Fidelity:    FidelityAnalytic,
		Description: "closed-form Gables roofline model (§III, §V-C)",
	}
}

// Supports implements Evaluator: the closed-form model cannot represent
// host coordination overhead or thermal throttling, and the injected-model
// mode additionally requires every active chip IP to exist in the model.
func (a *Analytic) Supports(q Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.Coordination {
		return fmt.Errorf("eval: analytic backend cannot represent coordination overhead")
	}
	if q.Thermal {
		return fmt.Errorf("eval: analytic backend cannot represent thermal throttling")
	}
	if a.model != nil {
		if name, ok := a.unknownModelIP(q); ok {
			return fmt.Errorf("eval: analytic model has no IP %q", name)
		}
	}
	return nil
}

// patternBytesPerWord is the DRAM bytes one array word moves per trial
// under each kernel pattern — the denominator of the I = FlopsPerWord/bpw
// intensity convention shared with internal/kernel.
func patternBytesPerWord(p kernel.Pattern) float64 {
	if p == kernel.ReadOnly {
		return 4
	}
	return 8 // ReadWrite and StreamCopy: read + write every word
}

// effectiveLink derates a configured link bandwidth for a pattern's write
// share: the substrate charges written bytes WritePenalty× on the link,
// so moving r+w bytes takes (r+p·w)/B seconds.
func effectiveLink(spec sim.IPSpec, p kernel.Pattern) float64 {
	if p == kernel.ReadOnly || spec.WritePenalty <= 1 {
		return spec.LinkBandwidth
	}
	return spec.LinkBandwidth * 2 / (1 + spec.WritePenalty)
}

// modelWork maps the query's active work onto the injected model's IP
// indices, returning a usecase work vector in model order. Supports has
// already checked that the model covers every active chip IP.
func (a *Analytic) modelWork(q Query) []core.Work {
	work := make([]core.Work, len(a.ipNames))
	total := q.TotalFlops()
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		mi := a.index[q.Chip.IPs[i].Name]
		flops := float64(w.Words) * float64(w.FlopsPerWord) * float64(q.trials())
		work[mi] = core.Work{
			Fraction:  flops / total,
			Intensity: units.Intensity(float64(w.FlopsPerWord) / patternBytesPerWord(w.Pattern)),
		}
	}
	return work
}

// derive builds the per-query model from the chip's configured
// parameters, plus the work vector in chip IP order.
func (a *Analytic) derive(q Query) (*core.Model, []core.Work, []string) {
	ref := q.Chip.IPs[0]
	s := &core.SoC{
		Name:            q.Chip.Name + "-analytic",
		Peak:            units.OpsPerSec(ref.ComputeRate),
		MemoryBandwidth: units.BytesPerSec(q.Chip.DRAMBandwidth),
		IPs:             make([]core.IP, len(q.Chip.IPs)),
	}
	names := make([]string, len(q.Chip.IPs))
	for i, spec := range q.Chip.IPs {
		names[i] = spec.Name
		s.IPs[i] = core.IP{
			Name:         spec.Name,
			Acceleration: spec.ComputeRate / ref.ComputeRate,
			Bandwidth:    units.BytesPerSec(effectiveLink(spec, q.Work[i].Pattern)),
		}
	}
	// One §V-B bus per fabric: an IP uses every fabric on its path to
	// the memory controller.
	var buses []core.Bus
	parent := make(map[string]string, len(q.Chip.Fabrics))
	for _, f := range q.Chip.Fabrics {
		parent[f.Name] = f.Parent
	}
	for _, f := range q.Chip.Fabrics {
		bus := core.Bus{Name: f.Name, Bandwidth: units.BytesPerSec(f.Bandwidth)}
		for i, spec := range q.Chip.IPs {
			for fab := spec.Fabric; fab != ""; fab = parent[fab] {
				if fab == f.Name {
					bus.Users = append(bus.Users, i)
					break
				}
			}
		}
		if len(bus.Users) > 0 {
			buses = append(buses, bus)
		}
	}
	m := &core.Model{SoC: s, Buses: buses}
	total := q.TotalFlops()
	work := make([]core.Work, len(q.Chip.IPs))
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		flops := float64(w.Words) * float64(w.FlopsPerWord) * float64(q.trials())
		work[i] = core.Work{
			Fraction:  flops / total,
			Intensity: units.Intensity(float64(w.FlopsPerWord) / patternBytesPerWord(w.Pattern)),
		}
	}
	return m, work, names
}

// Evaluate implements Evaluator.
func (a *Analytic) Evaluate(ctx context.Context, q Query) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := a.Supports(q); err != nil {
		return nil, err
	}
	if a.model != nil {
		return a.evaluate(q)
	}
	key, err := Fingerprint(q)
	if err != nil {
		return nil, err
	}
	o, err := outcomes.Get(key, func() (*Outcome, error) { return a.evaluate(q) })
	if err != nil {
		return nil, err
	}
	return o.Clone(), nil
}

func (a *Analytic) evaluate(q Query) (*Outcome, error) {
	model, work, names := a.model, []core.Work(nil), a.ipNames
	if model == nil {
		model, work, names = a.derive(q)
	} else {
		work = a.modelWork(q)
	}
	// TotalOps stays unset: Attainable is scale-invariant and the
	// unit-work normalization keeps results bitwise identical to the
	// historical direct model evaluations; Makespan is rescaled below.
	u := &core.Usecase{Name: "eval-query", Work: work}
	var res *core.Result
	var err error
	if q.Serialized {
		res, err = model.EvaluateSerialized(u)
	} else {
		res, err = model.Evaluate(u)
	}
	if err != nil {
		return nil, err
	}
	total := q.TotalFlops()
	o := &Outcome{
		Backend:    "analytic",
		Fidelity:   FidelityAnalytic,
		Attainable: float64(res.Attainable),
		TotalFlops: total,
		Bottleneck: canonicalBottleneck(res.Bottleneck),
	}
	if res.Attainable > 0 {
		o.Makespan = total / float64(res.Attainable)
	}
	o.TieRatio = tieRatio(res)
	// Per-IP detail for the active model IPs, reported under chip IP
	// names, scaled from the unit-work breakdown to the query's total.
	for mi, br := range res.IPs {
		if u.Work[mi].Fraction == 0 {
			continue
		}
		ip := IPOutcome{
			IP:    names[mi],
			Flops: u.Work[mi].Fraction * total,
			Bytes: float64(br.Data) * total,
			Time:  float64(br.Time) * total,
		}
		if ip.Time > 0 {
			ip.Rate = ip.Flops / ip.Time
		}
		o.IPs = append(o.IPs, ip)
	}
	return o, nil
}

// canonicalBottleneck translates a core.Component into the cross-backend
// vocabulary.
func canonicalBottleneck(c core.Component) Bottleneck {
	switch c.Kind {
	case "memory":
		return Bottleneck{Kind: "memory", Name: "DRAM"}
	case "bus":
		return Bottleneck{Kind: "bus", Name: c.Name}
	default:
		return Bottleneck{Kind: "IP", Name: c.Name}
	}
}

// tieRatio measures how contested the analytic bottleneck is: the
// second-largest constraint time over the largest, across per-IP times,
// the memory term, and any bus terms. 1 means an exact tie; 0 means a
// single constraint.
func tieRatio(res *core.Result) float64 {
	var times []float64
	for _, br := range res.IPs {
		if br.Time > 0 {
			times = append(times, float64(br.Time))
		}
	}
	if res.MemoryTime > 0 {
		times = append(times, float64(res.MemoryTime))
	}
	for _, bt := range res.BusTimes {
		if bt > 0 {
			times = append(times, float64(bt))
		}
	}
	if len(times) < 2 {
		return 0
	}
	first, second := math.Inf(-1), math.Inf(-1)
	for _, t := range times {
		if t > first {
			first, second = t, first
		} else if t > second {
			second = t
		}
	}
	if first <= 0 {
		return 0
	}
	return second / first
}

// outcomes memoizes configured-mode analytic outcomes by query
// fingerprint (the sim backend's memoization happens one level down, in
// simcache.Run, where raw results are shared with the measurement
// harnesses).
var outcomes = simcache.New[*Outcome](simcache.Options{Capacity: 2048})

// CacheStats snapshots the analytic outcome cache's counters.
func CacheStats() simcache.Stats { return outcomes.Stats() }

// ResetCache clears the analytic outcome cache; tests and benchmarks use
// it for isolation.
func ResetCache() { outcomes.Reset() }
