package eval

import (
	"context"
	"fmt"

	"github.com/gables-model/gables/internal/core"
)

// The grid fast path: sweeps and planners ask thousands of near-identical
// queries whose loop-invariant work (model derivation, validation
// plumbing, per-outcome allocation) dwarfs the per-cell arithmetic.
// BatchEvaluator lets a backend answer a whole query slab at once;
// EvaluateBatch is the call sites' one entry point, with a point-wise
// fallback so callers never need to know which backends implement the
// fast path. The contract is strict: batch answers must be bitwise
// identical to Evaluate on each query (pinned by
// TestAnalyticBatchMatchesEvaluateBitwise), so migrating a grid onto the
// batch path cannot change any artifact byte.

// BatchEvaluator is optionally implemented by Evaluators that can answer
// many queries in one planned pass over shared loop-invariant state.
type BatchEvaluator interface {
	Evaluator
	// EvaluateBatch answers qs[i] into out[i]; len(out) must equal
	// len(qs). Outcomes must be bitwise identical to Evaluate on each
	// query; on error the contents of out are unspecified. The IPs
	// slices of the produced outcomes may share one backing arena —
	// callers own out but must not grow the per-outcome slices.
	EvaluateBatch(ctx context.Context, qs []Query, out []Outcome) error
}

// EvaluateBatch answers qs into the caller-provided result arena out
// (len(out) == len(qs)), using ev's batch fast path when it implements
// BatchEvaluator and falling back to query-at-a-time Evaluate otherwise.
func EvaluateBatch(ctx context.Context, ev Evaluator, qs []Query, out []Outcome) error {
	if len(out) != len(qs) {
		return fmt.Errorf("eval: batch has %d queries but %d result slots", len(qs), len(out))
	}
	if b, ok := ev.(BatchEvaluator); ok {
		return b.EvaluateBatch(ctx, qs, out)
	}
	for i := range qs {
		o, err := ev.Evaluate(ctx, qs[i])
		if err != nil {
			return fmt.Errorf("eval: batch query %d: %w", i, err)
		}
		out[i] = *o
	}
	return nil
}

// EvaluateBatch implements BatchEvaluator: loop-invariant terms (model
// derivation in configured mode, the core batch evaluator's hoisted
// parameters, one IPOutcome arena for the whole slab) are computed once,
// and the per-cell inner loop runs allocation-free under the
// //gables:allocfree regime. Batch answers deliberately bypass the
// point-query outcome cache: a grid would churn the bounded LRU, and
// fingerprinting a cell costs more than the closed-form evaluation it
// would deduplicate.
func (a *Analytic) EvaluateBatch(ctx context.Context, qs []Query, out []Outcome) error {
	if len(out) != len(qs) {
		return fmt.Errorf("eval: batch has %d queries but %d result slots", len(qs), len(out))
	}
	if len(qs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	actives := 0
	for i := range qs {
		if err := qs[i].Validate(); err != nil {
			return fmt.Errorf("eval: batch query %d: %w", i, err)
		}
		if qs[i].Coordination {
			return fmt.Errorf("eval: batch query %d: analytic backend cannot represent coordination overhead", i)
		}
		if qs[i].Thermal {
			return fmt.Errorf("eval: batch query %d: analytic backend cannot represent thermal throttling", i)
		}
		for _, w := range qs[i].Work {
			if w.Words != 0 {
				actives++
			}
		}
	}
	arena := make([]IPOutcome, actives)
	cursor := 0

	if a.model != nil {
		return a.batchInjected(qs, out, arena)
	}

	// Configured mode derives the model from the chip, so the batch is
	// processed in maximal runs of queries whose derivation inputs are
	// identical (same chip value, same per-IP access patterns); a grid
	// built from one sim.Config is a single run. Queries that break the
	// run just re-derive — correctness never depends on the grouping.
	lo := 0
	for lo < len(qs) {
		hi := lo + 1
		for hi < len(qs) && sameDerivation(&qs[lo], &qs[hi]) {
			hi++
		}
		model, _, names := a.derive(qs[lo])
		be, err := model.Batch()
		if err != nil {
			return fmt.Errorf("eval: batch query %d: %w", lo, err)
		}
		nIP := be.IPs()
		cs := core.NewCells(nIP, hi-lo)
		res := core.NewCellResults(nIP, hi-lo)
		fillConfigured(qs, lo, hi, cs)
		if bad, ok := evalCells(qs, lo, hi, be, cs, res); !ok {
			return fmt.Errorf("eval: batch query %d: invalid derived work vector", bad)
		}
		cursor = emitOutcomes(qs, lo, hi, names, cs, res, arena, cursor, out)
		lo = hi
	}
	return nil
}

// batchInjected evaluates the slab on the injected calibrated model.
func (a *Analytic) batchInjected(qs []Query, out []Outcome, arena []IPOutcome) error {
	be, err := a.model.Batch()
	if err != nil {
		return err
	}
	nIP := be.IPs()
	cs := core.NewCells(nIP, len(qs))
	res := core.NewCellResults(nIP, len(qs))
	if bad, ok := a.fillInjected(qs, cs); !ok {
		name, _ := a.unknownModelIP(qs[bad])
		return fmt.Errorf("eval: batch query %d: analytic model has no IP %q", bad, name)
	}
	if bad, ok := evalCells(qs, 0, len(qs), be, cs, res); !ok {
		return fmt.Errorf("eval: batch query %d: invalid derived work vector", bad)
	}
	emitOutcomes(qs, 0, len(qs), a.ipNames, cs, res, arena, 0, out)
	return nil
}

// unknownModelIP reports the first active chip IP of q that the injected
// model does not cover (Supports' check, and the error-path mirror of
// fillInjected's scan).
func (a *Analytic) unknownModelIP(q Query) (string, bool) {
	for i, w := range q.Work {
		if w.Words == 0 {
			continue
		}
		if _, ok := a.index[q.Chip.IPs[i].Name]; !ok {
			return q.Chip.IPs[i].Name, true
		}
	}
	return "", false
}

// sameDerivation reports whether two queries share every input of
// Analytic.derive, using cheap identity checks (shared slice backing,
// equal scalars) rather than deep comparison: false negatives only cost
// a re-derivation.
func sameDerivation(a, b *Query) bool {
	if len(a.Work) != len(b.Work) || len(a.Chip.IPs) != len(b.Chip.IPs) || len(a.Chip.Fabrics) != len(b.Chip.Fabrics) {
		return false
	}
	//lint:ignore floatcmp identity grouping for an optimization, not a numeric comparison: unequal bits just re-derive the model
	if a.Chip.Name != b.Chip.Name || a.Chip.DRAMBandwidth != b.Chip.DRAMBandwidth {
		return false
	}
	if len(a.Chip.IPs) > 0 && &a.Chip.IPs[0] != &b.Chip.IPs[0] {
		return false
	}
	if len(a.Chip.Fabrics) > 0 && &a.Chip.Fabrics[0] != &b.Chip.Fabrics[0] {
		return false
	}
	for i := range a.Work {
		if a.Work[i].Pattern != b.Work[i].Pattern {
			return false
		}
	}
	return true
}

// fillConfigured fills one derivation run's work cells in chip IP order,
// replicating derive's fraction/intensity arithmetic exactly.
//
//gables:allocfree
func fillConfigured(qs []Query, lo, hi int, cs *core.Cells) {
	nIP := cs.IPs
	for qi := lo; qi < hi; qi++ {
		c := qi - lo
		total := qs[qi].TotalFlops()
		trials := float64(qs[qi].trials())
		for i := 0; i < nIP; i++ {
			w := qs[qi].Work[i]
			if w.Words == 0 {
				cs.Set(c, i, 0, 0)
				continue
			}
			flops := float64(w.Words) * float64(w.FlopsPerWord) * trials
			cs.Set(c, i, flops/total, float64(w.FlopsPerWord)/patternBytesPerWord(w.Pattern))
		}
	}
}

// fillInjected fills work cells in injected-model IP order, replicating
// modelWork's arithmetic; it returns the index of the first query naming
// a chip IP outside the model, and false.
//
//gables:allocfree
func (a *Analytic) fillInjected(qs []Query, cs *core.Cells) (int, bool) {
	nIP := cs.IPs
	for qi := range qs {
		total := qs[qi].TotalFlops()
		trials := float64(qs[qi].trials())
		for mi := 0; mi < nIP; mi++ {
			cs.Set(qi, mi, 0, 0)
		}
		for i := range qs[qi].Work {
			w := qs[qi].Work[i]
			if w.Words == 0 {
				continue
			}
			mi := -1
			for j := range a.ipNames {
				if a.ipNames[j] == qs[qi].Chip.IPs[i].Name {
					mi = j
					break
				}
			}
			if mi < 0 {
				return qi, false
			}
			flops := float64(w.Words) * float64(w.FlopsPerWord) * trials
			cs.Set(qi, mi, flops/total, float64(w.FlopsPerWord)/patternBytesPerWord(w.Pattern))
		}
	}
	return 0, true
}

// evalCells runs the core kernel over one slab, honoring each query's
// serialized flag; it returns the first invalid query index and false.
//
//gables:allocfree
func evalCells(qs []Query, lo, hi int, be *core.BatchEval, cs *core.Cells, res *core.CellResults) (int, bool) {
	for qi := lo; qi < hi; qi++ {
		if !be.EvaluateCell(cs, qi-lo, qs[qi].Serialized, res) {
			return qi, false
		}
	}
	return 0, true
}

// emitOutcomes converts one slab's cell results into Outcomes, writing
// per-IP detail into the shared arena. It replicates Analytic.evaluate's
// outcome construction term for term, so batch outcomes are bitwise
// identical to point outcomes. Returns the advanced arena cursor.
//
//gables:allocfree
func emitOutcomes(qs []Query, lo, hi int, names []string, cs *core.Cells, res *core.CellResults, arena []IPOutcome, cursor int, out []Outcome) int {
	nIP := res.IPs
	for qi := lo; qi < hi; qi++ {
		c := qi - lo
		total := qs[qi].TotalFlops()
		o := &out[qi]
		o.Backend = "analytic"
		o.Fidelity = FidelityAnalytic
		o.Attainable = res.Attainable[c]
		o.Makespan = 0
		o.TotalFlops = total
		o.Bottleneck = canonicalBottleneck(res.Bottleneck[c])
		o.TieRatio = 0
		o.DRAMUtilization = 0
		if res.Attainable[c] > 0 {
			o.Makespan = total / res.Attainable[c]
		}
		if res.SecondTime[c] > 0 && res.TopTime[c] > 0 {
			o.TieRatio = res.SecondTime[c] / res.TopTime[c]
		}
		start := cursor
		for mi := 0; mi < nIP; mi++ {
			f := cs.Fractions[c*nIP+mi]
			if f == 0 {
				continue
			}
			ip := &arena[cursor]
			cursor++
			ip.IP = names[mi]
			ip.Flops = f * total
			ip.Bytes = res.IPData[c*nIP+mi] * total
			ip.Time = res.IPTime[c*nIP+mi] * total
			ip.Rate = 0
			if ip.Time > 0 {
				ip.Rate = ip.Flops / ip.Time
			}
		}
		o.IPs = arena[start:cursor:cursor]
	}
	return cursor
}
