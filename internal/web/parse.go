package web

import (
	"fmt"
	"math"
	"strconv"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

// The one validated numeric parser. PR 5 guarded the HTML form pages
// against non-finite input (strconv.ParseFloat happily accepts "NaN" and
// "Inf", and NaN then slips through every range check because NaN
// comparisons are false); the /eval JSON API grew its own local parser
// without the guard, so ?f=NaN bypassed the fGPU+fDSP > 1 check and
// reached SplitWork. Both surfaces now route through parseFinite /
// parsePositiveInt here: the HTML pages fall back to defaults and report a
// FormError, the JSON endpoints return a 400 naming the field — but the
// acceptance rules are one implementation.

// fieldError rejects one named input; both surfaces render it their way.
type fieldError struct {
	Field  string // input name ("f", "words", ...)
	Value  string // what was submitted
	Reason string // why it was rejected
}

func (e *fieldError) Error() string {
	return fmt.Sprintf("%s=%q %s", e.Field, e.Value, e.Reason)
}

// parseFinite parses a finite float64, rejecting NaN and ±Inf at the
// boundary so no downstream range check has to reason about them.
func parseFinite(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, &fieldError{Field: name, Value: v, Reason: "not a number"}
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, &fieldError{Field: name, Value: v, Reason: "must be a finite number"}
	}
	return f, nil
}

// parsePositiveInt parses a strictly positive integer: the /eval sizing
// fields (words, fpw, trials) are counts where zero and negative values
// are never meaningful — words=0 would ask an empty question and
// trials=-1 would underflow the per-kernel loop.
func parsePositiveInt(name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, &fieldError{Field: name, Value: v, Reason: "not an integer"}
	}
	if n <= 0 {
		return 0, &fieldError{Field: name, Value: v, Reason: "must be positive"}
	}
	return n, nil
}

// evalQuerySpec is the surface-independent /eval question: the GET query
// string and the batch JSON items both decode into it, so validation and
// query construction live in exactly one place.
type evalQuerySpec struct {
	Chip       string
	F          float64 // GPU work fraction, the Figure 6 x-axis
	DSP        float64 // DSP work fraction (0 = two-IP shape)
	FPW        int     // flops per word (operational intensity knob)
	Words      int     // total array words split across the IPs
	Trials     int     // per-kernel trial count
	Serialized bool    // §V-C exclusive-work form
}

// defaultEvalSpec returns the defaults shared by every /eval surface,
// mirroring the §IV-C harness shape.
func defaultEvalSpec() evalQuerySpec {
	return evalQuerySpec{F: 0.5, FPW: 32, Words: 4 << 20, Trials: eval.DefaultTrials}
}

// buildQuery validates the spec and realizes it as the canonical
// eval.Query, keyed once here for every later layer (eval.Keyed). It
// refuses a question whose simulation could not finish within
// sim.DefaultMaxEvents before anything is built, naming words when one
// trial is already over that budget and trials otherwise; the analytic
// backend refuses it too, so both backends accept the same questions.
func (s evalQuerySpec) buildQuery() (eval.Query, error) {
	q, err := s.query()
	if err != nil {
		return eval.Query{}, err
	}
	if n := q.MinEvents(); n > sim.DefaultMaxEvents {
		field, value := "trials", s.Trials
		one := q
		one.Trials = 1
		if one.MinEvents() > sim.DefaultMaxEvents {
			field, value = "words", s.Words
		}
		return eval.Query{}, &fieldError{Field: field, Value: strconv.Itoa(value),
			Reason: fmt.Sprintf("needs at least %d simulated events, over the %d-event budget", n, sim.DefaultMaxEvents)}
	}
	return eval.Keyed(q), nil
}

// query validates the spec and builds the unkeyed eval.Query: a
// CPU/GPU(/DSP) work split on a preset chip.
func (s evalQuerySpec) query() (eval.Query, error) {
	cfg, err := evalChip(s.Chip)
	if err != nil {
		return eval.Query{}, err
	}
	if s.FPW <= 0 {
		return eval.Query{}, fmt.Errorf("fpw must be positive, got %d", s.FPW)
	}
	if s.Words <= 0 {
		return eval.Query{}, fmt.Errorf("words must be positive, got %d", s.Words)
	}
	if s.Words > math.MaxInt/kernel.WordSize {
		return eval.Query{}, &fieldError{Field: "words", Value: strconv.Itoa(s.Words), Reason: "overflows the byte count"}
	}
	if s.Trials <= 0 {
		return eval.Query{}, fmt.Errorf("trials must be positive, got %d", s.Trials)
	}
	if s.F < 0 || s.DSP < 0 || s.F+s.DSP > 1 {
		return eval.Query{}, fmt.Errorf("fractions f=%v dsp=%v must be non-negative and sum to at most 1", s.F, s.DSP)
	}

	shares := []eval.Share{{IP: "GPU", Fraction: s.F}}
	if s.DSP > 0 {
		shares = append(shares, eval.Share{IP: "DSP", Fraction: s.DSP})
	}
	// The CPU is last: it absorbs the integer remainder, like the
	// harnesses' historical arithmetic.
	shares = append(shares, eval.Share{IP: "CPU", Fraction: 1 - s.F - s.DSP})
	work, err := eval.SplitWork(cfg, s.Words, s.FPW, kernel.ReadWrite, shares)
	if err != nil {
		return eval.Query{}, err
	}
	return eval.Query{
		Chip:       cfg,
		Work:       work,
		Trials:     s.Trials,
		Serialized: s.Serialized,
	}, nil
}
