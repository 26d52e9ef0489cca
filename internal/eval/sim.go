package eval

import (
	"context"
	"fmt"

	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/simcache"
)

// DRAMBoundUtilization is the measured DRAM busy fraction above which the
// sim backend attributes a run's bottleneck to the memory interface
// rather than the slowest IP.
const DRAMBoundUtilization = 0.95

// Sim answers queries by measuring the discrete-event substrate — the
// repository's stand-in for the paper's §IV silicon runs. Every execution
// goes through simcache.Run, which is both the single result-cache
// integration (raw RunResults are shared with the erb harnesses and
// experiment suites, since the query fingerprint delegates to
// sim.Fingerprint) and the single trace.Probe attachment point (a probe
// factory installed via simcache.SetProbeFactory observes eval-driven
// runs exactly like harness-driven ones, bypassing the cache both ways).
type Sim struct{}

// NewSim returns the measurement backend.
func NewSim() *Sim { return &Sim{} }

// Meta implements Evaluator.
func (s *Sim) Meta() Meta {
	return Meta{
		Name:        "sim",
		Fidelity:    FidelitySimulation,
		Description: "discrete-event SoC measurement (§IV substrate)",
	}
}

// Supports implements Evaluator: the substrate represents every query
// semantic, so only malformed queries are rejected.
func (s *Sim) Supports(q Query) error { return q.Validate() }

// Evaluate implements Evaluator. Concurrent queries run all assignments
// together; serialized queries (§V-C) run each active IP's assignment in
// its own exclusive run and sum the makespans.
func (s *Sim) Evaluate(ctx context.Context, q Query) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !q.Serialized && q.key != nil {
		// The carried run key answers a hit without realizing the
		// assignments.
		res, err := simcache.RunKeyed(q.Chip, q.key.run, q.realize)
		if err != nil {
			return nil, err
		}
		return simOutcome(res), nil
	}
	as, opt, err := q.realize()
	if err != nil {
		return nil, err
	}
	if !q.Serialized {
		res, err := simcache.Run(q.Chip, as, opt)
		if err != nil {
			return nil, err
		}
		return simOutcome(res), nil
	}

	// Serialized: one exclusive run per active IP; the usecase time is
	// the sum of per-IP makespans (Equations 18–19 measured rather than
	// computed).
	o := &Outcome{Backend: "sim", Fidelity: FidelitySimulation}
	slowest := -1
	var worstUtil float64
	for _, a := range as {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := simcache.Run(q.Chip, []sim.Assignment{a}, opt)
		if err != nil {
			return nil, err
		}
		if len(res.IPs) != 1 {
			return nil, fmt.Errorf("eval: serialized run on %q returned %d IP results", a.IP, len(res.IPs))
		}
		ipr := res.IPs[0]
		o.TotalFlops += res.TotalFlops
		o.Makespan += res.Makespan
		o.IPs = append(o.IPs, IPOutcome{
			IP: ipr.IP, Flops: ipr.Flops, Bytes: ipr.Bytes, Time: res.Makespan, Rate: ipr.Rate,
		})
		if slowest < 0 || res.Makespan > o.IPs[slowest].Time {
			slowest = len(o.IPs) - 1
			worstUtil = res.DRAMUtilization
		}
	}
	if o.Makespan > 0 {
		o.Attainable = o.TotalFlops / o.Makespan
	}
	o.DRAMUtilization = worstUtil
	// Attribution mirrors the analytic §V-C form: the slowest exclusive
	// phase limits the usecase.
	if slowest >= 0 {
		o.Bottleneck = Bottleneck{Kind: "IP", Name: o.IPs[slowest].IP}
	}
	return o, nil
}

// simOutcome translates a measured concurrent run into the canonical
// outcome: the bottleneck is the memory interface when the DRAM
// controller was effectively saturated (≥ DRAMBoundUtilization busy),
// otherwise the last-finishing IP.
func simOutcome(res *sim.RunResult) *Outcome {
	o := &Outcome{
		Backend:         "sim",
		Fidelity:        FidelitySimulation,
		Attainable:      res.Rate,
		Makespan:        res.Makespan,
		TotalFlops:      res.TotalFlops,
		DRAMUtilization: res.DRAMUtilization,
	}
	slowest := -1
	for i, ipr := range res.IPs {
		o.IPs = append(o.IPs, IPOutcome{
			IP: ipr.IP, Flops: ipr.Flops, Bytes: ipr.Bytes, Time: ipr.Time, Rate: ipr.Rate,
		})
		if slowest < 0 || ipr.Time > res.IPs[slowest].Time {
			slowest = i
		}
	}
	if res.DRAMUtilization >= DRAMBoundUtilization {
		o.Bottleneck = Bottleneck{Kind: "memory", Name: "DRAM"}
	} else if slowest >= 0 {
		o.Bottleneck = Bottleneck{Kind: "IP", Name: res.IPs[slowest].IP}
	}
	return o
}
