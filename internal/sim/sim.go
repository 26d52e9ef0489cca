// Package sim assembles the simulated SoC: IP blocks from package ip, a
// fabric tree from package noc, a shared DRAM controller, and optional
// thermal governors — the repository's stand-in for the Snapdragon silicon
// the paper measures in §IV. A System is instantiated from a Config and
// executes micro-benchmark assignments concurrently, reporting per-IP
// achieved compute and bandwidth plus the whole-run makespan.
//
// New only checks the Config. Each Run builds a fresh engine and, once,
// the part of the component graph it uses — the DRAM controller, the
// fabrics, the assigned IPs and, under coordination, the host — so runs
// are deterministic and independent, and idle IPs cost nothing.
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/engine"
	"github.com/gables-model/gables/internal/sim/ip"
	"github.com/gables-model/gables/internal/sim/mem"
	"github.com/gables-model/gables/internal/sim/noc"
	"github.com/gables-model/gables/internal/sim/thermal"
	"github.com/gables-model/gables/internal/sim/trace"
)

// IPSpec attaches an IP configuration to a fabric.
type IPSpec struct {
	ip.Config
	// Fabric names the fabric the block attaches to; empty attaches
	// directly to the DRAM controller.
	Fabric string
}

// Config describes a simulated SoC.
type Config struct {
	// Name labels the chip.
	Name string
	// DRAMBandwidth is the shared memory controller's rate in bytes/s.
	DRAMBandwidth float64
	// Fabrics declares the interconnect tree.
	Fabrics []noc.FabricSpec
	// IPs declares the blocks.
	IPs []IPSpec
	// Host names the IP whose compute server absorbs coordination costs
	// (conventionally the CPU). Required when any IP has a nonzero
	// CoordinationOpsPerByte.
	Host string
	// Thermal optionally overrides the governor parameters used when a
	// run enables thermal modeling.
	Thermal *thermal.Config
}

// Validate checks the configuration without building anything. It
// rejects every configuration that building the run graph would: a DRAM
// bandwidth that is not positive and finite, no IPs, duplicate IPs, an
// invalid fabric tree, an IP on an undeclared fabric, an invalid IP
// config, an undeclared host, and coordination costs with no host.
func (c Config) Validate() error {
	if !(c.DRAMBandwidth > 0) || math.IsInf(c.DRAMBandwidth, 1) {
		return fmt.Errorf("sim: %s: DRAM bandwidth must be positive and finite, got %v", c.Name, c.DRAMBandwidth)
	}
	if len(c.IPs) == 0 {
		return fmt.Errorf("sim: %s: needs at least one IP", c.Name)
	}
	if err := noc.Validate(c.Fabrics); err != nil {
		return err
	}
	needsHost := false
	for i, spec := range c.IPs {
		if c.ipIndex(spec.Name) < i {
			return fmt.Errorf("sim: %s: duplicate IP %q", c.Name, spec.Name)
		}
		if spec.Fabric != "" && !c.hasFabric(spec.Fabric) {
			return fmt.Errorf("sim: %s: IP %q: unknown fabric %q", c.Name, spec.Name, spec.Fabric)
		}
		if err := spec.Config.Validate(); err != nil {
			return err
		}
		if spec.CoordinationOpsPerByte > 0 {
			needsHost = true
		}
	}
	if c.Host != "" {
		if c.ipIndex(c.Host) < 0 {
			return fmt.Errorf("sim: %s: host IP %q not declared", c.Name, c.Host)
		}
	} else if needsHost {
		return fmt.Errorf("sim: %s: coordination costs configured but no host IP named", c.Name)
	}
	return nil
}

// ipIndex returns the position of the named IP in c.IPs, or -1.
func (c Config) ipIndex(name string) int {
	for i, spec := range c.IPs {
		if spec.Name == name {
			return i
		}
	}
	return -1
}

// hasFabric reports whether c declares the named fabric.
func (c Config) hasFabric(name string) bool {
	for _, f := range c.Fabrics {
		if f.Name == name {
			return true
		}
	}
	return false
}

// System is a validated simulated SoC, ready to run measurements.
type System struct {
	cfg Config
}

// New validates the configuration and returns a System. It builds no part
// of the run graph; Run does that.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg}, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Assignment gives one IP a kernel to execute.
type Assignment struct {
	// IP names the executing block.
	IP string
	// Kernel is the work.
	Kernel kernel.Kernel
}

// DefaultMaxEvents is the livelock guard applied when RunOptions.MaxEvents
// is zero. Fingerprint normalizes against it so an explicit default and an
// implicit one address the same cache entry.
const DefaultMaxEvents = 50_000_000

// MinEvents is a lower bound on the events (*System).Run schedules for
// the assignments on cfg: each IP splits every trial of its kernel into
// ceil(WorkingSet/ChunkBytes) pipeline chunks, and every chunk schedules
// at least one event. A run whose bound exceeds its MaxEvents guard can
// only fail, so callers can refuse it before anything is built. Unknown
// IPs count nothing (Run rejects them); the sum saturates at math.MaxInt.
func MinEvents(cfg Config, assignments []Assignment) int {
	total := 0.0
	for _, a := range assignments {
		i := cfg.ipIndex(a.IP)
		if i < 0 {
			continue
		}
		chunk := cfg.IPs[i].ChunkBytes
		if chunk == 0 {
			chunk = ip.DefaultChunkBytes
		}
		total += math.Ceil(float64(a.Kernel.WorkingSet)/chunk) * float64(a.Kernel.Trials)
	}
	if !(total < math.MaxInt) {
		return math.MaxInt
	}
	return int(total)
}

// RunOptions control a measurement run.
type RunOptions struct {
	// Coordination charges each offloaded block's traffic to the host
	// CPU (§IV-C mixing methodology). Device-resident roofline runs
	// (§IV-B) leave it off.
	Coordination bool
	// Thermal enables the per-IP throttle governors; off reproduces the
	// paper's thermally controlled measurement rig.
	Thermal bool
	// MaxEvents caps the event count as a livelock guard; defaults to
	// 50 million. Negative values are rejected: they would silently
	// disable the guard.
	MaxEvents int
	// Probe, when non-nil, observes the run: event dispatches, server
	// queues and service windows, per-chunk pipeline progress, thermal
	// samples. Probes are observe-only — the RunResult is bitwise
	// identical with and without one — and excluded from Fingerprint
	// (like Kernel.Name), so traced runs must not be answered from the
	// simulation cache. One probe observes one run.
	//
	//fp:skip observe-only; results are bitwise identical with and without a probe, and simcache bypasses the cache for traced runs
	Probe trace.Probe
}

// IPResult reports one block's achieved performance.
type IPResult struct {
	IP string
	// Flops and Bytes are the work completed.
	Flops, Bytes float64
	// Time is when the block finished its assignment (seconds).
	Time float64
	// Rate is achieved flops/s over the block's own busy window.
	Rate float64
	// Bandwidth is achieved bytes/s over the same window.
	Bandwidth float64
	// MaxTemp is the peak junction temperature (thermal runs only).
	MaxTemp float64
	// Throttled reports whether the governor ever tripped.
	Throttled bool
}

// RunResult reports a whole measurement run.
type RunResult struct {
	// Makespan is the time for every assignment to finish.
	Makespan float64
	// TotalFlops is the work across assignments.
	TotalFlops float64
	// Rate is TotalFlops/Makespan — the concurrent system throughput
	// the paper's Figure 8 normalizes.
	Rate float64
	// IPs holds per-assignment results, in assignment order.
	IPs []IPResult
	// DRAMUtilization is the memory controller's busy fraction.
	DRAMUtilization float64
}

// Run executes the assignments concurrently from time zero and returns the
// measured results.
func (s *System) Run(assignments []Assignment, opt RunOptions) (*RunResult, error) {
	if len(assignments) == 0 {
		return nil, fmt.Errorf("sim: %s: no assignments", s.cfg.Name)
	}
	if opt.MaxEvents < 0 {
		return nil, fmt.Errorf("sim: %s: MaxEvents must be non-negative (negative would disable the livelock guard), got %d", s.cfg.Name, opt.MaxEvents)
	}
	if opt.MaxEvents == 0 {
		opt.MaxEvents = DefaultMaxEvents
	}
	for i, a := range assignments {
		if s.cfg.ipIndex(a.IP) < 0 {
			return nil, fmt.Errorf("sim: %s: unknown IP %q in assignment %d", s.cfg.Name, a.IP, i)
		}
		for _, prev := range assignments[:i] {
			if prev.IP == a.IP {
				return nil, fmt.Errorf("sim: %s: IP %q assigned twice", s.cfg.Name, a.IP)
			}
		}
	}

	// Idle IPs schedule no events, so the run graph holds only the DRAM
	// controller, the fabrics, the assigned IPs and, under coordination,
	// the host.
	eng := engine.New()
	dram, err := mem.NewServer(eng, "dram", "", s.cfg.DRAMBandwidth)
	if err != nil {
		return nil, err
	}
	topo, err := noc.Build(eng, s.cfg.Fabrics)
	if err != nil {
		return nil, err
	}
	build := func(name string) (*ip.IP, error) {
		spec := s.cfg.IPs[s.cfg.ipIndex(name)]
		path, err := topo.Path(spec.Fabric)
		if err != nil {
			return nil, err
		}
		return ip.New(eng, spec.Config, path, dram)
	}
	type slot struct {
		blk      *ip.IP
		finished engine.Time
		gov      *thermal.Governor
	}
	slots := make([]slot, len(assignments))
	var host *ip.IP
	for i, a := range assignments {
		if slots[i].blk, err = build(a.IP); err != nil {
			return nil, err
		}
		if opt.Coordination && a.IP == s.cfg.Host {
			host = slots[i].blk
		}
	}
	if opt.Coordination && s.cfg.Host != "" && host == nil {
		if host, err = build(s.cfg.Host); err != nil {
			return nil, err
		}
	}
	if opt.Probe != nil {
		eng.SetProbe(opt.Probe)
		dram.SetProbe(opt.Probe)
		topo.SetProbe(opt.Probe)
		for i := range slots {
			slots[i].blk.SetProbe(opt.Probe)
		}
		if host != nil {
			host.SetProbe(opt.Probe)
		}
	}

	remaining := len(assignments)
	var govs []*thermal.Governor
	if opt.Thermal {
		tcfg := thermal.DefaultConfig()
		if s.cfg.Thermal != nil {
			tcfg = *s.cfg.Thermal
		}
		for i := range slots {
			sl := &slots[i]
			gov, err := thermal.NewGovernor(eng, sl.blk, tcfg)
			if err != nil {
				return nil, err
			}
			sl.gov = gov
			govs = append(govs, gov)
			if opt.Probe != nil {
				gov.SetProbe(opt.Probe, sl.blk.Name())
			}
			if err := gov.Start(); err != nil {
				return nil, err
			}
		}
	}

	// Outside thermal runs capacities never change mid-flight, so each
	// assigned block's compute server — a pure sink whose completions
	// only account finished chunks — can coalesce back-to-back chunk
	// completions into one engine event per busy period. The completion
	// instants it reports are bitwise identical to the uncoalesced
	// schedule. The coordination host's compute server is excluded: under
	// coordination it also services other blocks' shepherding hops, whose
	// completions forward work and must fire at their own instants.
	if !opt.Thermal {
		for i := range slots {
			if slots[i].blk != host {
				slots[i].blk.ComputeServer().SetCoalescing(true)
			}
		}
	}

	var hostServer *mem.Server
	if host != nil {
		hostServer = host.ComputeServer()
	}
	for i, a := range assignments {
		sl := &slots[i]
		var coord *mem.Server
		if sl.blk != host {
			coord = hostServer
		}
		err := sl.blk.RunKernel(a.Kernel, coord, func() {
			sl.finished = eng.Now()
			remaining--
			if remaining == 0 {
				for _, g := range govs {
					g.Stop()
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}

	if _, err := eng.Run(opt.MaxEvents); err != nil {
		var le *engine.LimitError
		if errors.As(err, &le) {
			return nil, fmt.Errorf("sim: %s: MaxEvents guard (%d) tripped after %d events at t=%.6gs simulated: %w",
				s.cfg.Name, le.Limit, le.Processed, float64(le.Now), err)
		}
		return nil, err
	}
	if remaining != 0 {
		return nil, fmt.Errorf("sim: %s: %d assignments never completed", s.cfg.Name, remaining)
	}

	res := &RunResult{IPs: make([]IPResult, len(assignments))}
	for i := range slots {
		sl := &slots[i]
		r := IPResult{
			IP:    assignments[i].IP,
			Flops: sl.blk.OpsDone(),
			Bytes: sl.blk.BytesMoved(),
			Time:  float64(sl.finished),
		}
		if r.Time > 0 {
			r.Rate = r.Flops / r.Time
			r.Bandwidth = r.Bytes / r.Time
		}
		if sl.gov != nil {
			r.MaxTemp = sl.gov.MaxTemp
			r.Throttled = sl.gov.ThrottleEvents > 0
		}
		res.IPs[i] = r
		res.TotalFlops += r.Flops
		if r.Time > res.Makespan {
			res.Makespan = r.Time
		}
	}
	if res.Makespan > 0 {
		res.Rate = res.TotalFlops / res.Makespan
		res.DRAMUtilization = dram.Utilization(engine.Time(res.Makespan))
	}
	return res, nil
}
