package ip

import (
	"math"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/engine"
	"github.com/gables-model/gables/internal/sim/mem"
)

// rig instantiates an IP with a private engine and DRAM server.
type rig struct {
	eng  *engine.Engine
	dram *mem.Server
	blk  *IP
}

func newRig(t *testing.T, cfg Config, dramBW float64) *rig {
	t.Helper()
	eng := engine.New()
	dram, err := mem.NewServer(eng, "dram", "", dramBW)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := New(eng, cfg, nil, dram)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dram: dram, blk: blk}
}

// run executes a kernel to completion and returns achieved flops/s and
// bytes/s.
func (r *rig) run(t *testing.T, k kernel.Kernel, host *mem.Server) (rate, bw float64) {
	t.Helper()
	var finish engine.Time
	if err := r.blk.RunKernel(k, host, func() { finish = r.eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.eng.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if finish == 0 {
		t.Fatal("kernel never finished")
	}
	return r.blk.OpsDone() / float64(finish), r.blk.BytesMoved() / float64(finish)
}

func baseConfig() Config {
	return Config{
		Name:          "cpu",
		ComputeRate:   8e9,
		LinkBandwidth: 16e9,
	}
}

func TestConfigValidation(t *testing.T) {
	eng := engine.New()
	dram, _ := mem.NewServer(eng, "dram", "", 30e9)

	cases := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.ComputeRate = 0 },
		func(c *Config) { c.LinkBandwidth = -1 },
		func(c *Config) { c.WritePenalty = 0.5 },
		func(c *Config) { c.CacheSize = 1024; c.CacheBandwidth = 0 },
		func(c *Config) { c.ChunkBytes = -1 },
		func(c *Config) { c.MaxInflight = -1 },
		func(c *Config) { c.CoordinationOpsPerByte = -1 },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := New(eng, cfg, nil, dram); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(nil, baseConfig(), nil, dram); err == nil {
		t.Error("nil engine must be rejected")
	}
	if _, err := New(eng, baseConfig(), nil, nil); err == nil {
		t.Error("nil DRAM must be rejected")
	}
}

func TestComputeBoundAtHighIntensity(t *testing.T) {
	r := newRig(t, baseConfig(), 30e9)
	k := kernel.Kernel{Name: "hot", WorkingSet: 8 << 20, Trials: 2,
		FlopsPerWord: 512, Pattern: kernel.ReadWrite}
	rate, _ := r.run(t, k, nil)
	// At 64 flops/byte the 8 Gops/s engine is the bound.
	if math.Abs(rate-8e9)/8e9 > 0.02 {
		t.Errorf("rate = %v, want ~8e9 (compute bound)", rate)
	}
}

func TestBandwidthBoundAtLowIntensity(t *testing.T) {
	r := newRig(t, baseConfig(), 30e9)
	k := kernel.Kernel{Name: "cold", WorkingSet: 8 << 20, Trials: 2,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	rate, bw := r.run(t, k, nil)
	// Read-only at 16 GB/s link: 0.25 flops/byte → 4 Gflops/s.
	if math.Abs(bw-16e9)/16e9 > 0.02 {
		t.Errorf("bandwidth = %v, want ~16e9 (link bound)", bw)
	}
	if math.Abs(rate-4e9)/4e9 > 0.02 {
		t.Errorf("rate = %v, want ~4e9", rate)
	}
}

func TestWritePenaltyLowersRWBandwidth(t *testing.T) {
	cfg := baseConfig()
	cfg.WritePenalty = 1.649
	r := newRig(t, cfg, 100e9)
	k := kernel.Kernel{Name: "rw", WorkingSet: 8 << 20, Trials: 2,
		FlopsPerWord: 1, Pattern: kernel.ReadWrite}
	_, bw := r.run(t, k, nil)
	// Effective RW bandwidth: 8 bytes moved per (4 + 4·1.649)/16e9 s
	// ≈ 12.08 GB/s.
	want := 8.0 / (4 + 4*1.649) * 16e9
	if math.Abs(bw-want)/want > 0.02 {
		t.Errorf("RW bandwidth = %v, want ~%v", bw, want)
	}
}

func TestDRAMSlowerThanLinkBinds(t *testing.T) {
	r := newRig(t, baseConfig(), 8e9) // DRAM slower than the 16 GB/s link
	k := kernel.Kernel{Name: "k", WorkingSet: 8 << 20, Trials: 2,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	_, bw := r.run(t, k, nil)
	if math.Abs(bw-8e9)/8e9 > 0.02 {
		t.Errorf("bandwidth = %v, want ~8e9 (DRAM bound)", bw)
	}
}

func TestCacheResidentBandwidthLift(t *testing.T) {
	cfg := baseConfig()
	cfg.ComputeRate = 1000e9 // keep compute out of the way
	cfg.CacheSize = 2 << 20
	cfg.CacheBandwidth = 80e9
	r := newRig(t, cfg, 30e9)

	// Working set fits: after the warmup trial, traffic is served at
	// cache bandwidth, so many trials approach 80 GB/s.
	k := kernel.Kernel{Name: "small", WorkingSet: 1 << 20, Trials: 20,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	_, bw := r.run(t, k, nil)
	if bw < 40e9 {
		t.Errorf("cache-resident bandwidth = %v, want well above the 16e9 link", bw)
	}

	// Working set too large: every trial streams from DRAM.
	r2 := newRig(t, cfg, 30e9)
	big := kernel.Kernel{Name: "big", WorkingSet: 16 << 20, Trials: 4,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	_, bw2 := r2.run(t, big, nil)
	if bw2 > 17e9 {
		t.Errorf("thrashing bandwidth = %v, must be link/DRAM bound", bw2)
	}
}

func TestCoordinationThrottlesOffload(t *testing.T) {
	eng := engine.New()
	dram, _ := mem.NewServer(eng, "dram", "", 30e9)
	host, _ := mem.NewServer(eng, "host", "compute", 7.5e9)
	cfg := Config{
		Name:                   "gpu",
		ComputeRate:            350e9,
		LinkBandwidth:          24e9,
		CoordinationOpsPerByte: 1.25,
		MaxInflight:            16,
	}
	blk, err := New(eng, cfg, nil, dram)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.Kernel{Name: "k", WorkingSet: 8 << 20, Trials: 2,
		FlopsPerWord: 1, Pattern: kernel.StreamCopy}
	var finish engine.Time
	if err := blk.RunKernel(k, host, func() { finish = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	bw := blk.BytesMoved() / float64(finish)
	// Coordination at 1.25 ops/byte on a 7.5 Gops host limits offloaded
	// traffic to ~6 GB/s, far below the 24 GB/s link.
	want := 7.5e9 / 1.25
	if math.Abs(bw-want)/want > 0.05 {
		t.Errorf("coordinated bandwidth = %v, want ~%v", bw, want)
	}
}

func TestRunKernelValidation(t *testing.T) {
	r := newRig(t, baseConfig(), 30e9)
	if err := r.blk.RunKernel(kernel.Kernel{}, nil, func() {}); err == nil {
		t.Error("invalid kernel must be rejected")
	}
	k := kernel.Kernel{Name: "k", WorkingSet: 1024, Trials: 1, FlopsPerWord: 1}
	if err := r.blk.RunKernel(k, nil, nil); err == nil {
		t.Error("nil completion must be rejected")
	}
}

// TestAccountingAndReset checks a block accounts exactly the kernel's work,
// and that each fresh block — every run builds its own — starts from zero.
func TestAccountingAndReset(t *testing.T) {
	r := newRig(t, baseConfig(), 30e9)
	if r.blk.OpsDone() != 0 || r.blk.BytesMoved() != 0 {
		t.Error("a fresh block must start with zero counters")
	}
	k := kernel.Kernel{Name: "k", WorkingSet: 1 << 20, Trials: 2,
		FlopsPerWord: 4, Pattern: kernel.ReadWrite}
	r.run(t, k, nil)
	if r.blk.OpsDone() != float64(k.TotalFlops()) {
		t.Errorf("ops done = %v, want %v", r.blk.OpsDone(), float64(k.TotalFlops()))
	}
	if r.blk.BytesMoved() != float64(k.TotalTraffic()) {
		t.Errorf("bytes = %v, want %v", r.blk.BytesMoved(), float64(k.TotalTraffic()))
	}
	again := newRig(t, baseConfig(), 30e9)
	again.run(t, k, nil)
	if again.blk.OpsDone() != r.blk.OpsDone() || again.blk.BytesMoved() != r.blk.BytesMoved() {
		t.Errorf("a rebuilt block accounts %v/%v, want %v/%v",
			again.blk.OpsDone(), again.blk.BytesMoved(), r.blk.OpsDone(), r.blk.BytesMoved())
	}
}

func TestFrequencyScale(t *testing.T) {
	r := newRig(t, baseConfig(), 30e9)
	if err := r.blk.SetFrequencyScale(0.5); err != nil {
		t.Fatal(err)
	}
	k := kernel.Kernel{Name: "hot", WorkingSet: 4 << 20, Trials: 2,
		FlopsPerWord: 512, Pattern: kernel.ReadWrite}
	rate, _ := r.run(t, k, nil)
	if math.Abs(rate-4e9)/4e9 > 0.02 {
		t.Errorf("halved clock rate = %v, want ~4e9", rate)
	}
	if err := r.blk.SetFrequencyScale(0); err == nil {
		t.Error("zero scale must be rejected")
	}
	if err := r.blk.SetFrequencyScale(1.5); err == nil {
		t.Error("overclock must be rejected")
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := newRig(t, baseConfig(), 30e9)
	cfg := r.blk.Config()
	if cfg.WritePenalty != 1 || cfg.ChunkBytes != 256*1024 || cfg.MaxInflight != 4 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestMemoryLatencyWindowInteraction(t *testing.T) {
	// With a fixed per-chunk latency, throughput is capped near
	// window·chunk/(latency + service). A shallow window starves the
	// link; a deep window hides the latency — the §III-C latency
	// reduction vs latency tolerance contrast.
	run := func(window int) float64 {
		cfg := Config{
			Name:          "lat",
			ComputeRate:   1000e9,
			LinkBandwidth: 20e9,
			ChunkBytes:    4096,
			MaxInflight:   window,
			MemoryLatency: 1e-6,
		}
		r := newRig(t, cfg, 30e9)
		k := kernel.Kernel{Name: "k", WorkingSet: 4 << 20, Trials: 2,
			FlopsPerWord: 1, Pattern: kernel.ReadOnly}
		_, bw := r.run(t, k, nil)
		return bw
	}
	shallow := run(2)
	deep := run(32)
	// The shallow window is latency-bound: between the naive per-slot
	// cap 2·4096/(1e-6 + 2·4096/20e9) ≈ 5.8 GB/s and the optimistic
	// 2·4096/(1e-6 + 4096/20e9) ≈ 6.8 GB/s, and far below the link.
	if shallow < 5.5e9 || shallow > 7e9 {
		t.Errorf("shallow-window bandwidth = %v, want latency-bound ~6 GB/s", shallow)
	}
	if deep < 19e9 {
		t.Errorf("deep window must hide the latency: %v, want ~20e9", deep)
	}
	if deep < 2*shallow {
		t.Errorf("latency tolerance must dominate: deep %v vs shallow %v", deep, shallow)
	}
}

func TestMemoryLatencySkipsCacheHits(t *testing.T) {
	// Cache-resident trials pay no DRAM latency.
	cfg := Config{
		Name:           "lat",
		ComputeRate:    1000e9,
		LinkBandwidth:  20e9,
		CacheSize:      2 << 20,
		CacheBandwidth: 80e9,
		ChunkBytes:     4096,
		MaxInflight:    1,
		MemoryLatency:  1e-6,
	}
	r := newRig(t, cfg, 30e9)
	k := kernel.Kernel{Name: "k", WorkingSet: 1 << 20, Trials: 16,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	_, bw := r.run(t, k, nil)
	// With 15 of 16 trials hitting, the latency-starved miss pass is
	// amortized away: overall bandwidth stays well above the ~3.4 GB/s
	// a latency-bound window-1 stream would manage.
	if bw < 20e9 {
		t.Errorf("cache hits must dodge the latency: %v", bw)
	}
}

// TestConfigRejectsNonFinite: every float field must be finite, and the
// error names the field. NaN slips past sign checks and +Inf past
// positivity, so each needs its own test.
func TestConfigRejectsNonFinite(t *testing.T) {
	fields := []struct {
		field string
		set   func(*Config, float64)
	}{
		{"ComputeRate", func(c *Config, v float64) { c.ComputeRate = v }},
		{"LinkBandwidth", func(c *Config, v float64) { c.LinkBandwidth = v }},
		{"WritePenalty", func(c *Config, v float64) { c.WritePenalty = v }},
		{"CacheSize", func(c *Config, v float64) { c.CacheSize = v }},
		{"CacheBandwidth", func(c *Config, v float64) { c.CacheSize = 1 << 20; c.CacheBandwidth = v }},
		{"ChunkBytes", func(c *Config, v float64) { c.ChunkBytes = v }},
		{"CoordinationOpsPerByte", func(c *Config, v float64) { c.CoordinationOpsPerByte = v }},
		{"MemoryLatency", func(c *Config, v float64) { c.MemoryLatency = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := baseConfig()
			f.set(&cfg, v)
			err := cfg.Validate()
			if err == nil {
				t.Errorf("%s = %v must be rejected", f.field, v)
				continue
			}
			if !strings.Contains(err.Error(), f.field) {
				t.Errorf("%s = %v: error %q does not name the field", f.field, v, err)
			}
		}
	}
}

func TestMemoryLatencyValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.MemoryLatency = -1
	eng := engine.New()
	dram, _ := mem.NewServer(eng, "dram", "", 30e9)
	if _, err := New(eng, cfg, nil, dram); err == nil {
		t.Error("negative latency must be rejected")
	}
}

// TestComputeCoalescingExactEquivalence runs the same kernel with and
// without completion coalescing on the private compute server (the sink
// sim.Run batches outside thermal runs) and requires bitwise-identical
// finish time and accounting, with strictly fewer engine events.
func TestComputeCoalescingExactEquivalence(t *testing.T) {
	cfg := baseConfig()
	cfg.CacheSize = 1 << 20
	cfg.CacheBandwidth = 64e9
	cfg.ChunkBytes = 64 << 10
	k := kernel.Kernel{Name: "coal", WorkingSet: 1 << 20, Trials: 3,
		FlopsPerWord: 16, Pattern: kernel.ReadWrite}
	run := func(coalesce bool) (finish engine.Time, flops, bytes float64, events int) {
		r := newRig(t, cfg, 30e9)
		r.blk.ComputeServer().SetCoalescing(coalesce)
		if err := r.blk.RunKernel(k, nil, func() { finish = r.eng.Now() }); err != nil {
			t.Fatal(err)
		}
		n, err := r.eng.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return finish, r.blk.OpsDone(), r.blk.BytesMoved(), n
	}
	pf, pflops, pbytes, pe := run(false)
	cf, cflops, cbytes, ce := run(true)
	if pf != cf {
		t.Errorf("finish time %v (plain) vs %v (coalesced): must be bitwise equal", pf, cf)
	}
	if pflops != cflops || pbytes != cbytes {
		t.Errorf("accounting differs: flops %v/%v bytes %v/%v", pflops, cflops, pbytes, cbytes)
	}
	if ce >= pe {
		t.Errorf("coalesced run processed %d events, plain %d: batching must schedule fewer", ce, pe)
	}
}
