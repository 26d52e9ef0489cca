package sim

import (
	"math"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/ip"
	"github.com/gables-model/gables/internal/sim/noc"
)

func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bigRW returns a large-footprint read+write kernel at the given flops per
// word — the §IV-A CPU methodology.
func bigRW(fpw int) kernel.Kernel {
	return kernel.Kernel{Name: "rw", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: fpw, Pattern: kernel.ReadWrite}
}

func TestConfigValidation(t *testing.T) {
	good := Snapdragon835()
	if err := good.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}

	bad := Snapdragon835()
	bad.DRAMBandwidth = 0
	if _, err := New(bad); err == nil {
		t.Error("zero DRAM must be rejected")
	}

	bad = Snapdragon835()
	bad.IPs = nil
	if _, err := New(bad); err == nil {
		t.Error("no IPs must be rejected")
	}

	bad = Snapdragon835()
	bad.IPs = append(bad.IPs, bad.IPs[0])
	if _, err := New(bad); err == nil {
		t.Error("duplicate IP must be rejected")
	}

	bad = Snapdragon835()
	bad.IPs[0].Fabric = "ghost"
	if _, err := New(bad); err == nil {
		t.Error("unknown fabric must be rejected")
	}

	bad = Snapdragon835()
	bad.Host = "ghost"
	if _, err := New(bad); err == nil {
		t.Error("unknown host must be rejected")
	}

	bad = Snapdragon835()
	bad.Host = ""
	if _, err := New(bad); err == nil {
		t.Error("coordination costs without a host must be rejected")
	}

	// New builds nothing, so each of these must be caught by the check
	// itself, including faults in parts no run would build.
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"NaN DRAM bandwidth", func(c *Config) { c.DRAMBandwidth = math.NaN() }},
		{"+Inf DRAM bandwidth", func(c *Config) { c.DRAMBandwidth = math.Inf(1) }},
		{"-Inf DRAM bandwidth", func(c *Config) { c.DRAMBandwidth = math.Inf(-1) }},
		{"zero fabric bandwidth", func(c *Config) { c.Fabrics[1].Bandwidth = 0 }},
		{"NaN fabric bandwidth", func(c *Config) { c.Fabrics[1].Bandwidth = math.NaN() }},
		{"unknown parent", func(c *Config) { c.Fabrics[1].Parent = "ghost" }},
		{"two-fabric cycle", func(c *Config) { c.Fabrics[0].Parent = "system" }},
		{"invalid config on an unassigned IP", func(c *Config) { c.IPs[2].ComputeRate = math.NaN() }},
		{"invalid IP config", func(c *Config) { c.IPs[0].LinkBandwidth = 0 }},
	} {
		bad := Snapdragon835()
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate: %s must be rejected", tc.name)
		}
		if _, err := New(bad); err == nil {
			t.Errorf("New: %s must be rejected", tc.name)
		}
	}
}

func TestRunValidation(t *testing.T) {
	s := mustSystem(t, Snapdragon835())
	if _, err := s.Run(nil, RunOptions{}); err == nil {
		t.Error("empty assignments must be rejected")
	}
	if _, err := s.Run([]Assignment{{IP: "ghost", Kernel: bigRW(4)}}, RunOptions{}); err == nil {
		t.Error("unknown IP must be rejected")
	}
	dup := []Assignment{{IP: "CPU", Kernel: bigRW(4)}, {IP: "CPU", Kernel: bigRW(4)}}
	if _, err := s.Run(dup, RunOptions{}); err == nil {
		t.Error("double assignment must be rejected")
	}
	if _, err := s.Run([]Assignment{{IP: "CPU", Kernel: bigRW(4)}},
		RunOptions{MaxEvents: -1}); err == nil {
		t.Error("negative MaxEvents must be rejected, not silently disable the livelock guard")
	}
}

// TestRunResultCheck: a real run passes Check, and each way a stored
// result can be malformed fails it.
func TestRunResultCheck(t *testing.T) {
	k := kernel.Kernel{Name: "k", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 8, Pattern: kernel.ReadWrite}
	good, err := mustSystem(t, Snapdragon835()).Run([]Assignment{{IP: "CPU", Kernel: k}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Check(); err != nil {
		t.Fatalf("a real run fails Check: %v", err)
	}
	for name, mutate := range map[string]func(r *RunResult){
		"no IPs":         func(r *RunResult) { r.IPs = nil },
		"NaN makespan":   func(r *RunResult) { r.Makespan = math.NaN() },
		"+Inf rate":      func(r *RunResult) { r.Rate = math.Inf(1) },
		"negative util":  func(r *RunResult) { r.DRAMUtilization = -0.5 },
		"NaN IP flops":   func(r *RunResult) { r.IPs[0].Flops = math.NaN() },
		"negative IP bw": func(r *RunResult) { r.IPs[0].Bandwidth = -1 },
	} {
		r := *good
		r.IPs = append([]IPResult(nil), good.IPs...)
		mutate(&r)
		if r.Check() == nil {
			t.Errorf("%s: Check accepted %+v", name, r)
		}
	}
	if (*RunResult)(nil).Check() == nil {
		t.Error("Check accepted a nil result")
	}
}

// TestCalibrationCPU checks the simulated CPU reproduces the paper's
// Figure 7a ceilings: 7.5 GFLOPS/s peak and 15.1 GB/s read+write DRAM
// bandwidth (~20 GB/s read-only).
func TestCalibrationCPU(t *testing.T) {
	s := mustSystem(t, Snapdragon835())

	// High intensity → compute plateau.
	res, err := s.Run([]Assignment{{IP: "CPU", Kernel: bigRW(512)}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Rate; math.Abs(got-7.5e9)/7.5e9 > 0.02 {
		t.Errorf("CPU peak = %v, want ~7.5e9", got)
	}

	// Low intensity, read+write → 15.1 GB/s.
	res, err = s.Run([]Assignment{{IP: "CPU", Kernel: bigRW(1)}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Bandwidth; math.Abs(got-15.1e9)/15.1e9 > 0.03 {
		t.Errorf("CPU RW bandwidth = %v, want ~15.1e9", got)
	}

	// Read-only sanity check from the §IV-B footnote: ~20 GB/s.
	ro := kernel.Kernel{Name: "ro", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	res, err = s.Run([]Assignment{{IP: "CPU", Kernel: ro}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Bandwidth; math.Abs(got-20e9)/20e9 > 0.03 {
		t.Errorf("CPU RO bandwidth = %v, want ~20e9", got)
	}
}

// TestCalibrationGPU checks Figure 7b: 349.6 GFLOPS/s and 24.4 GB/s on the
// stream kernel, device-resident (no coordination).
func TestCalibrationGPU(t *testing.T) {
	s := mustSystem(t, Snapdragon835())
	hot := kernel.Kernel{Name: "hot", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: 2048, Pattern: kernel.StreamCopy}
	res, err := s.Run([]Assignment{{IP: "GPU", Kernel: hot}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Rate; math.Abs(got-349.6e9)/349.6e9 > 0.03 {
		t.Errorf("GPU peak = %v, want ~349.6e9", got)
	}

	cold := kernel.Kernel{Name: "cold", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: 1, Pattern: kernel.StreamCopy}
	res, err = s.Run([]Assignment{{IP: "GPU", Kernel: cold}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Bandwidth; math.Abs(got-24.4e9)/24.4e9 > 0.03 {
		t.Errorf("GPU bandwidth = %v, want ~24.4e9", got)
	}
}

// TestCalibrationDSP checks Figure 9: 3.0 GFLOPS/s and the slower-fabric
// 5.4 GB/s.
func TestCalibrationDSP(t *testing.T) {
	s := mustSystem(t, Snapdragon835())
	hot := kernel.Kernel{Name: "hot", WorkingSet: 8 << 20, Trials: 3,
		FlopsPerWord: 512, Pattern: kernel.ReadWrite}
	res, err := s.Run([]Assignment{{IP: "DSP", Kernel: hot}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Rate; math.Abs(got-3.0e9)/3.0e9 > 0.03 {
		t.Errorf("DSP peak = %v, want ~3.0e9", got)
	}

	cold := kernel.Kernel{Name: "cold", WorkingSet: 8 << 20, Trials: 3,
		FlopsPerWord: 1, Pattern: kernel.ReadWrite}
	res, err = s.Run([]Assignment{{IP: "DSP", Kernel: cold}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Bandwidth; math.Abs(got-5.4e9)/5.4e9 > 0.03 {
		t.Errorf("DSP bandwidth = %v, want ~5.4e9", got)
	}
}

// TestDRAMContention runs CPU and GPU bandwidth-hungry kernels together:
// combined demand (20 + 24.4 GB/s at the interfaces) exceeds the shared
// 30 GB/s DRAM and both slow down relative to solo runs.
func TestDRAMContention(t *testing.T) {
	s := mustSystem(t, Snapdragon835())
	cpuK := kernel.Kernel{Name: "c", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	gpuK := kernel.Kernel{Name: "g", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: 1, Pattern: kernel.StreamCopy}

	soloCPU, err := s.Run([]Assignment{{IP: "CPU", Kernel: cpuK}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	soloGPU, err := s.Run([]Assignment{{IP: "GPU", Kernel: gpuK}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	both, err := s.Run([]Assignment{
		{IP: "CPU", Kernel: cpuK}, {IP: "GPU", Kernel: gpuK},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cpuBW, gpuBW := both.IPs[0].Bandwidth, both.IPs[1].Bandwidth
	if cpuBW >= soloCPU.IPs[0].Bandwidth*0.98 && gpuBW >= soloGPU.IPs[0].Bandwidth*0.98 {
		t.Errorf("no contention observed: CPU %v vs %v, GPU %v vs %v",
			cpuBW, soloCPU.IPs[0].Bandwidth, gpuBW, soloGPU.IPs[0].Bandwidth)
	}
	// Combined bandwidth cannot exceed the DRAM controller.
	combined := (both.IPs[0].Bytes + both.IPs[1].Bytes) / both.Makespan
	if combined > 30e9*1.01 {
		t.Errorf("combined bandwidth %v exceeds DRAM 30e9", combined)
	}
	if both.DRAMUtilization < 0.8 {
		t.Errorf("DRAM utilization = %v, want near saturation", both.DRAMUtilization)
	}
}

// TestCoordinationSlowdown reproduces the Figure 8 low-intensity shape:
// offloading everything to the GPU at one flop per byte is *slower* than
// the CPU-only baseline once the host coordination cost is charged.
func TestCoordinationSlowdown(t *testing.T) {
	s := mustSystem(t, Snapdragon835())
	base, err := s.Run([]Assignment{{IP: "CPU", Kernel: bigRW(8)}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gpuK := kernel.Kernel{Name: "g", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: 8, Pattern: kernel.ReadWrite}
	offload, err := s.Run([]Assignment{{IP: "GPU", Kernel: gpuK}},
		RunOptions{Coordination: true})
	if err != nil {
		t.Fatal(err)
	}
	if offload.Rate >= base.Rate {
		t.Errorf("low-I offload rate %v must fall below CPU baseline %v",
			offload.Rate, base.Rate)
	}

	// And at very high intensity, offload wins big (the 39.4× region).
	hot := kernel.Kernel{Name: "hot", WorkingSet: 16 << 20, Trials: 3,
		FlopsPerWord: 8192, Pattern: kernel.ReadWrite}
	baseHot, err := s.Run([]Assignment{{IP: "CPU", Kernel: hot}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	offloadHot, err := s.Run([]Assignment{{IP: "GPU", Kernel: hot}},
		RunOptions{Coordination: true})
	if err != nil {
		t.Fatal(err)
	}
	speedup := offloadHot.Rate / baseHot.Rate
	if speedup < 20 {
		t.Errorf("high-I offload speedup = %v, want the tens", speedup)
	}
}

func TestThermalRun(t *testing.T) {
	s := mustSystem(t, Snapdragon835())
	// A long compute-heavy GPU run: 349.6 Gops/s at 0.4 nJ/op is ~140 W
	// in the default thermal model — instant throttle. Use a long-enough
	// kernel that the governor engages.
	k := kernel.Kernel{Name: "hot", WorkingSet: 32 << 20, Trials: 8,
		FlopsPerWord: 2048, Pattern: kernel.StreamCopy}
	controlled, err := s.Run([]Assignment{{IP: "GPU", Kernel: k}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := s.Run([]Assignment{{IP: "GPU", Kernel: k}}, RunOptions{Thermal: true})
	if err != nil {
		t.Fatal(err)
	}
	if !throttled.IPs[0].Throttled {
		t.Errorf("sustained FP load must throttle (peak temp %v)", throttled.IPs[0].MaxTemp)
	}
	if throttled.Rate >= controlled.Rate*0.99 {
		t.Errorf("throttled rate %v must sag below controlled %v",
			throttled.Rate, controlled.Rate)
	}
	if controlled.IPs[0].Throttled {
		t.Error("thermally controlled run must not report throttling")
	}
}

func TestSnapdragon821Preset(t *testing.T) {
	s := mustSystem(t, Snapdragon821())
	res, err := s.Run([]Assignment{{IP: "CPU", Kernel: bigRW(512)}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Rate; math.Abs(got-6.8e9)/6.8e9 > 0.02 {
		t.Errorf("821 CPU peak = %v, want ~6.8e9", got)
	}
}

func TestFabricBottleneck(t *testing.T) {
	// An IP behind a deliberately narrow fabric is limited by it even
	// though its own link and DRAM are fast.
	cfg := Config{
		Name:          "narrow",
		DRAMBandwidth: 30e9,
		Fabrics: []noc.FabricSpec{
			{Name: "wide", Bandwidth: 28e9},
			{Name: "narrow", Bandwidth: 3e9, Parent: "wide"},
		},
		IPs: []IPSpec{{
			Config: ip.Config{Name: "X", ComputeRate: 100e9, LinkBandwidth: 20e9},
			Fabric: "narrow",
		}},
	}
	s := mustSystem(t, cfg)
	k := kernel.Kernel{Name: "k", WorkingSet: 8 << 20, Trials: 3,
		FlopsPerWord: 1, Pattern: kernel.ReadOnly}
	res, err := s.Run([]Assignment{{IP: "X", Kernel: k}}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.IPs[0].Bandwidth; math.Abs(got-3e9)/3e9 > 0.03 {
		t.Errorf("bandwidth = %v, want ~3e9 (fabric bound)", got)
	}
}
