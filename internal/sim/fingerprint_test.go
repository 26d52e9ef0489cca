package sim

import (
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/noc"
	"github.com/gables-model/gables/internal/sim/thermal"
)

func fpKernel() kernel.Kernel {
	return kernel.Kernel{Name: "k", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 8, Pattern: kernel.ReadWrite}
}

func fpBase() (Config, []Assignment, RunOptions) {
	return Snapdragon835(), []Assignment{{IP: "CPU", Kernel: fpKernel()}}, RunOptions{}
}

func TestFingerprintDeterministic(t *testing.T) {
	cfg, as, opt := fpBase()
	a := Fingerprint(cfg, as, opt)
	for i := 0; i < 100; i++ {
		if b := Fingerprint(cfg, as, opt); b != a {
			t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
		}
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(a))
	}
}

// TestFingerprintSensitivity mutates every semantically meaningful input
// one at a time and requires each mutation to move the key.
func TestFingerprintSensitivity(t *testing.T) {
	base, as, opt := fpBase()
	baseKey := Fingerprint(base, as, opt)

	mutations := map[string]func() string{
		"config name": func() string {
			c := base
			c.Name = "other"
			return Fingerprint(c, as, opt)
		},
		"dram bandwidth": func() string {
			c := base
			c.DRAMBandwidth *= 2
			return Fingerprint(c, as, opt)
		},
		"fabric bandwidth": func() string {
			c := base
			c.Fabrics = append([]noc.FabricSpec(nil), base.Fabrics...)
			c.Fabrics[0].Bandwidth *= 2
			return Fingerprint(c, as, opt)
		},
		"ip compute rate": func() string {
			c := base
			c.IPs = append([]IPSpec(nil), base.IPs...)
			c.IPs[0].ComputeRate *= 2
			return Fingerprint(c, as, opt)
		},
		"ip order": func() string {
			c := base
			c.IPs = append([]IPSpec(nil), base.IPs...)
			c.IPs[0], c.IPs[1] = c.IPs[1], c.IPs[0]
			return Fingerprint(c, as, opt)
		},
		"host": func() string {
			c := base
			c.Host = ""
			return Fingerprint(c, as, opt)
		},
		"thermal override": func() string {
			c := base
			tc := thermal.DefaultConfig()
			tc.ThrottleAt += 5
			c.Thermal = &tc
			return Fingerprint(c, as, opt)
		},
		"assignment ip": func() string {
			a2 := []Assignment{{IP: "GPU", Kernel: fpKernel()}}
			return Fingerprint(base, a2, opt)
		},
		"kernel working set": func() string {
			k := fpKernel()
			k.WorkingSet *= 2
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"kernel trials": func() string {
			k := fpKernel()
			k.Trials++
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"kernel flops per word": func() string {
			k := fpKernel()
			k.FlopsPerWord *= 2
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"kernel pattern": func() string {
			k := fpKernel()
			k.Pattern = kernel.ReadOnly
			return Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k}}, opt)
		},
		"assignment count": func() string {
			a2 := append([]Assignment{}, as...)
			a2 = append(a2, Assignment{IP: "GPU", Kernel: fpKernel()})
			return Fingerprint(base, a2, opt)
		},
		"coordination": func() string {
			return Fingerprint(base, as, RunOptions{Coordination: true})
		},
		"thermal option": func() string {
			return Fingerprint(base, as, RunOptions{Thermal: true})
		},
		"max events": func() string {
			return Fingerprint(base, as, RunOptions{MaxEvents: 1000})
		},
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range mutations {
		key := mutate()
		if prev, dup := seen[key]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
			continue
		}
		seen[key] = name
	}
}

// TestFingerprintLabelInsensitive pins the documented exclusions: the
// kernel's display name never splits cache entries, and string boundaries
// cannot be shifted to forge a collision.
func TestFingerprintLabelInsensitive(t *testing.T) {
	base, _, opt := fpBase()
	k1, k2 := fpKernel(), fpKernel()
	k2.Name = "a completely different label"
	a := Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k1}}, opt)
	b := Fingerprint(base, []Assignment{{IP: "CPU", Kernel: k2}}, opt)
	if a != b {
		t.Error("kernel display name must not affect the fingerprint")
	}

	// Length-prefixing: moving a byte across a string boundary must not
	// collide ("CPUx" host vs "CPU" host with trailing data elsewhere).
	c1, c2 := base, base
	c1.Name, c1.Host = "chipA", "CPU"
	c2.Name, c2.Host = "chip", "ACPU"
	if Fingerprint(c1, nil, opt) == Fingerprint(c2, nil, opt) {
		t.Error("shifting bytes across string boundaries must change the key")
	}
}

// TestFingerprintMaxEventsNormalized pins the 0 → DefaultMaxEvents
// normalization: both spellings run the same schedule, so they share a key.
func TestFingerprintMaxEventsNormalized(t *testing.T) {
	base, as, _ := fpBase()
	implicit := Fingerprint(base, as, RunOptions{})
	explicit := Fingerprint(base, as, RunOptions{MaxEvents: DefaultMaxEvents})
	if implicit != explicit {
		t.Error("MaxEvents 0 and DefaultMaxEvents must share a fingerprint")
	}
}

// TestFingerprintGolden pins exact keys. Fingerprints address on-disk
// cache entries (GABLES_CACHE_DIR) and surrogate calibration artifacts,
// so a rewrite of the encoder must reproduce these bytes exactly; a
// deliberate encoding change bumps FingerprintVersion and re-pins them.
func TestFingerprintGolden(t *testing.T) {
	base, as, opt := fpBase()

	ext := Snapdragon835Extended()
	extAs := []Assignment{
		{IP: "CPU", Kernel: fpKernel()},
		{IP: "GPU", Kernel: kernel.Kernel{WorkingSet: 3 << 20, Trials: 1, FlopsPerWord: 64, Pattern: kernel.ReadOnly}},
		{IP: "DSP", Kernel: kernel.Kernel{WorkingSet: 1 << 16, Trials: 4, FlopsPerWord: 1, Pattern: kernel.StreamCopy}},
	}

	hot := Snapdragon835()
	hot.Thermal = &thermal.Config{
		Ambient: 25, Resistance: 12, Capacitance: 0.05, IdlePower: 0.1, EnergyPerOp: 1e-11,
		ThrottleAt: 80, ResumeAt: 70, ThrottleScale: 0.5, Interval: 1e-3,
	}
	noThermal := Snapdragon835()
	noThermal.Thermal = nil

	for _, c := range []struct {
		name string
		cfg  Config
		as   []Assignment
		opt  RunOptions
		want string
	}{
		{"snapdragon835", base, as, opt, "12ead9a78fb09dedac69da05d2d0c34017312d929bd1f6c91c616983c7246179"},
		{"snapdragon835-extended", ext, extAs, RunOptions{Coordination: true}, "33a3d4180c2e5ff2d2f6e3c4ec5d9cd0a6aadca1ad38c07d360b70e858b87460"},
		{"custom-thermal", hot, as, RunOptions{Thermal: true}, "6f01391ed60d25e5f5d166626519bcb0c73afb93f452e4909d81f59918c3ba7e"},
		{"nil-thermal", noThermal, as, opt, "6259717f2b1c427831212d7005015327d4141a2d81b73a058b3878b32b8e42d3"},
		{"max-events-zero", base, as, RunOptions{MaxEvents: 0}, "12ead9a78fb09dedac69da05d2d0c34017312d929bd1f6c91c616983c7246179"},
		{"max-events-default", base, as, RunOptions{MaxEvents: DefaultMaxEvents}, "12ead9a78fb09dedac69da05d2d0c34017312d929bd1f6c91c616983c7246179"},
		{"max-events-small", base, as, RunOptions{MaxEvents: 1000}, "d081830b3bcf8ecdaab01ec39ee23cb14bcd1dafcb6dfd2c1142a72836ac87e4"},
	} {
		if got := Fingerprint(c.cfg, c.as, c.opt); got != c.want {
			t.Errorf("%s: Fingerprint = %s, want %s", c.name, got, c.want)
		}
	}
}

var fpSink string

// BenchmarkSimFingerprint measures the run key of a two-IP split on the
// calibrated chip: the key every sim answer and simcache lookup derives.
func BenchmarkSimFingerprint(b *testing.B) {
	cfg := Snapdragon835()
	as := []Assignment{
		{IP: "CPU", Kernel: kernel.Kernel{WorkingSet: 2 << 20, Trials: 2, FlopsPerWord: 64, Pattern: kernel.ReadWrite}},
		{IP: "GPU", Kernel: kernel.Kernel{WorkingSet: 2 << 20, Trials: 2, FlopsPerWord: 64, Pattern: kernel.ReadWrite}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = Fingerprint(cfg, as, RunOptions{})
	}
}
