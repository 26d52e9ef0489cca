package simcache

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/sim/trace"
)

// TestProbeFactoryBypassesCache pins the trace/cache interaction: while a
// probe factory is installed, Run must execute every call fresh (no hits,
// no misses, no stored entries — a hit could not replay the event stream),
// yet still return results identical to cached ones; once the factory is
// removed, normal miss/hit caching resumes.
func TestProbeFactoryBypassesCache(t *testing.T) {
	ResetDefault()
	t.Cleanup(func() {
		SetProbeFactory(nil)
		ResetDefault()
	})

	cfg := sim.Snapdragon835()
	as := []sim.Assignment{{IP: "GPU", Kernel: kernel.Kernel{
		Name: "t", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 32, Pattern: kernel.ReadWrite,
	}}}
	opt := sim.RunOptions{}

	session := trace.NewSession()
	SetProbeFactory(session.NewRun)

	first, err := Run(cfg, as, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(cfg, as, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", *first) != fmt.Sprintf("%#v", *second) {
		t.Errorf("traced reruns disagree:\n%#v\n%#v", *first, *second)
	}
	if s := DefaultStats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("traced runs touched the cache: %+v", s)
	}
	if s := DefaultStats(); s.Bypassed != 2 {
		t.Errorf("traced runs must be reported as bypassed: got %+v, want Bypassed=2", s)
	}
	if session.Runs() != 2 {
		t.Errorf("factory handed out %d run probes, want 2", session.Runs())
	}

	// The factory's label names the chip and each ip/kernel assignment.
	label := runLabel(cfg, as)
	for _, want := range []string{cfg.Name, "GPU/t"} {
		if !strings.Contains(label, want) {
			t.Errorf("run label %q must mention %q", label, want)
		}
	}

	// With the factory removed, caching resumes: one miss, then a hit, and
	// results still agree with the traced ones.
	SetProbeFactory(nil)
	cold, err := Run(cfg, as, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, as, opt); err != nil {
		t.Fatal(err)
	}
	if s := DefaultStats(); s.Misses != 1 || s.Hits != 1 || s.Bypassed != 2 {
		t.Errorf("stats after factory removal = %+v, want one miss, one hit, two bypassed", s)
	}
	if fmt.Sprintf("%#v", *cold) != fmt.Sprintf("%#v", *first) {
		t.Errorf("cached result differs from traced run:\n%#v\n%#v", *cold, *first)
	}
}

// TestExplicitProbeBypassesCache covers the other entry: an explicit
// opt.Probe (no factory installed) also bypasses the cache.
func TestExplicitProbeBypassesCache(t *testing.T) {
	ResetDefault()
	t.Cleanup(ResetDefault)

	cfg := sim.Snapdragon835()
	as := []sim.Assignment{{IP: "CPU", Kernel: kernel.Kernel{
		Name: "t", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 8, Pattern: kernel.ReadWrite,
	}}}

	m := trace.NewMetrics("explicit")
	if _, err := Run(cfg, as, sim.RunOptions{Probe: m}); err != nil {
		t.Fatal(err)
	}
	if m.Dispatched == 0 {
		t.Error("explicit probe observed nothing")
	}
	if s := DefaultStats(); s.Misses != 0 || s.Entries != 0 {
		t.Errorf("explicit-probe run touched the cache: %+v", s)
	}
	if s := DefaultStats(); s.Bypassed != 1 {
		t.Errorf("explicit-probe run must be reported as bypassed: got %+v, want Bypassed=1", s)
	}
}

// TestWarmRunAllocs pins the untraced warm-hit cost: with no probe factory
// installed, Run must not build the trace label. What remains is the
// fingerprint string and the private result copy.
func TestWarmRunAllocs(t *testing.T) {
	ResetDefault()
	t.Cleanup(ResetDefault)

	cfg := sim.Snapdragon835()
	as := []sim.Assignment{{IP: "GPU", Kernel: kernel.Kernel{
		Name: "t", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 32, Pattern: kernel.ReadWrite,
	}}}
	if _, err := Run(cfg, as, sim.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Run(cfg, as, sim.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm Run hit allocates %v times, want at most 3", allocs)
	}
}
