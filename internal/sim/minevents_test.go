package sim

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/gables-model/gables/internal/kernel"
)

// TestMinEventsIsLowerBoundProperty holds MinEvents to its contract on
// generated runs (one to three IPs, every pattern, cache-resident and
// streaming working sets, with and without coordination and thermal
// governors): capped at one event below the bound, the run must trip its
// MaxEvents guard, while the uncapped run finishes.
func TestMinEventsIsLowerBoundProperty(t *testing.T) {
	cfg := Snapdragon835()
	sys := mustSystem(t, cfg)
	names := []string{"CPU", "GPU", "DSP"}
	f := func(fpwSeed, wsSeed, trialSeed, ipMask, patSeed uint8, coord, therm bool) bool {
		var as []Assignment
		for i, name := range names {
			if ipMask&(1<<i) != 0 || (ipMask%8 == 0 && i == 0) {
				as = append(as, Assignment{IP: name, Kernel: randKernel(fpwSeed+uint8(i), wsSeed+uint8(i), trialSeed, kernel.Pattern(int(patSeed+uint8(i))%3))})
			}
		}
		n := MinEvents(cfg, as)
		if n < 1 {
			t.Logf("MinEvents = %d for %+v", n, as)
			return false
		}
		opt := RunOptions{Coordination: coord, Thermal: therm}
		if _, err := sys.Run(as, opt); err != nil {
			t.Logf("uncapped run failed: %v", err)
			return false
		}
		if n == 1 {
			return true // MaxEvents 0 means the default, not a zero cap
		}
		opt.MaxEvents = n - 1
		if _, err := sys.Run(as, opt); err == nil {
			t.Logf("run capped at MinEvents-1 = %d finished: %+v coord=%v thermal=%v", n-1, as, coord, therm)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMinEventsCounting pins the arithmetic: ceil(WorkingSet/ChunkBytes)
// chunks per trial, the default chunk size for an unset ChunkBytes,
// nothing for an unknown IP, and saturation instead of overflow.
func TestMinEventsCounting(t *testing.T) {
	cfg := Snapdragon835()
	cfg.IPs[0].ChunkBytes = 0 // the CPU falls back to the default
	k := kernel.Kernel{WorkingSet: 3*256*1024 + 1, Trials: 5, FlopsPerWord: 1}
	if n := MinEvents(cfg, []Assignment{{IP: cfg.IPs[0].Name, Kernel: k}}); n != 4*5 {
		t.Errorf("MinEvents = %d, want 4 chunks x 5 trials", n)
	}
	if n := MinEvents(cfg, []Assignment{{IP: "no-such-ip", Kernel: k}}); n != 0 {
		t.Errorf("unknown IP counted %d events", n)
	}
	k.Trials = math.MaxInt
	if n := MinEvents(cfg, []Assignment{{IP: cfg.IPs[0].Name, Kernel: k}, {IP: cfg.IPs[0].Name, Kernel: k}}); n != math.MaxInt {
		t.Errorf("overflowing MinEvents = %d, want math.MaxInt", n)
	}
}
