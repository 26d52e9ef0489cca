package sim

import (
	"testing"

	"github.com/gables-model/gables/internal/kernel"
)

// TestRunAllocs pins the cost of building a system and its run graph: New
// only checks the configuration, and Run builds the DRAM controller, the
// fabrics and the assigned IPs once. The kernel is BenchmarkSimKernel's.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	cfg := Snapdragon835()
	if n := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("New: %v allocs, want at most 1", n)
	}

	sys := mustSystem(t, cfg)
	k := kernel.Kernel{Name: "bench", WorkingSet: 4 << 20, Trials: 2,
		FlopsPerWord: 8, Pattern: kernel.ReadWrite}
	for _, tc := range []struct {
		ips []string
		max float64
	}{
		{[]string{"CPU"}, 70},
		{[]string{"CPU", "GPU"}, 125},
	} {
		as := make([]Assignment, len(tc.ips))
		for i, name := range tc.ips {
			as[i] = Assignment{IP: name, Kernel: k}
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := sys.Run(as, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.max {
			t.Errorf("Run %v: %v allocs, want at most %v", tc.ips, n, tc.max)
		}
	}
}
