package simcache

import (
	"sync/atomic"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/units"
)

// The grid benchmarks measure the cache's headline effect on the harness's
// dominant workload shape: a repeated (intensity x working-set) sweep over
// a simulated chip, like the erb roofline and mixing grids. ColdGrid
// recomputes every cell each iteration (cache reset per iteration);
// WarmGrid replays the identical grid from the memory layer. The
// acceptance bar is warm >= 5x faster than cold.

// benchCells builds a 24-cell sweep on the Snapdragon 835 rig.
func benchCells() (sim.Config, [][]sim.Assignment) {
	cfg := sim.Snapdragon835()
	var cells [][]sim.Assignment
	for _, ws := range []units.Bytes{1 << 20, 4 << 20, 16 << 20} {
		for _, fpw := range []int{1, 4, 16, 64, 256, 1024} {
			k := kernel.Kernel{Name: "bench", WorkingSet: ws, Trials: 2,
				FlopsPerWord: fpw, Pattern: kernel.ReadWrite}
			cells = append(cells, []sim.Assignment{{IP: "CPU", Kernel: k}})
		}
	}
	for _, fpw := range []int{1, 16, 256} {
		k := kernel.Kernel{Name: "bench", WorkingSet: 4 << 20, Trials: 2,
			FlopsPerWord: fpw, Pattern: kernel.StreamCopy}
		cells = append(cells, []sim.Assignment{{IP: "GPU", Kernel: k}})
		cells = append(cells, []sim.Assignment{{IP: "DSP", Kernel: k}})
	}
	return cfg, cells
}

func runGrid(b *testing.B, cfg sim.Config, cells [][]sim.Assignment) {
	b.Helper()
	for _, cell := range cells {
		res, err := Run(cfg, cell, sim.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Makespan <= 0 {
			b.Fatal("degenerate cell result")
		}
	}
}

func BenchmarkCacheColdGrid(b *testing.B) {
	cfg, cells := benchCells()
	ResetDefault()
	defer ResetDefault()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResetDefault()
		runGrid(b, cfg, cells)
	}
}

func BenchmarkCacheWarmGrid(b *testing.B) {
	cfg, cells := benchCells()
	ResetDefault()
	defer ResetDefault()
	runGrid(b, cfg, cells) // populate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runGrid(b, cfg, cells)
	}
	b.StopTimer()
	if s := DefaultStats(); s.Hits == 0 || s.Evictions > 0 {
		b.Fatalf("warm grid must run entirely from the memory layer (stats %+v)", s)
	}
}

// BenchmarkCacheContention measures warm-hit throughput under parallel
// load: every Get takes the cache's one lock, so this is the number to
// watch if contention ever binds. Keys are picked deterministically
// (per-goroutine counters, no rand).
func BenchmarkCacheContention(b *testing.B) {
	const keys = 1024
	c := New[int](Options{Capacity: 4 * keys})
	keyset := make([]string, keys)
	for i := range keyset {
		k, err := Key("contention", i)
		if err != nil {
			b.Fatal(err)
		}
		keyset[i] = k
		if _, err := c.Get(k, func() (int, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7919 // offset goroutines into the keyset
		for pb.Next() {
			k := keyset[i%keys]
			i++
			if _, err := c.Get(k, func() (int, error) { return 0, nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if s := c.Stats(); s.Misses != keys || s.Evictions != 0 {
		b.Fatalf("contention run must be all warm hits (stats %+v)", s)
	}
}
