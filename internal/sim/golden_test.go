package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/units"
)

// runGoldenDigest is the sha256 of every RunResult and IPResult field over
// the TestRunGolden grid. Any change to event order or float arithmetic in
// the engine, the servers or the run graph shows up here.
const runGoldenDigest = "b85acd8273df062cc1ce5e817a21ba86ab8cb5f98adba58b8c3a593694bd2c1d"

// TestRunGolden pins the simulator's answers bitwise: 3 presets × 3
// working sets × 3 intensities × 6 IP sets × {plain, Coordination,
// Thermal} = 486 runs, hashed field by field as IEEE-754 bits.
func TestRunGolden(t *testing.T) {
	presets := []Config{Snapdragon835(), Snapdragon821(), Snapdragon835Extended()}
	workingSets := []int64{256 << 10, 4 << 20, 32 << 20}
	fpws := []int{1, 64, 4096}
	ipSets := [][]string{
		{"CPU"}, {"GPU"}, {"DSP"},
		{"CPU", "GPU"}, {"GPU", "DSP"}, {"CPU", "GPU", "DSP"},
	}
	opts := []RunOptions{{}, {Coordination: true}, {Thermal: true}}

	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	runs := 0
	for _, cfg := range presets {
		sys := mustSystem(t, cfg)
		for _, ws := range workingSets {
			for _, fpw := range fpws {
				k := kernel.Kernel{Name: "golden", WorkingSet: units.Bytes(ws), Trials: 2,
					FlopsPerWord: fpw, Pattern: kernel.ReadWrite}
				for _, ips := range ipSets {
					as := make([]Assignment, len(ips))
					for i, name := range ips {
						as[i] = Assignment{IP: name, Kernel: k}
					}
					for _, opt := range opts {
						res, err := sys.Run(as, opt)
						if err != nil {
							t.Fatalf("%s %v ws=%d fpw=%d %+v: %v", cfg.Name, ips, ws, fpw, opt, err)
						}
						runs++
						put(res.Makespan)
						put(res.TotalFlops)
						put(res.Rate)
						put(res.DRAMUtilization)
						for _, r := range res.IPs {
							h.Write([]byte(r.IP))
							put(r.Flops)
							put(r.Bytes)
							put(r.Time)
							put(r.Rate)
							put(r.Bandwidth)
							put(r.MaxTemp)
							if r.Throttled {
								h.Write([]byte{1})
							} else {
								h.Write([]byte{0})
							}
						}
					}
				}
			}
		}
	}
	if runs != 486 {
		t.Fatalf("ran %d configurations, want 486", runs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != runGoldenDigest {
		t.Errorf("run digest = %s, want %s", got, runGoldenDigest)
	}
}
