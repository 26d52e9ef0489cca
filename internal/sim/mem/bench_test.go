package mem

import (
	"testing"

	"github.com/gables-model/gables/internal/sim/engine"
)

// BenchmarkServerThroughput measures the cost of one serviced request on a
// busy server: the self-refilling pattern keeps the ring buffer occupied.
func BenchmarkServerThroughput(b *testing.B) {
	eng := engine.New()
	s, err := NewServer(eng, "dram", "", 1e12)
	if err != nil {
		b.Fatal(err)
	}
	remaining := b.N
	var refill func()
	refill = func() {
		remaining--
		if remaining > 0 {
			if err := s.Request(1e6, refill); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Request(1e6, refill); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTransferPipeline measures a three-hop chunk transfer
// (link → fabric → dram), the simulator's hot path, end to end.
func BenchmarkTransferPipeline(b *testing.B) {
	eng := engine.New()
	link, err := NewServer(eng, "link", "", 20e9)
	if err != nil {
		b.Fatal(err)
	}
	fabric, err := NewServer(eng, "fabric", "", 28e9)
	if err != nil {
		b.Fatal(err)
	}
	dram, err := NewServer(eng, "dram", "", 30e9)
	if err != nil {
		b.Fatal(err)
	}
	hops := []Hop{{link, 256 << 10}, {fabric, 256 << 10}, {dram, 256 << 10}}
	remaining := b.N
	var refill func()
	refill = func() {
		remaining--
		if remaining > 0 {
			if err := Transfer(hops, refill); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := Transfer(hops, refill); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerCoalesced measures the batched completion path a sink
// compute server takes: many requests queued at once complete as one
// engine event per busy period.
func BenchmarkServerCoalesced(b *testing.B) {
	eng := engine.New()
	s, err := NewServer(eng, "compute", "", 1e12)
	if err != nil {
		b.Fatal(err)
	}
	s.SetCoalescing(true)
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 64
	for i := 0; i < b.N; i += batch {
		n := batch
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			if err := s.Request(1e3, done); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}
