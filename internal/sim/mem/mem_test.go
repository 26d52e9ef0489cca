package mem

import (
	"math"
	"testing"

	"github.com/gables-model/gables/internal/sim/engine"
)

func server(t *testing.T, eng *engine.Engine, name string, cap float64) *Server {
	t.Helper()
	s, err := NewServer(eng, name, "", cap)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerValidation(t *testing.T) {
	eng := engine.New()
	if _, err := NewServer(nil, "x", "", 1); err == nil {
		t.Error("nil engine must be rejected")
	}
	if _, err := NewServer(eng, "x", "", 0); err == nil {
		t.Error("zero capacity must be rejected")
	}
	if _, err := NewServer(eng, "x", "", math.Inf(1)); err == nil {
		t.Error("infinite capacity must be rejected")
	}
	s := server(t, eng, "x", 10)
	if err := s.Request(-1, func() {}); err == nil {
		t.Error("negative amount must be rejected")
	}
	if err := s.Request(1, nil); err == nil {
		t.Error("nil completion must be rejected")
	}
	if err := s.SetCapacity(-1); err == nil {
		t.Error("negative capacity must be rejected")
	}
}

func TestServerServiceTime(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "dram", 10e9) // 10 GB/s
	var doneAt engine.Time
	if err := s.Request(1e6, func() { doneAt = eng.Now() }); err != nil { // 1 MB
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := engine.Time(1e6 / 10e9)
	if math.Abs(float64(doneAt-want)) > 1e-15 {
		t.Errorf("done at %v, want %v", doneAt, want)
	}
	if s.Served() != 1e6 {
		t.Errorf("served = %v", s.Served())
	}
}

func TestServerFIFOQueueing(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "link", 1e9)
	var first, second engine.Time
	if err := s.Request(1e6, func() { first = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := s.Request(1e6, func() { second = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(first)-1e-3) > 1e-12 {
		t.Errorf("first done at %v, want 1ms", first)
	}
	if math.Abs(float64(second)-2e-3) > 1e-12 {
		t.Errorf("second done at %v, want 2ms (queued)", second)
	}
	if u := s.Utilization(second); math.Abs(u-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1", u)
	}
}

func TestContentionHalvesThroughput(t *testing.T) {
	// Two producers interleaving chunks through one server each get
	// half its capacity: after both push 10 MB, 20 MB total has moved
	// at 10 GB/s → 2 ms, i.e., each saw 5 GB/s.
	eng := engine.New()
	s := server(t, eng, "dram", 10e9)
	const chunk = 1e6
	var finishA, finishB engine.Time
	var pushed [2]int
	var push func(id int, finish *engine.Time)
	push = func(id int, finish *engine.Time) {
		if pushed[id] == 10 {
			*finish = eng.Now()
			return
		}
		pushed[id]++
		if err := s.Request(chunk, func() { push(id, finish) }); err != nil {
			t.Error(err)
		}
	}
	push(0, &finishA)
	push(1, &finishB)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	elapsed := float64(max(finishA, finishB))
	if math.Abs(elapsed-2e-3) > 1e-9 {
		t.Errorf("elapsed = %v, want 2ms", elapsed)
	}
	perProducer := 10 * chunk / elapsed
	if math.Abs(perProducer-5e9) > 1e6 {
		t.Errorf("per-producer rate = %v, want 5 GB/s", perProducer)
	}
}

func TestSetCapacity(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "cpu", 10)
	if err := s.SetCapacity(5); err != nil {
		t.Fatal(err)
	}
	var doneAt engine.Time
	if err := s.Request(10, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(doneAt)-2) > 1e-12 {
		t.Errorf("done at %v, want 2 (10 units at capacity 5)", doneAt)
	}
}

func TestZeroAmountRequest(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "x", 10)
	called := false
	if err := s.Request(0, func() { called = true }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("zero-amount request must still complete")
	}
	if eng.Now() != 0 {
		t.Errorf("zero request must take no time, now = %v", eng.Now())
	}
}

// TestRingWraparound cycles far more requests through the server than the
// ring's initial capacity, refilling from completions so head and tail
// wrap repeatedly, and asserts strict FIFO completion order and exact
// service timing throughout.
func TestRingWraparound(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "x", 10)
	const total = 100
	var order []int
	issued := 0
	var issue func()
	issue = func() {
		id := issued
		issued++
		if err := s.Request(1, func() {
			order = append(order, id)
			// Keep 3 in flight so the queue stays partially full while
			// the head advances — the wraparound regime.
			if issued < total {
				issue()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		issue()
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != total {
		t.Fatalf("completed %d requests, want %d", len(order), total)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("completion order[%d] = %d, want FIFO", i, id)
		}
	}
	// 100 requests of 1 unit at 10 units/s, serviced back to back.
	if math.Abs(float64(eng.Now())-10) > 1e-9 {
		t.Errorf("drained at t=%v, want 10", eng.Now())
	}
	if s.Served() != total {
		t.Errorf("served = %v, want %d", s.Served(), total)
	}
}

// TestRingGrowWithWrappedHead floods a server whose ring head has already
// advanced (so growing must unwrap the buffer) and checks nothing is lost
// or reordered.
func TestRingGrowWithWrappedHead(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "x", 1)
	var order []int
	record := func(id int) func() { return func() { order = append(order, id) } }
	// Advance the head a few slots.
	for i := 0; i < 5; i++ {
		if err := s.Request(1, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunUntil(3.5); err != nil { // 3 of 5 completed, head=4-ish
		t.Fatal(err)
	}
	// Flood past any initial capacity while requests are still queued:
	// the ring must grow with head > 0 and stay FIFO.
	for i := 5; i < 40; i++ {
		if err := s.Request(1, record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 40 {
		t.Fatalf("completed %d, want 40", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order[%d] = %d, want FIFO across the grow", i, id)
		}
	}
}

// TestInterleavedRequestSetCapacityReset drives the documented contract
// through the ring buffer: capacity changes apply to every service that
// starts afterwards (queued work included, the in-flight request keeps its
// timing), and a drained ring resets to idle, so the next request starts
// at once and accounting keeps accumulating.
func TestInterleavedRequestSetCapacityReset(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "dvfs", 10)
	var times []engine.Time
	mark := func() { times = append(times, eng.Now()) }
	// Three 10-unit requests at capacity 10: services would end at 1, 2, 3.
	for i := 0; i < 3; i++ {
		if err := s.Request(10, mark); err != nil {
			t.Fatal(err)
		}
	}
	// Halve the rate while the first request is being serviced: it keeps
	// its timing (ends at 1), the queued two take 2s each (end at 3, 5).
	if _, err := eng.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCapacity(5); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5}
	if len(times) != len(want) {
		t.Fatalf("completions = %v, want %v", times, want)
	}
	for i := range want {
		if math.Abs(float64(times[i])-want[i]) > 1e-12 {
			t.Fatalf("completions = %v, want %v", times, want)
		}
	}
	if math.Abs(s.BusyTime()-5) > 1e-12 {
		t.Errorf("busy = %v, want 5", s.BusyTime())
	}

	// Idle now: the next request reuses the same ring and starts at once.
	var doneAt engine.Time
	start := eng.Now()
	if err := s.Request(5, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(doneAt-start)-1) > 1e-12 {
		t.Errorf("post-drain service took %v, want 1 (5 units at capacity 5)", doneAt-start)
	}
	if s.Served() != 35 || math.Abs(s.BusyTime()-6) > 1e-12 {
		t.Errorf("served %v busy %v, want 35 and 6", s.Served(), s.BusyTime())
	}
}

// TestCoalescingMatchesUncoalesced runs the same queued workload through a
// coalescing and a plain server and asserts identical completion order,
// identical final completion instants (bitwise, by construction), and
// identical accounting.
func TestCoalescingMatchesUncoalesced(t *testing.T) {
	run := func(coalesce bool) (order []int, last engine.Time, busy, served float64, events int) {
		eng := engine.New()
		s := server(t, eng, "sink", 7)
		s.SetCoalescing(coalesce)
		issued := 0
		var issue func()
		issue = func() {
			id := issued
			issued++
			if err := s.Request(float64(1+id%3), func() {
				order = append(order, id)
				last = eng.Now()
				if issued < 50 {
					issue()
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			issue()
		}
		n, err := eng.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return order, last, s.BusyTime(), s.Served(), n
	}
	po, pl, pb, ps, pe := run(false)
	co, cl, cb, cs, ce := run(true)
	if len(po) != len(co) {
		t.Fatalf("completions: %d plain vs %d coalesced", len(po), len(co))
	}
	for i := range po {
		if po[i] != co[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, po[i], co[i])
		}
	}
	if pl != cl {
		t.Errorf("final completion instant %v (plain) vs %v (coalesced): must be bitwise equal", pl, cl)
	}
	if pb != cb || ps != cs {
		t.Errorf("accounting differs: busy %v/%v served %v/%v", pb, cb, ps, cs)
	}
	if ce >= pe {
		t.Errorf("coalescing processed %d events, plain %d: batching must schedule fewer", ce, pe)
	}
}

func TestTransferPipeline(t *testing.T) {
	// Chain of two servers: a 2 GB/s link then a 10 GB/s DRAM. One
	// 2 MB transfer takes 1 ms + 0.2 ms.
	eng := engine.New()
	link := server(t, eng, "link", 2e9)
	dram := server(t, eng, "dram", 10e9)
	var doneAt engine.Time
	err := Transfer([]Hop{{link, 2e6}, {dram, 2e6}}, func() { doneAt = eng.Now() })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := 2e6/2e9 + 2e6/10e9
	if math.Abs(float64(doneAt)-want) > 1e-12 {
		t.Errorf("done at %v, want %v", doneAt, want)
	}
}

func TestTransferPipelinesOverlap(t *testing.T) {
	// Many chunks through link→dram: steady-state throughput equals the
	// slower stage (the link), not the sum of stage times.
	eng := engine.New()
	link := server(t, eng, "link", 2e9)
	dram := server(t, eng, "dram", 10e9)
	const chunk, n = 1e6, 20
	var finished int
	var finish engine.Time
	for i := 0; i < n; i++ {
		err := Transfer([]Hop{{link, chunk}, {dram, chunk}}, func() {
			finished++
			if finished == n {
				finish = eng.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	throughput := n * chunk / float64(finish)
	// Expect ≈ 2 GB/s (link bound), certainly well above the serial
	// 1/(1/2+1/10) = 1.67 GB/s.
	if throughput < 1.9e9 {
		t.Errorf("pipelined throughput = %v, want ~2 GB/s", throughput)
	}
}

func TestTransferValidation(t *testing.T) {
	eng := engine.New()
	s := server(t, eng, "x", 1)
	if err := Transfer(nil, func() {}); err == nil {
		t.Error("empty hops must be rejected")
	}
	if err := Transfer([]Hop{{s, 1}}, nil); err == nil {
		t.Error("nil done must be rejected")
	}
	if err := Transfer([]Hop{{nil, 1}}, func() {}); err == nil {
		t.Error("nil server must be rejected")
	}
	if err := Transfer([]Hop{{s, math.NaN()}}, func() {}); err == nil {
		t.Error("NaN amount must be rejected")
	}
}

func TestCache(t *testing.T) {
	eng := engine.New()
	c, err := NewCache(eng, "l2", 1e6, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits(2e6, 5) {
		t.Error("working set larger than cache must always miss")
	}
	if c.Hits(0.5e6, 0) {
		t.Error("first trial is warmup: must miss")
	}
	if !c.Hits(0.5e6, 1) {
		t.Error("fitting working set must hit after warmup")
	}
	if _, err := NewCache(eng, "bad", 0, 1); err == nil {
		t.Error("zero size must be rejected")
	}
	if _, err := NewCache(eng, "bad", 1, 0); err == nil {
		t.Error("zero bandwidth must be rejected")
	}
	if _, err := NewCache(eng, "bad", math.NaN(), 1); err == nil {
		t.Error("NaN size must be rejected")
	}
	if got := c.Server.Name(); got != "l2:cache" {
		t.Errorf("cache server label = %q, want l2:cache", got)
	}
}

// TestServerLabel checks the owner:role label the trace names servers by.
func TestServerLabel(t *testing.T) {
	eng := engine.New()
	for _, tc := range []struct{ owner, role, want string }{
		{"CPU", "compute", "CPU:compute"},
		{"fabric", "system", "fabric:system"},
		{"dram", "", "dram"},
	} {
		s, err := NewServer(eng, tc.owner, tc.role, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Name(); got != tc.want {
			t.Errorf("NewServer(%q, %q).Name() = %q, want %q", tc.owner, tc.role, got, tc.want)
		}
	}
}
