// Package mem provides the bandwidth-server building blocks of the
// simulated SoC's memory system: FIFO resources with a service rate
// (links, fabrics, the DRAM controller, and compute engines alike), chained
// transfers across multi-hop paths, and a streaming cache model.
//
// A Server is a single-queue resource: a request of n units (bytes, or ops
// for compute servers) occupies it for n/capacity seconds after any queued
// work ahead of it. Shared servers therefore produce contention naturally:
// two IPs pushing chunks through the same DRAM server each see roughly half
// its capacity, which is exactly the mechanism behind the Gables paper's
// shared-Bpeak bound and its Figure 8 mixing results.
//
// The hot path is allocation-lean: the server's queue is an index-based
// ring buffer (no per-request boxing, no head-retaining reslicing), each
// service completion reuses one pre-bound callback per server, and Transfer
// threads a chunk through its hops with a single pooled state object
// instead of a closure per hop.
package mem

import (
	"fmt"
	"math"
	"sync"

	"github.com/gables-model/gables/internal/sim/engine"
	"github.com/gables-model/gables/internal/sim/trace"
)

// Server is a FIFO bandwidth resource. Requests queue and are serviced one
// at a time; a request's service time is computed when its service
// *starts*, so capacity changes (DVFS throttling) apply to queued work, not
// only to work admitted later.
type Server struct {
	// owner and role make up the label, "owner:role" ("CPU:compute",
	// "fabric:system"), or owner alone when role is empty ("dram"). name
	// joins them on first use — errors and probes — so building a server
	// allocates no string.
	owner, role string
	name        string
	eng         *engine.Engine
	capacity    float64 // units per second

	// buf is an index-based ring buffer: head is the next request to
	// service, count the number queued. Growing copies into a larger
	// ring; steady state allocates nothing.
	buf   []request
	head  int
	count int

	active     bool
	onServiced func() // pre-bound completion callback, one per server
	batch      []func()
	coalesce   bool

	// probe, when non-nil, observes enqueues and service windows. The
	// nil fast path is a single branch per site (the zero-overhead
	// tracing contract); probes are observe-only and cannot perturb the
	// schedule.
	probe trace.Probe

	busy   float64 // total busy seconds
	served float64 // total units served
}

type request struct {
	amount float64
	done   func()
}

// NewServer creates a server with the given capacity in units/second,
// labelled "owner:role", or owner alone when role is empty.
func NewServer(eng *engine.Engine, owner, role string, capacity float64) (*Server, error) {
	s := &Server{owner: owner, role: role, eng: eng, capacity: capacity}
	if eng == nil {
		return nil, fmt.Errorf("mem: server %q: nil engine", s.Name())
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("mem: server %q: capacity must be positive and finite, got %v", s.Name(), capacity)
	}
	s.onServiced = s.serviced
	return s, nil
}

// Name returns the server's label, joining it on the first call.
func (s *Server) Name() string {
	if s.name == "" {
		s.name = s.owner
		if s.role != "" {
			s.name = s.owner + ":" + s.role
		}
	}
	return s.name
}

// Now returns the engine's current simulated time (for observers that hold
// a server but not its engine, like an in-flight transfer).
func (s *Server) Now() engine.Time { return s.eng.Now() }

// SetProbe attaches (or, with nil, detaches) a trace probe observing this
// server's queue and service windows.
func (s *Server) SetProbe(p trace.Probe) { s.probe = p }

// Capacity returns the current service rate.
func (s *Server) Capacity() float64 { return s.capacity }

// SetCapacity changes the service rate (the DVFS governor's hook). The new
// rate applies to every service that starts afterwards, including requests
// already waiting in the queue; only the request being serviced right now
// keeps its original timing.
func (s *Server) SetCapacity(c float64) error {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("mem: server %q: capacity must be positive and finite, got %v", s.Name(), c)
	}
	s.capacity = c
	return nil
}

// SetCoalescing toggles completion coalescing. A coalescing server starts
// every request queued at service start as one batch and fires their
// completions together — in FIFO order, at the exact instant the last
// batched request would have completed on its own — scheduling one engine
// event per batch instead of one per request.
//
// Coalescing is only sound for *sink* servers: completions that do nothing
// but account (an IP's private compute server outside coordination runs).
// A completion that forwards work to another server must fire at its own
// instant, and a batch locks in the capacity at batch start, so coalescing
// must stay off wherever DVFS can retime queued work (thermal runs).
func (s *Server) SetCoalescing(on bool) { s.coalesce = on }

// Request enqueues amount units of service and calls done when it
// completes. Zero-amount requests complete after any queued work, with no
// service time of their own.
func (s *Server) Request(amount float64, done func()) error {
	if amount < 0 || math.IsNaN(amount) || math.IsInf(amount, 0) {
		//lint:ignore allocfree cold validation branch; chained transfers pre-validate every hop, so the steady state never takes it
		return fmt.Errorf("mem: server %q: amount must be non-negative and finite, got %v", s.Name(), amount)
	}
	if done == nil {
		//lint:ignore allocfree cold validation branch; chained transfers pre-validate every hop, so the steady state never takes it
		return fmt.Errorf("mem: server %q: nil completion", s.Name())
	}
	s.push(request{amount: amount, done: done})
	if s.probe != nil {
		s.probe.Enqueued(s.Name(), float64(s.eng.Now()), amount, s.count)
	}
	if !s.active {
		s.startNext()
	}
	return nil
}

// push appends to the ring buffer, growing it when full.
func (s *Server) push(r request) {
	if s.count == len(s.buf) {
		s.grow()
	}
	i := s.head + s.count
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	s.buf[i] = r
	s.count++
}

// popFront removes and returns the queue head, clearing the vacated slot
// so completed closures do not linger in the ring.
func (s *Server) popFront() request {
	r := s.buf[s.head]
	s.buf[s.head] = request{}
	s.head++
	if s.head == len(s.buf) {
		s.head = 0
	}
	s.count--
	return r
}

// grow doubles the ring, unwrapping it so head returns to zero.
func (s *Server) grow() {
	n := len(s.buf) * 2
	if n == 0 {
		n = 8
	}
	next := make([]request, n)
	copied := copy(next, s.buf[s.head:])
	copy(next[copied:], s.buf[:s.head])
	s.buf = next
	s.head = 0
}

// startNext begins servicing the queue head, if any. A coalescing server
// drains the whole queue into one batch; the batch's single event fires at
// the same instant — computed by the same sequence of time additions, so
// bitwise identical — as the last request's individual completion would
// have.
func (s *Server) startNext() {
	if s.count == 0 {
		s.active = false
		return
	}
	s.active = true
	n := 1
	if s.coalesce {
		n = s.count
	}
	at := s.eng.Now()
	for i := 0; i < n; i++ {
		r := s.popFront()
		service := engine.Time(r.amount / s.capacity)
		if s.probe != nil {
			// Per-request windows, with or without coalescing: the
			// window arithmetic below is unchanged either way, so the
			// observed busy windows are identical too.
			s.probe.ServiceStart(s.Name(), float64(at), float64(service), r.amount, s.count)
		}
		at += service
		s.busy += float64(service)
		s.served += r.amount
		//lint:ignore allocfree batch is retained across batches and reset via [:0]; capacity stops growing once it has seen the largest batch the run coalesces
		s.batch = append(s.batch, r.done)
	}
	// Time and engine state are valid by construction; a scheduling
	// failure here is a programming error.
	if err := s.eng.Schedule(at, s.onServiced); err != nil {
		//lint:ignore allocfree unreachable programming-error path; boxing on the way to a panic does not touch the steady state
		panic(fmt.Sprintf("mem: server %q: %v", s.Name(), err))
	}
}

// serviced fires the completed batch's callbacks in FIFO order, then
// services whatever queued up in the meantime. The server stays active
// while callbacks run, so re-entrant Requests (a cache completion launching
// the next cached chunk) enqueue instead of recursing into startNext.
//
//gables:allocfree
func (s *Server) serviced() {
	for i := 0; i < len(s.batch); i++ {
		done := s.batch[i]
		s.batch[i] = nil
		done()
	}
	s.batch = s.batch[:0]
	s.startNext()
}

// Served returns the total units served so far.
func (s *Server) Served() float64 { return s.served }

// BusyTime returns the total seconds the server has been busy.
func (s *Server) BusyTime() float64 { return s.busy }

// Utilization returns busy time over elapsed time at the horizon, in
// [0, ~1] (slightly above 1 is possible when admitted work extends past the
// horizon).
func (s *Server) Utilization(horizon engine.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return s.busy / float64(horizon)
}

// Hop is one stage of a transfer path: a server and the amount of service
// the transfer consumes there. Amounts can differ per hop — a DRAM
// controller may charge writes more than reads, and host-staged transfers
// cross the memory twice.
type Hop struct {
	Server *Server
	Amount float64
}

// transfer is the reusable state of one in-flight Transfer: the hop cursor
// plus a single pre-bound step callback shared by every hop, so an N-hop
// chunk costs O(1) allocations (amortized zero via the pool) instead of a
// closure per hop.
type transfer struct {
	hops []Hop
	i    int
	done func()
	step func() // pre-bound t.advance, created once per pooled object

	// probe, when non-nil, observes the chunk's per-hop lifecycle on
	// behalf of the owning IP's pipeline slot (ip/slot label the track).
	probe trace.Probe
	ip    string
	slot  int
}

// transferPool recycles transfer states. step is bound on first use (not
// in New: a method value referring back to the pool would be an
// initialization cycle) and survives round-trips through the pool.
var transferPool = sync.Pool{New: func() any { return new(transfer) }}

// start requests the current hop's service with the shared step callback.
// Request errors are validated by Transfer before the chain starts; a
// failure here is a programming error surfaced by the panic rather than a
// silently dropped chunk.
func (t *transfer) start() {
	h := t.hops[t.i]
	if t.probe != nil {
		t.probe.HopStart(t.ip, t.slot, t.i, h.Server.Name(), float64(h.Server.Now()), h.Amount)
	}
	if err := h.Server.Request(h.Amount, t.step); err != nil {
		//lint:ignore allocfree unreachable programming-error path; boxing on the way to a panic does not touch the steady state
		panic(fmt.Sprintf("mem: transfer hop %d: %v", t.i, err))
	}
}

// advance moves to the next hop, or finishes. The state object is returned
// to the pool *before* done runs so a completion that immediately starts
// another transfer can reuse it.
//
//gables:allocfree
func (t *transfer) advance() {
	if t.probe != nil {
		h := t.hops[t.i]
		t.probe.HopDone(t.ip, t.slot, t.i, h.Server.Name(), float64(h.Server.Now()))
	}
	t.i++
	if t.i < len(t.hops) {
		t.start()
		return
	}
	done := t.done
	t.hops, t.done = nil, nil
	t.probe, t.ip, t.slot = nil, "", 0
	transferPool.Put(t)
	done()
}

// Transfer moves a request through the hops in order — each hop's service
// begins when the previous hop completes — and calls done at the end.
// Different transfers overlap across hops, so a chain of servers behaves
// like a pipeline whose throughput is set by its busiest stage.
//
// The hops slice is borrowed until done fires; callers reusing a backing
// array (the IP pipeline's per-slot scratch) must not overwrite it before
// then.
func Transfer(hops []Hop, done func()) error {
	return TransferTraced(hops, done, nil, "", 0)
}

// TransferTraced is Transfer with an optional observe-only probe: each
// hop's start (request issued) and finish (service complete) is emitted on
// the (ip, slot) track. A nil probe is exactly Transfer — the hot path
// pays one branch per hop transition and nothing else.
func TransferTraced(hops []Hop, done func(), p trace.Probe, ip string, slot int) error {
	if done == nil {
		return fmt.Errorf("mem: transfer: nil completion")
	}
	if len(hops) == 0 {
		return fmt.Errorf("mem: transfer: no hops")
	}
	for i, h := range hops {
		if h.Server == nil {
			return fmt.Errorf("mem: transfer: hop %d has nil server", i)
		}
		// Validate every amount before starting so no partial transfer
		// runs.
		if h.Amount < 0 || math.IsNaN(h.Amount) || math.IsInf(h.Amount, 0) {
			return fmt.Errorf("mem: transfer: hop %d amount %v invalid", i, h.Amount)
		}
	}
	t := transferPool.Get().(*transfer)
	if t.step == nil {
		t.step = t.advance
	}
	t.hops, t.i, t.done = hops, 0, done
	t.probe, t.ip, t.slot = p, ip, slot
	t.start()
	return nil
}

// Cache is a streaming cache model for the Algorithm 1 micro-benchmark
// pattern: a sequential scan over a working set of W bytes, repeated for
// several trials. Under LRU, a scan larger than the cache thrashes — every
// access misses on every trial — while a scan that fits is all hits after
// the first (warmup) trial. This cliff is the mechanism that lets the
// §IV method find an IP's DRAM bandwidth (large W) and cache bandwidth
// (small W) with the same kernel.
type Cache struct {
	// Size is the capacity in bytes.
	Size float64
	// Server models hit bandwidth: a private resource, uncontended by
	// other IPs.
	Server *Server
}

// NewCache builds a cache with the given size and hit bandwidth; its
// server is labelled "owner:cache".
func NewCache(eng *engine.Engine, owner string, size, hitBandwidth float64) (*Cache, error) {
	if size <= 0 || math.IsNaN(size) || math.IsInf(size, 0) {
		return nil, fmt.Errorf("mem: cache %q: size must be positive and finite, got %v", owner, size)
	}
	srv, err := NewServer(eng, owner, "cache", hitBandwidth)
	if err != nil {
		return nil, err
	}
	return &Cache{Size: size, Server: srv}, nil
}

// Hits reports whether a streaming working set of w bytes is served from
// the cache on trial number `trial` (0-based): only when it fits and the
// warmup trial has passed.
func (c *Cache) Hits(w float64, trial int) bool {
	return w <= c.Size && trial > 0
}
