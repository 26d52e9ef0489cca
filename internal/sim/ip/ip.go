// Package ip models one IP block of the simulated SoC executing the
// Algorithm 1 micro-benchmark: a compute engine (a FIFO server in ops/s), a
// link to the interconnect (bytes/s, with an optional write penalty that
// models read-modify-write turnaround at the block's memory interface), a
// private streaming cache, and a chunked transfer pipeline with a bounded
// number of outstanding chunks.
//
// A kernel is split into chunks; each chunk's data traverses
// link → fabric(s) → DRAM (or the private cache when the working set fits),
// then its computation queues on the compute server. Transfers of later
// chunks overlap the computation of earlier ones — the double-buffering
// every real streaming engine uses — so an IP's achieved rate converges to
// min(compute, bandwidth·intensity): its roofline emerges from the
// mechanism rather than being asserted.
//
// When offload coordination is enabled (the mixing experiments of §IV-C),
// each chunk is first serviced by the *host CPU's* compute server at a
// configurable ops-per-byte cost, modeling the paper's §II-B third
// bottleneck: IPs are exposed as devices whose buffers and completions the
// CPU must shepherd.
package ip

import (
	"fmt"
	"math"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim/engine"
	"github.com/gables-model/gables/internal/sim/mem"
	"github.com/gables-model/gables/internal/sim/trace"
)

// Config parameterizes an IP block.
type Config struct {
	// Name labels the block.
	Name string
	// ComputeRate is peak computation in ops/s.
	ComputeRate float64
	// LinkBandwidth is the block's interconnect link in bytes/s.
	LinkBandwidth float64
	// WritePenalty multiplies the link service cost of written bytes;
	// 1 means writes cost the same as reads. The paper's CPU measures
	// 15.1 GB/s read+write against ~20 GB/s read-only, which a penalty
	// of ~1.65 reproduces.
	WritePenalty float64
	// CacheSize is the private cache capacity in bytes; 0 disables it.
	CacheSize float64
	// CacheBandwidth is hit bandwidth in bytes/s; required if CacheSize
	// is set.
	CacheBandwidth float64
	// ChunkBytes is the pipeline granularity; defaults to
	// DefaultChunkBytes.
	ChunkBytes float64
	// MaxInflight bounds outstanding chunk transfers; defaults to 4.
	MaxInflight int
	// CoordinationOpsPerByte is the host-CPU cost of shepherding each
	// byte this block moves when coordination is enabled: driver calls,
	// buffer management, completion interrupts. Zero for the host
	// itself.
	CoordinationOpsPerByte float64
	// MemoryLatency is the fixed round-trip latency a miss chunk pays
	// on top of its bandwidth service time, in seconds. With latency,
	// achievable bandwidth is capped near
	// MaxInflight·ChunkBytes/(latency + service): a shallow outstanding
	// window (latency *reduction* designs, like cached CPUs) starves,
	// while a deep window (latency *tolerance* designs, like GPUs)
	// sustains the link — the §III-C contrast. Zero disables it.
	MemoryLatency float64
}

// DefaultChunkBytes is the pipeline granularity used when
// Config.ChunkBytes is zero.
const DefaultChunkBytes = 256 * 1024

func (c *Config) applyDefaults() {
	if c.WritePenalty == 0 {
		c.WritePenalty = 1
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = DefaultChunkBytes
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4
	}
}

// Validate checks the configuration, applying defaults to a local copy
// first so zero-valued optional fields are legal. Every float field must be
// finite.
func (c Config) Validate() error {
	c.applyDefaults()
	if c.Name == "" {
		return fmt.Errorf("ip: config with empty name")
	}
	for _, f := range [...]struct {
		field string
		v     float64
	}{
		{"ComputeRate", c.ComputeRate},
		{"LinkBandwidth", c.LinkBandwidth},
		{"WritePenalty", c.WritePenalty},
		{"CacheSize", c.CacheSize},
		{"CacheBandwidth", c.CacheBandwidth},
		{"ChunkBytes", c.ChunkBytes},
		{"CoordinationOpsPerByte", c.CoordinationOpsPerByte},
		{"MemoryLatency", c.MemoryLatency},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("ip: %s: %s must be finite, got %v", c.Name, f.field, f.v)
		}
	}
	if c.ComputeRate <= 0 {
		return fmt.Errorf("ip: %s: compute rate must be positive", c.Name)
	}
	if c.LinkBandwidth <= 0 {
		return fmt.Errorf("ip: %s: link bandwidth must be positive", c.Name)
	}
	if c.WritePenalty < 1 {
		return fmt.Errorf("ip: %s: write penalty must be at least 1, got %v", c.Name, c.WritePenalty)
	}
	if c.CacheSize < 0 || (c.CacheSize > 0 && c.CacheBandwidth <= 0) {
		return fmt.Errorf("ip: %s: cache needs positive size and bandwidth", c.Name)
	}
	if c.ChunkBytes <= 0 {
		return fmt.Errorf("ip: %s: chunk size must be positive", c.Name)
	}
	if c.MaxInflight < 1 {
		return fmt.Errorf("ip: %s: need at least one outstanding chunk", c.Name)
	}
	if c.CoordinationOpsPerByte < 0 {
		return fmt.Errorf("ip: %s: coordination cost must be non-negative", c.Name)
	}
	if c.MemoryLatency < 0 {
		return fmt.Errorf("ip: %s: memory latency must be non-negative", c.Name)
	}
	return nil
}

// IP is an instantiated block.
type IP struct {
	cfg        Config
	eng        *engine.Engine
	compute    *mem.Server
	link       *mem.Server
	cache      *mem.Cache
	fabricPath []*mem.Server
	dram       *mem.Server

	// probe, when non-nil, observes the block's chunk pipeline and its
	// private servers. Observe-only; nil costs one branch per emission
	// site.
	probe trace.Probe

	flopsDone  float64
	bytesMoved float64
}

// New instantiates the block on the engine. fabricPath lists the fabric
// servers between the block's link and the DRAM controller (may be empty;
// the block only reads it, so it may be shared); dram is the shared memory
// controller server.
func New(eng *engine.Engine, cfg Config, fabricPath []*mem.Server, dram *mem.Server) (*IP, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("ip: %s: nil engine", cfg.Name)
	}
	if dram == nil {
		return nil, fmt.Errorf("ip: %s: nil DRAM server", cfg.Name)
	}
	compute, err := mem.NewServer(eng, cfg.Name, "compute", cfg.ComputeRate)
	if err != nil {
		return nil, err
	}
	link, err := mem.NewServer(eng, cfg.Name, "link", cfg.LinkBandwidth)
	if err != nil {
		return nil, err
	}
	b := &IP{cfg: cfg, eng: eng, compute: compute, link: link, fabricPath: fabricPath, dram: dram}
	if cfg.CacheSize > 0 {
		b.cache, err = mem.NewCache(eng, cfg.Name, cfg.CacheSize, cfg.CacheBandwidth)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Name returns the block's label.
func (b *IP) Name() string { return b.cfg.Name }

// Config returns the block's configuration (post-defaults).
func (b *IP) Config() Config { return b.cfg }

// OpsDone returns cumulative operations completed (thermal.Target).
func (b *IP) OpsDone() float64 { return b.flopsDone }

// BytesMoved returns cumulative data moved, counting actual bytes (the
// write penalty inflates service time, not this count).
func (b *IP) BytesMoved() float64 { return b.bytesMoved }

// ComputeServer exposes the compute resource, e.g. as the host server for
// other IPs' coordination costs.
func (b *IP) ComputeServer() *mem.Server { return b.compute }

// SetProbe attaches (or, with nil, detaches) a trace probe to the block's
// pipeline and to its private servers (compute, link, cache). The shared
// servers on the transfer path — fabrics and DRAM — belong to the system
// and get their probe there, so each service window is observed exactly
// once.
func (b *IP) SetProbe(p trace.Probe) {
	b.probe = p
	b.compute.SetProbe(p)
	b.link.SetProbe(p)
	if b.cache != nil {
		b.cache.Server.SetProbe(p)
	}
}

// SetFrequencyScale scales the compute clock (thermal.Target).
func (b *IP) SetFrequencyScale(s float64) error {
	if s <= 0 || s > 1 || math.IsNaN(s) {
		return fmt.Errorf("ip: %s: frequency scale must be in (0,1], got %v", b.cfg.Name, s)
	}
	return b.compute.SetCapacity(b.cfg.ComputeRate * s)
}

// chunk describes one pipelined unit of kernel work.
type chunk struct {
	read, write float64 // bytes
	flops       float64
	cached      bool
}

// runState is the per-RunKernel bookkeeping: the chunk cursor, the
// completion count, and a FIFO of per-chunk flops mirroring the compute
// server's queue. The compute server services requests in issue order, so
// one shared pre-bound completion callback pops the matching flops from
// the front instead of carrying a closure per chunk.
type runState struct {
	b      *IP
	host   *mem.Server
	chunks []chunk

	next      int
	completed int
	done      func()

	flopsQ     []float64
	flopsHead  int
	onComputed func() // pre-bound rs.computed

	slots []slot
}

// slot is one of the MaxInflight pipeline positions. Each slot owns a
// fixed-capacity window of the run's hops array and two pre-bound
// callbacks, so launching a chunk allocates nothing: the slot is recycled
// the moment its previous chunk's data arrives.
type slot struct {
	rs   *runState
	c    chunk
	hops []mem.Hop

	idx int // pipeline position, labels this slot's trace track
	ci  int // index (within the run) of the chunk currently in flight

	onTransferDone func() // pre-bound sl.transferDone
	onArrived      func() // pre-bound sl.arrived
}

// RunKernel executes the kernel on the block and calls done when every
// chunk's computation has completed. host, when non-nil, is the host CPU
// compute server that coordination costs are charged to (enable it for
// offloaded mixing runs; leave nil for device-resident roofline runs and
// for the host itself).
func (b *IP) RunKernel(k kernel.Kernel, host *mem.Server, done func()) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if done == nil {
		return fmt.Errorf("ip: %s: nil completion", b.cfg.Name)
	}
	chunks := b.buildChunks(k)
	if len(chunks) == 0 {
		return fmt.Errorf("ip: %s: kernel %s produced no work", b.cfg.Name, k.Name)
	}

	inflight := b.cfg.MaxInflight
	if inflight > len(chunks) {
		inflight = len(chunks)
	}
	rs := &runState{b: b, host: host, chunks: chunks, done: done,
		flopsQ: make([]float64, 0, inflight), slots: make([]slot, inflight)}
	rs.onComputed = rs.computed
	// The longest chunk path is host, link, every fabric and DRAM.
	perSlot := 3 + len(b.fabricPath)
	hops := make([]mem.Hop, inflight*perSlot)
	for i := range rs.slots {
		sl := &rs.slots[i]
		sl.rs = rs
		sl.idx = i
		sl.hops = hops[i*perSlot : i*perSlot : (i+1)*perSlot]
		sl.onTransferDone = sl.transferDone
		sl.onArrived = sl.arrived
	}
	for i := range rs.slots {
		rs.launch(&rs.slots[i])
	}
	return nil
}

// launch starts the next pending chunk on the given slot, reusing the
// slot's hops array and callbacks.
func (rs *runState) launch(sl *slot) {
	if rs.next >= len(rs.chunks) {
		return
	}
	b := rs.b
	sl.c = rs.chunks[rs.next]
	sl.ci = rs.next
	rs.next++
	if b.probe != nil {
		b.probe.ChunkStart(b.cfg.Name, sl.idx, sl.ci, float64(b.eng.Now()), sl.c.read, sl.c.write, sl.c.flops)
	}
	sl.hops = b.appendHops(sl.hops[:0], sl.c, rs.host)
	// Transfer arguments are validated by construction; a failure here is
	// a programming error surfaced by the panic rather than a silently
	// dropped chunk.
	if err := mem.TransferTraced(sl.hops, sl.onTransferDone, b.probe, b.cfg.Name, sl.idx); err != nil {
		panic(fmt.Sprintf("ip: %s: transfer: %v", b.cfg.Name, err))
	}
}

// transferDone runs when the slot's chunk finishes its last hop. Miss
// chunks pay the fixed round-trip latency on top of their bandwidth
// service; it occupies no server, so deeper outstanding windows hide it.
func (sl *slot) transferDone() {
	b := sl.rs.b
	if b.cfg.MemoryLatency > 0 && !sl.c.cached {
		if err := b.eng.After(engine.Time(b.cfg.MemoryLatency), sl.onArrived); err != nil {
			panic(fmt.Sprintf("ip: %s: latency: %v", b.cfg.Name, err))
		}
		return
	}
	sl.arrived()
}

// arrived accounts the chunk's traffic, queues its computation, and frees
// the pipeline slot for the next chunk.
func (sl *slot) arrived() {
	rs := sl.rs
	b := rs.b
	if b.probe != nil {
		b.probe.ChunkArrived(b.cfg.Name, sl.idx, sl.ci, float64(b.eng.Now()))
	}
	b.bytesMoved += sl.c.read + sl.c.write
	rs.pushFlops(sl.c.flops)
	if err := b.compute.Request(sl.c.flops, rs.onComputed); err != nil {
		panic(fmt.Sprintf("ip: %s: compute request: %v", b.cfg.Name, err))
	}
	rs.launch(sl)
}

// computed runs once per chunk computation, in compute-server FIFO order —
// the same order arrived queued them — so the front of flopsQ is always
// the completing chunk's contribution.
//
//gables:allocfree
func (rs *runState) computed() {
	b := rs.b
	f := rs.popFlops()
	b.flopsDone += f
	if b.probe != nil {
		b.probe.ChunkDone(b.cfg.Name, float64(b.eng.Now()), f)
	}
	rs.completed++
	if rs.completed == len(rs.chunks) {
		rs.done()
	}
}

// pushFlops appends to the pending-computation FIFO, compacting the
// consumed prefix in place of growing when it can.
//
//gables:allocfree
func (rs *runState) pushFlops(f float64) {
	if rs.flopsHead > 0 && len(rs.flopsQ) == cap(rs.flopsQ) {
		n := copy(rs.flopsQ, rs.flopsQ[rs.flopsHead:])
		rs.flopsQ = rs.flopsQ[:n]
		rs.flopsHead = 0
	}
	//lint:ignore allocfree the compaction above reuses the backing array, sized to the pipeline depth up front; it grows only while computation falls behind arrivals, and never shrinks
	rs.flopsQ = append(rs.flopsQ, f)
}

func (rs *runState) popFlops() float64 {
	f := rs.flopsQ[rs.flopsHead]
	rs.flopsHead++
	if rs.flopsHead == len(rs.flopsQ) {
		rs.flopsQ = rs.flopsQ[:0]
		rs.flopsHead = 0
	}
	return f
}

// buildChunks splits the kernel into pipeline chunks, trial by trial.
func (b *IP) buildChunks(k kernel.Kernel) []chunk {
	readPer, writePer := k.TrafficPerTrial()
	ws := float64(k.WorkingSet)
	flopsPerTrial := float64(k.Words()) * float64(k.FlopsPerWord)
	perTrial := int(math.Ceil(ws / b.cfg.ChunkBytes))
	out := make([]chunk, 0, perTrial*k.Trials)
	for trial := 0; trial < k.Trials; trial++ {
		cached := b.cache != nil && b.cache.Hits(ws, trial)
		remaining := ws
		for remaining > 0 {
			sz := math.Min(b.cfg.ChunkBytes, remaining)
			frac := sz / ws
			out = append(out, chunk{
				read:   float64(readPer) * frac,
				write:  float64(writePer) * frac,
				flops:  flopsPerTrial * frac,
				cached: cached,
			})
			remaining -= sz
		}
	}
	return out
}

// appendHops builds the transfer path for a chunk into dst (typically a
// slot's reset scratch slice, so the steady state allocates nothing).
func (b *IP) appendHops(dst []mem.Hop, c chunk, host *mem.Server) []mem.Hop {
	if c.cached {
		return append(dst, mem.Hop{Server: b.cache.Server, Amount: c.read + c.write})
	}
	if host != nil && b.cfg.CoordinationOpsPerByte > 0 {
		dst = append(dst, mem.Hop{
			Server: host,
			Amount: (c.read + c.write) * b.cfg.CoordinationOpsPerByte,
		})
	}
	dst = append(dst, mem.Hop{
		Server: b.link,
		Amount: c.read + c.write*b.cfg.WritePenalty,
	})
	for _, f := range b.fabricPath {
		dst = append(dst, mem.Hop{Server: f, Amount: c.read + c.write})
	}
	return append(dst, mem.Hop{Server: b.dram, Amount: c.read + c.write})
}
