package simcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

func mustGet[V any](t *testing.T, c *Cache[V], key string, compute func() (V, error)) V {
	t.Helper()
	v, err := c.Get(key, compute)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return v
}

func wantStats(t *testing.T, c *Cache[int], want Stats) {
	t.Helper()
	if got := c.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestCounterSemantics pins the contract: every lookup increments exactly
// one counter — Hits, DiskHits, Coalesced, or Misses per Get, and Bypassed
// per Bypass (which must not touch any Get counter or store an entry).
func TestCounterSemantics(t *testing.T) {
	c := New[int](Options{Capacity: 8})
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }

	if v := mustGet(t, c, "k1", compute); v != 42 {
		t.Fatalf("got %d, want 42", v)
	}
	wantStats(t, c, Stats{Misses: 1, Entries: 1})

	if v := mustGet(t, c, "k1", compute); v != 42 {
		t.Fatalf("got %d, want 42", v)
	}
	wantStats(t, c, Stats{Hits: 1, Misses: 1, Entries: 1})
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}

	mustGet(t, c, "k2", compute)
	wantStats(t, c, Stats{Hits: 1, Misses: 2, Entries: 2})

	// A bypassed lookup is its own class: not a miss, no entry stored.
	c.Bypass()
	wantStats(t, c, Stats{Hits: 1, Misses: 2, Bypassed: 1, Entries: 2})

	// Bypassing never perturbs subsequent Get semantics.
	mustGet(t, c, "k1", compute)
	wantStats(t, c, Stats{Hits: 2, Misses: 2, Bypassed: 1, Entries: 2})
}

func TestLRUEviction(t *testing.T) {
	c := New[int](Options{Capacity: 2})
	compute := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	mustGet(t, c, "a", compute(1))
	mustGet(t, c, "b", compute(2))
	mustGet(t, c, "a", compute(1)) // refresh a: b is now the LRU victim
	mustGet(t, c, "c", compute(3)) // evicts b
	wantStats(t, c, Stats{Hits: 1, Misses: 3, Evictions: 1, Entries: 2})

	if !c.Peek("a") || !c.Peek("c") || c.Peek("b") {
		t.Fatalf("want {a,c} resident and b evicted; got a=%v b=%v c=%v",
			c.Peek("a"), c.Peek("b"), c.Peek("c"))
	}
	// Re-requesting the victim recomputes.
	calls := 0
	if v := mustGet(t, c, "b", func() (int, error) { calls++; return 2, nil }); v != 2 || calls != 1 {
		t.Fatalf("evicted key: v=%d calls=%d, want recompute", v, calls)
	}
}

// TestLRUExactAtCapacity fills a default-capacity cache one past its
// bound: exactly one entry goes, and it is the least recently used one.
func TestLRUExactAtCapacity(t *testing.T) {
	c := New[int](Options{})
	keys := make([]string, DefaultCapacity+1)
	for i := range keys {
		k, err := Key("lru-exact", i)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		mustGet(t, c, k, func() (int, error) { return i, nil })
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != DefaultCapacity {
		t.Fatalf("stats = %+v, want 1 eviction and %d entries", s, DefaultCapacity)
	}
	if c.Peek(keys[0]) {
		t.Error("the oldest key survived the eviction")
	}
	for i, k := range keys[1:] {
		if !c.Peek(k) {
			t.Fatalf("key %d evicted; only the oldest should go", i+1)
		}
	}
}

// TestConcurrentCounterInvariant runs concurrent Gets over overlapping
// keys and checks the exactly-one-counter-per-Get contract: Hits +
// DiskHits + Coalesced + Misses equals the number of Get calls, with one
// miss per distinct key.
func TestConcurrentCounterInvariant(t *testing.T) {
	const (
		workers = 8
		keys    = 100
		rounds  = 5
	)
	c := New[int](Options{})
	keyset := make([]string, keys)
	for i := range keyset {
		k, err := Key("invariant", i)
		if err != nil {
			t.Fatal(err)
		}
		keyset[i] = k
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, k := range keyset {
					v, err := c.Get(k, func() (int, error) { return i, nil })
					if err != nil || v != i {
						panic(fmt.Sprintf("Get(%d) = %d, %v", i, v, err))
					}
				}
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	total := s.Hits + s.DiskHits + s.Coalesced + s.Misses
	if want := int64(workers * rounds * keys); total != want {
		t.Errorf("counters account for %d Gets, want %d (stats %+v)", total, want, s)
	}
	if s.Misses != keys {
		t.Errorf("%d misses for %d distinct keys (coalesced %d)", s.Misses, keys, s.Coalesced)
	}
	if s.Entries != keys || s.Evictions != 0 {
		t.Errorf("unexpected occupancy: %+v", s)
	}
}

// TestSingleflightCoalescing gates one slow computation while N waiters
// pile onto the same key: compute must run once, and the waiters must be
// counted as coalesced, not as hits or misses.
func TestSingleflightCoalescing(t *testing.T) {
	c := New[int](Options{})
	const waiters = 8

	var calls atomic.Int64
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	compute := func() (int, error) {
		calls.Add(1)
		close(leaderIn)
		<-release
		return 7, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mustGet(t, c, "k", compute)
	}()
	<-leaderIn // the leader is mid-compute; everyone below must coalesce

	results := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				t.Error("coalesced waiter ran compute")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	// Wait until every waiter is registered before releasing the leader.
	for c.Stats().Coalesced < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(results)

	for v := range results {
		if v != 7 {
			t.Fatalf("waiter got %d, want 7", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	wantStats(t, c, Stats{Misses: 1, Coalesced: waiters, Entries: 1})
}

// TestErrorsNotCached: a failed computation propagates to the leader and
// all coalesced waiters, and the next Get recomputes.
func TestErrorsNotCached(t *testing.T) {
	c := New[int](Options{})
	boom := errors.New("boom")
	calls := 0
	if _, err := c.Get("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Peek("k") {
		t.Fatal("errored entry must not be cached")
	}
	if v, err := c.Get("k", func() (int, error) { calls++; return 5, nil }); err != nil || v != 5 {
		t.Fatalf("retry: v=%d err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
	wantStats(t, c, Stats{Misses: 2, Entries: 1})
}

func TestDiskLayerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	type point struct{ X, Y float64 }

	hot := New[point](Options{Dir: dir})
	want := point{X: 1.5, Y: -2.25}
	mustGetP := func(c *Cache[point], compute func() (point, error)) point {
		t.Helper()
		v, err := c.Get("deadbeef", compute)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustGetP(hot, func() (point, error) { return want, nil }); got != want {
		t.Fatalf("got %+v", got)
	}

	// A second cache sharing the directory — a later process — must be
	// served from disk without computing.
	cold := New[point](Options{Dir: dir})
	got := mustGetP(cold, func() (point, error) {
		t.Error("disk hit must not compute")
		return point{}, nil
	})
	if got != want {
		t.Fatalf("disk round-trip: got %+v, want %+v", got, want)
	}
	s := cold.Stats()
	if s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("stats = %+v, want exactly one disk hit", s)
	}
	// And the entry is now memory-resident: a third Get is a plain hit.
	mustGetP(cold, nil)
	if s := cold.Stats(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want a memory hit after promotion", s)
	}
}

// TestSharedDirFleetDedup pins the fleet contract the disk layer carries:
// two replicas pointed at one cache directory converge on one computation
// per key — the second replica, running an overlapping mix, simulates
// nothing and is served every answer from the first one's files.
func TestSharedDirFleetDedup(t *testing.T) {
	dir := t.TempDir()
	a := New[int](Options{Capacity: 64, Dir: dir})
	b := New[int](Options{Capacity: 64, Dir: dir})

	const n = 16
	for i := 0; i < n; i++ {
		mustGet(t, a, fmt.Sprintf("grid-%d", i), func() (int, error) { return i * i, nil })
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("grid-%d", i)
		v, err := b.Get(key, func() (int, error) {
			return 0, fmt.Errorf("replica B recomputed %s", key)
		})
		if err != nil || v != i*i {
			t.Fatalf("replica B Get(%s) = %d, %v; want %d", key, v, err, i*i)
		}
	}
	if sa := a.Stats(); sa.Misses != n {
		t.Errorf("replica A misses = %d, want %d (it computed the mix)", sa.Misses, n)
	}
	if sb := b.Stats(); sb.Misses != 0 || sb.DiskHits != n {
		t.Errorf("replica B stats = %+v, want 0 misses and %d disk hits (fleet dedup)", sb, n)
	}
}

// TestDiskCorruptEntryFallsBack: an undecodable file is treated as a miss
// and overwritten by the recomputed value.
func TestDiskCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deadbeef.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New[int](Options{Dir: dir})
	if v := mustGet(t, c, "deadbeef", func() (int, error) { return 9, nil }); v != 9 {
		t.Fatalf("got %d, want recomputed 9", v)
	}
	if s := c.Stats(); s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("stats = %+v, want a miss", s)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "9" {
		t.Fatalf("corrupt entry not repaired: data=%q err=%v", data, err)
	}
}

// TestDiskInvalidRunRecomputed: a file that decodes but holds no valid
// run (no IP results, so a caller indexing IPs[0] would panic; or JSON
// null, a nil result) is treated like garbage — a miss, recomputed equal
// to a direct run, and the file replaced.
func TestDiskInvalidRunRecomputed(t *testing.T) {
	dir := t.TempDir()
	EnableDisk(dir)
	defer func() {
		DisableDisk()
		ResetDefault()
	}()
	cfg := sim.Snapdragon835()
	as := []sim.Assignment{{IP: "CPU", Kernel: kernel.Kernel{
		Name: "t", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 8, Pattern: kernel.ReadWrite,
	}}}
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Run(as, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := sim.Fingerprint(cfg, as, sim.RunOptions{})
	path := filepath.Join(dir, key+".json")
	for _, body := range []string{`{"Makespan":1e-9,"Rate":5}`, `null`} {
		ResetDefault()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg, as, sim.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if fmt.Sprintf("%#v", *got) != fmt.Sprintf("%#v", *direct) {
			t.Fatalf("%s: recomputed run differs from direct run:\n got %#v\nwant %#v", body, *got, *direct)
		}
		if s := DefaultStats(); s.Misses != 1 || s.DiskHits != 0 {
			t.Fatalf("%s: stats = %+v, want the invalid entry counted as a miss", body, s)
		}
		if _, err := loadDisk[*sim.RunResult](dir, key); err != nil {
			t.Fatalf("%s: invalid entry not replaced: %v", body, err)
		}
	}
}

// TestDiskRejectsUnsafeKeys: only path-safe keys touch the filesystem;
// others still work through memory.
func TestDiskRejectsUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	c := New[int](Options{Dir: dir})
	for _, key := range []string{"../escape", "a/b", "", "dot.dot", "sp ace"} {
		if key == "" {
			continue // Get with empty key is fine in memory; skip disk shape check
		}
		mustGet(t, c, key, func() (int, error) { return 1, nil })
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unsafe keys leaked onto disk: %v", entries)
	}
}

func TestReset(t *testing.T) {
	c := New[int](Options{})
	mustGet(t, c, "k", func() (int, error) { return 1, nil })
	c.Reset()
	wantStats(t, c, Stats{})
	calls := 0
	mustGet(t, c, "k", func() (int, error) { calls++; return 1, nil })
	if calls != 1 {
		t.Fatal("Reset must drop entries")
	}
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	type params struct{ A, B float64 }
	k1, err := Key("scope/v1", params{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key("scope/v1", params{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("Key not deterministic")
	}
	k3, _ := Key("scope/v1", params{1, 3})
	k4, _ := Key("scope/v2", params{1, 2})
	k5, _ := Key("scope/v1", params{1, 2}, 0)
	for i, other := range []string{k3, k4, k5} {
		if other == k1 {
			t.Errorf("variant %d collides with base", i)
		}
	}
	// Length-prefixing: "ab"+"c" must differ from "a"+"bc".
	ka, _ := Key("ab", "c")
	kb, _ := Key("a", "bc")
	if ka == kb {
		t.Error("part boundaries must be encoded")
	}
	if !pathSafe(k1) {
		t.Error("Key output must be path-safe")
	}
	if _, err := Key(func() {}); err == nil {
		t.Error("unmarshalable part must error")
	}
}

// TestKeyGolden pins one exact Key: keyed values persist in the disk
// layer, so a rewrite of the key encoder must reproduce these bytes.
func TestKeyGolden(t *testing.T) {
	type params struct {
		Name string
		A, B float64
		N    int
	}
	got, err := Key("gables-eval", "scope/v1", params{"chip", 0.25, 3e9, 16}, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const want = "094a06a42cc613fd21721c0bb3cb8bca3086c4a4d8412e659304683c4123a3f8"
	if got != want {
		t.Errorf("Key = %s, want %s", got, want)
	}
}

// TestRunCachedMatchesDirect is the tentpole's correctness bar in unit
// form: a cached run, a coalesced run, and a direct sim.Run must agree
// bit for bit.
func TestRunCachedMatchesDirect(t *testing.T) {
	ResetDefault()
	cfg := sim.Snapdragon835()
	as := []sim.Assignment{{IP: "CPU", Kernel: kernel.Kernel{
		Name: "t", WorkingSet: 1 << 20, Trials: 2, FlopsPerWord: 8, Pattern: kernel.ReadWrite,
	}}}
	opt := sim.RunOptions{}

	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Run(as, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(cfg, as, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(cfg, as, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  *sim.RunResult
	}{{"cold", cold}, {"warm", warm}} {
		if fmt.Sprintf("%#v", *c.got) != fmt.Sprintf("%#v", *direct) {
			t.Errorf("%s cached result differs from direct run:\n got %#v\nwant %#v", c.name, *c.got, *direct)
		}
	}
	s := DefaultStats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want one miss then one hit", s)
	}
	// The warm copy is private: mutating it must not poison the cache.
	warm.Makespan = -1
	again, err := Run(cfg, as, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != direct.Makespan {
		t.Fatal("cache entry was mutated through a returned result")
	}
	ResetDefault()
}
