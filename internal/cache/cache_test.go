package cache

import (
	"testing"
	"testing/quick"
)

func l1Config() Config {
	return Config{Sets: 64, Ways: 2, LineBytes: 32} // 4 KiB write-through L1
}

func l2Config() Config {
	return Config{Sets: 256, Ways: 4, LineBytes: 32, WriteBack: true, AllocOnWrite: true} // 32 KiB
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, LineBytes: 32},
		{Sets: 3, Ways: 1, LineBytes: 32},
		{Sets: 64, Ways: 0, LineBytes: 32},
		{Sets: 64, Ways: 1, LineBytes: 0},
		{Sets: 64, Ways: 1, LineBytes: 48},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v unexpectedly valid", cfg)
		}
	}
	if got := l2Config().SizeBytes(); got != 32*1024 {
		t.Errorf("L2 size = %d, want 32768", got)
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := MustNew(l1Config())
	r := c.Access(0x1000, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	if !r.Filled {
		t.Fatal("read miss did not fill")
	}
	if !c.Contains(0x1000) || !c.Contains(0x101F) {
		t.Fatal("line not present after fill (both ends of the 32B line)")
	}
	if c.Contains(0x1020) {
		t.Fatal("neighbouring line spuriously present")
	}
	if r2 := c.Access(0x1008, false); !r2.Hit {
		t.Fatal("same-line access missed")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := MustNew(l1Config())
	if r := c.Access(0x2000, true); r.Hit || r.Filled {
		t.Fatalf("write miss in no-allocate cache changed state: %+v", r)
	}
	if c.Contains(0x2000) {
		t.Fatal("write-miss allocated in no-write-allocate cache")
	}
	// Write hit must not mark dirty in a write-through cache.
	c.Access(0x2000, false) // fill by read
	c.Access(0x2000, true)  // write hit
	evictAllWays(t, c, 0x2000)
}

// evictAllWays forces eviction of addr's set and asserts no dirty evictions
// happen (write-through invariant).
func evictAllWays(t *testing.T, c *Cache, addr uint64) {
	t.Helper()
	before := c.Stats().DirtyEvictions
	// Touch many distinct lines to cycle every set.
	for i := uint64(0); i < 64*1024; i += 32 {
		c.Access(0x100000+i, false)
	}
	if c.Stats().DirtyEvictions != before {
		t.Fatal("write-through cache produced a dirty eviction")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := MustNew(l2Config())
	c.Access(0x3000, true) // write-allocate: line filled dirty
	if !c.Contains(0x3000) {
		t.Fatal("write-allocate did not fill")
	}
	// Evict everything by sweeping far more lines than the cache holds.
	sawDirty := false
	for i := uint64(0); i < 256*1024 && !sawDirty; i += 32 {
		r := c.Access(0x200000+i, false)
		if r.Evicted && r.EvictedDirty && r.EvictedAddr == 0x3000 {
			sawDirty = true
		}
	}
	if !sawDirty {
		t.Fatal("dirty line was never reported on eviction")
	}
}

func TestCleanEvictionReportsAddress(t *testing.T) {
	cfg := l2Config()
	cfg.Sets = 1 // direct conflict: every line maps to set 0
	cfg.Ways = 2
	c := MustNew(cfg)
	c.Access(0x0, false)
	c.Access(0x20, false)
	r := c.Access(0x40, false)
	if !r.Evicted || r.EvictedDirty {
		t.Fatalf("expected clean eviction, got %+v", r)
	}
	if r.EvictedAddr != 0x0 && r.EvictedAddr != 0x20 {
		t.Fatalf("evicted address %#x not one of the resident lines", r.EvictedAddr)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := MustNew(l2Config())
	c.Access(0x100, false) // read miss + fill
	c.Access(0x100, false) // read hit
	c.Access(0x100, true)  // write hit
	c.Access(0x500, true)  // write miss + fill (write-allocate)
	s := c.Stats()
	if s.Reads != 2 || s.Writes != 2 || s.ReadHits != 1 || s.WriteHits != 1 || s.Fills != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate != 0")
	}
}

func TestPlacementSeedChangesMapping(t *testing.T) {
	// The same address stream must map to different sets under different
	// placement seeds: count conflict misses in a direct-mapped cache fed
	// a stride pattern; with at least one different seed the miss counts
	// should differ.
	miss := func(seed uint64) int64 {
		cfg := Config{Sets: 64, Ways: 1, LineBytes: 32, PlacementSeed: seed}
		c := MustNew(cfg)
		for pass := 0; pass < 4; pass++ {
			for i := uint64(0); i < 128; i++ {
				c.Access(i*2048, false)
			}
		}
		s := c.Stats()
		return s.Reads - s.ReadHits
	}
	base := miss(1)
	varied := false
	for seed := uint64(2); seed < 8; seed++ {
		if miss(seed) != base {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("placement seed has no effect on conflict behaviour")
	}
}

func TestReseedInvalidatesAndReproduces(t *testing.T) {
	// Reuse is how a run reseeds a recycled cache.
	reseed := func(c *Cache, placement, replacement uint64) {
		cfg := c.Config()
		cfg.PlacementSeed, cfg.ReplacementSeed = placement, replacement
		if err := c.Reuse(cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := MustNew(l2Config())
	c.Access(0x700, false)
	reseed(c, 42, 43)
	if c.Contains(0x700) {
		t.Fatal("Reuse left valid lines")
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("Reuse left stats")
	}
	// Same seeds -> same behaviour.
	run := func() Stats {
		reseed(c, 7, 8)
		for i := uint64(0); i < 4096; i++ {
			c.Access((i*197)%(64*1024), i%3 == 0)
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}

func TestRandomReplacementUsesAllWays(t *testing.T) {
	// With constant conflict pressure on one set, every way should be the
	// victim at some point (random replacement, not LRU/fixed).
	cfg := Config{Sets: 1, Ways: 4, LineBytes: 32, ReplacementSeed: 5}
	c := MustNew(cfg)
	evicted := map[uint64]bool{}
	for i := uint64(0); i < 400; i++ {
		r := c.Access(i*32, false)
		if r.Evicted {
			evicted[r.EvictedAddr] = true
		}
	}
	// 4 initial fills + ~396 evictions over random ways: the set of
	// evicted addresses must be large (each line evicted once at most, so
	// distinct addresses ≈ evictions).
	if len(evicted) < 300 {
		t.Fatalf("only %d distinct evictions; replacement looks stuck", len(evicted))
	}
}

func TestQuickContainsAfterAccess(t *testing.T) {
	c := MustNew(l2Config())
	f := func(addr uint64, write bool) bool {
		addr %= 1 << 30
		c.Access(addr, write)
		// Reads and (write-allocate) writes must leave the line present.
		return c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHitAfterFill(t *testing.T) {
	// Immediately re-accessing an address always hits, for any config.
	f := func(addr uint64, seed uint64) bool {
		cfg := l1Config()
		cfg.PlacementSeed = seed
		c := MustNew(cfg)
		addr %= 1 << 28
		c.Access(addr, false)
		return c.Access(addr, false).Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsCacheNoCapacityMisses(t *testing.T) {
	// A working set half the cache size, accessed repeatedly, must reach a
	// high steady-state hit rate despite random placement (some conflict
	// misses are expected — random placement trades conflict patterns for
	// probabilistic behaviour).
	// Random placement throws 512 lines into 256 four-way sets; some sets
	// exceed the associativity (balls into bins) and thrash under random
	// replacement, so the steady-state hit rate sits well below 1.0 even
	// at half capacity — that residual conflict-miss tail is exactly the
	// randomised behaviour MBPTA exploits.
	c := MustNew(l2Config()) // 32 KiB
	const ws = 16 * 1024
	for pass := 0; pass < 20; pass++ {
		for a := uint64(0); a < ws; a += 32 {
			c.Access(a, false)
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.80 {
		t.Fatalf("steady-state hit rate %.3f for half-size working set, want ≥ 0.80", hr)
	}
}
