// Package cache implements the set-associative caches of the paper's MBPTA
// platform: random placement and random replacement (Hernandez et al.,
// DASIA 2015), so that hit/miss behaviour — and through it execution time —
// varies randomly from run to run with a known distribution, which is what
// lets measurement-based probabilistic timing analysis attach probabilities
// to execution-time bounds.
//
// Random placement is modelled as a seeded hash of the line address chosen
// anew for each run (a new placement seed), mirroring the hardware's
// parametric hash of the address with a random number drawn at boot. Random
// replacement picks a uniform victim way per miss from a seeded stream.
//
// Two configurations are used by the simulator: the private write-through,
// no-write-allocate L1 data cache, and the per-core partition of the shared
// write-back, write-allocate L2.
package cache

import (
	"fmt"

	"creditbus/internal/rng"
)

// Config describes one cache.
type Config struct {
	// Sets is the number of sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size; must be a power of two.
	LineBytes int
	// WriteBack selects write-back (true, L2) or write-through (false, L1)
	// behaviour; write-through caches never hold dirty lines.
	WriteBack bool
	// AllocOnWrite selects write-allocate (true, L2) or
	// no-write-allocate (false, L1) miss handling for writes.
	AllocOnWrite bool
	// PlacementSeed parameterises the random-placement hash; a fresh seed
	// per run gives MBPTA its placement randomisation.
	PlacementSeed uint64
	// ReplacementSeed seeds the random-replacement victim stream.
	ReplacementSeed uint64
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: Sets = %d, need a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: Ways = %d, need > 0", c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes = %d, need a positive power of two", c.LineBytes)
	}
	return nil
}

// SizeBytes returns the cache capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// Result reports what an access did.
type Result struct {
	// Hit: the line was present.
	Hit bool
	// Filled: a line was allocated for this access.
	Filled bool
	// Evicted: the allocation displaced a valid line.
	Evicted bool
	// EvictedDirty: the displaced line was dirty (write-back of the victim
	// is required — the paper's 56-cycle miss case).
	EvictedDirty bool
	// EvictedAddr is the base address of the displaced line.
	EvictedAddr uint64
}

// Stats counts cache traffic.
type Stats struct {
	Reads          int64
	Writes         int64
	ReadHits       int64
	WriteHits      int64
	Fills          int64
	Evictions      int64
	DirtyEvictions int64
}

// HitRate returns hits over accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	acc := s.Reads + s.Writes
	if acc == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(acc)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
}

// Cache is one set-associative randomised cache. Not safe for concurrent
// use.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	lines     []line // sets*ways, set-major
	repl      rng.Stream
	stats     Stats
}

// New builds an empty cache: the zero Cache reinitialised by Reuse, the
// one construction path.
func New(cfg Config) (*Cache, error) {
	c := new(Cache)
	if err := c.Reuse(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// lineAddr strips the offset bits.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// setIndex is the random-placement hash: a SplitMix64-style mix of the line
// address and the placement seed, reduced to the set count. Different
// placement seeds send the same address stream to statistically independent
// set sequences — the property MBPTA's cache randomisation needs.
func (c *Cache) setIndex(la uint64) uint64 {
	z := la ^ c.cfg.PlacementSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z & c.setMask
}

func (c *Cache) set(la uint64) []line {
	s := c.setIndex(la)
	return c.lines[s*uint64(c.cfg.Ways) : (s+1)*uint64(c.cfg.Ways)]
}

// Contains probes for addr without changing any state.
func (c *Cache) Contains(addr uint64) bool {
	la := c.lineAddr(addr)
	for _, ln := range c.set(la) {
		if ln.valid && ln.tag == la {
			return true
		}
	}
	return false
}

// Access performs a read (write=false) or write (write=true) of addr and
// returns what happened. Misses allocate according to the configuration;
// random replacement picks the victim among valid ways (invalid ways fill
// first).
func (c *Cache) Access(addr uint64, write bool) Result {
	la := c.lineAddr(addr)
	set := c.set(la)
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	for i := range set {
		if set[i].valid && set[i].tag == la {
			if write {
				c.stats.WriteHits++
				if c.cfg.WriteBack {
					set[i].dirty = true
				}
			} else {
				c.stats.ReadHits++
			}
			return Result{Hit: true}
		}
	}

	// Miss. Writes only allocate in write-allocate caches.
	if write && !c.cfg.AllocOnWrite {
		return Result{}
	}

	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var res Result
	res.Filled = true
	if victim == -1 {
		victim = c.repl.Intn(c.cfg.Ways)
		res.Evicted = true
		res.EvictedDirty = set[victim].dirty
		res.EvictedAddr = set[victim].tag << c.lineShift
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.DirtyEvictions++
		}
	}
	c.stats.Fills++
	set[victim] = line{tag: la, valid: true, dirty: write && c.cfg.WriteBack}
	return res
}

// Fill allocates addr's line without performing (or counting) an access:
// the L1 refill that happens when a load miss returns from the bus. If the
// line is already present it does nothing. Eviction information is reported
// exactly as for Access; the filled line is clean.
func (c *Cache) Fill(addr uint64) Result {
	la := c.lineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return Result{Hit: true}
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	var res Result
	res.Filled = true
	if victim == -1 {
		victim = c.repl.Intn(c.cfg.Ways)
		res.Evicted = true
		res.EvictedDirty = set[victim].dirty
		res.EvictedAddr = set[victim].tag << c.lineShift
		c.stats.Evictions++
		if set[victim].dirty {
			c.stats.DirtyEvictions++
		}
	}
	c.stats.Fills++
	set[victim] = line{tag: la, valid: true}
	return res
}

// Stats returns a copy of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reuse (re)initialises the cache in place for cfg: an empty cache with its
// replacement stream seeded from cfg.ReplacementSeed. It accepts the zero
// Cache, so it is also how New builds one. The line array is recycled
// whenever the new geometry fits its capacity (campaigns rerun a fixed
// platform, so the steady state allocates nothing); a larger geometry grows
// it once.
func (c *Cache) Reuse(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	want := cfg.Sets * cfg.Ways
	if cap(c.lines) >= want {
		c.lines = c.lines[:want]
		for i := range c.lines {
			c.lines[i] = line{}
		}
	} else {
		c.lines = make([]line, want)
	}
	c.cfg = cfg
	c.setMask = uint64(cfg.Sets - 1)
	c.lineShift = 0
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineShift++
	}
	c.repl.Reseed(cfg.ReplacementSeed)
	c.stats = Stats{}
	return nil
}
