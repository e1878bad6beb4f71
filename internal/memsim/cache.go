// Package memsim is a trace-driven machine model: a multi-level
// set-associative LRU cache hierarchy plus a roofline cost model
// (compute cycles vs. DRAM bandwidth). It substitutes for the 40-core Xeon
// the paper evaluates on, whose scaling a 2-core host cannot show, by
// executing the memory-access patterns of the real execution plans
// (per-function full scans for the base libraries, cache-sized pipelined
// batches for Mozart, fused single passes for the compilers) and reporting
// simulated runtimes and the hardware-counter statistics Table 4 reports.
// DESIGN.md documents the substitution.
package memsim

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int64
	LineBytes int64
	Assoc     int
}

// Cache is a set-associative LRU cache.
type Cache struct {
	cfg   CacheConfig
	nsets int64
	tags  [][]uint64
	use   [][]uint64
	clock uint64

	Accesses int64
	Misses   int64
}

// NewCache builds a cache; size must be a multiple of line*assoc.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic("memsim: invalid cache config")
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Assoc))
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{cfg: cfg, nsets: nsets}
	c.tags = make([][]uint64, nsets)
	c.use = make([][]uint64, nsets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Assoc)
		c.use[i] = make([]uint64, cfg.Assoc)
		for w := range c.tags[i] {
			c.tags[i][w] = ^uint64(0)
		}
	}
	return c
}

// Access touches the line containing addr and reports whether it hit.
// Misses fill the line (LRU eviction).
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.Accesses++
	line := addr / uint64(c.cfg.LineBytes)
	set := line % uint64(c.nsets)
	tags, use := c.tags[set], c.use[set]
	for w, t := range tags {
		if t == line {
			use[w] = c.clock
			return true
		}
	}
	c.Misses++
	victim, oldest := 0, use[0]
	for w := 1; w < len(use); w++ {
		if use[w] < oldest {
			victim, oldest = w, use[w]
		}
	}
	tags[victim] = line
	use[victim] = c.clock
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		for w := range c.tags[i] {
			c.tags[i][w] = ^uint64(0)
			c.use[i][w] = 0
		}
	}
	c.Accesses, c.Misses, c.clock = 0, 0, 0
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy chains private L1/L2 with a (per-thread slice of a) shared LLC.
type Hierarchy struct {
	L1, L2, LLC *Cache
	DRAMBytes   int64
	line        int64
}

// NewHierarchy builds the three-level hierarchy.
func NewHierarchy(l1, l2, llc CacheConfig) *Hierarchy {
	return &Hierarchy{L1: NewCache(l1), L2: NewCache(l2), LLC: NewCache(llc), line: l1.LineBytes}
}

// Access walks addr down the hierarchy, filling on miss, and returns the
// level that hit (1..3) or 4 for DRAM.
func (h *Hierarchy) Access(addr uint64) int {
	if h.L1.Access(addr) {
		return 1
	}
	if h.L2.Access(addr) {
		return 2
	}
	if h.LLC.Access(addr) {
		return 3
	}
	h.DRAMBytes += h.line
	return 4
}

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.LLC.Reset()
	h.DRAMBytes = 0
}
