// Package cpu models the processor side of the evaluation platform
// (Table II): quad-core 2 GHz cores with 64 KB L1D and a shared 2 MB
// L2, a base CPI for non-memory instructions, and a driver that
// interleaves the cores against a shared memory system in global time
// order. The cache hierarchy filters the workload's access stream so
// only true misses reach the platform under test, exactly as gem5 did
// for the paper.
package cpu

import (
	"math/bits"

	"hams/internal/mem"
)

// CacheConfig sizes one level.
type CacheConfig struct {
	SizeBytes uint64
	Ways      int
	LineBytes uint64
}

// L1D64K is the Table II L1 data cache.
func L1D64K() CacheConfig { return CacheConfig{SizeBytes: 64 * mem.KiB, Ways: 4, LineBytes: 64} }

// L2_2M is the Table II shared L2.
func L2_2M() CacheConfig { return CacheConfig{SizeBytes: 2 * mem.MiB, Ways: 8, LineBytes: 64} }

// line is one way. stamp packs the valid and dirty bits above the LRU
// tick, so a way is 16 bytes and the ways of a set sit next to each
// other in one flat table: a lookup touches one or two host cache
// lines and chases no pointer.
type line struct {
	tag   uint64
	stamp uint64 // lineValid | lineDirty | LRU tick
}

const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
	tickMask  = lineDirty - 1 // the tick counts lookups; it never reaches 2^62
)

// Cache is a set-associative write-back, write-allocate cache.
type Cache struct {
	cfg   CacheConfig
	lines []line // nsets × ways, set-major
	ways  int
	nsets uint64
	// pow2 is set when LineBytes and nsets are powers of two (every
	// shipped configuration): the set and tag then come from shifts
	// and a mask instead of three 64-bit divisions.
	pow2      bool
	lineShift int
	setShift  int
	tick      uint64

	hits, misses int64
}

// NewCache builds a cache from cfg.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Ways <= 0 {
		cfg.Ways = 1
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 64
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	if nsets == 0 {
		nsets = 1
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*uint64(cfg.Ways)),
		ways:      cfg.Ways,
		nsets:     nsets,
		pow2:      bits.OnesCount64(cfg.LineBytes) == 1 && bits.OnesCount64(nsets) == 1,
		lineShift: bits.TrailingZeros64(cfg.LineBytes),
		setShift:  bits.TrailingZeros64(nsets),
	}
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() uint64 { return c.cfg.LineBytes }

// Hits and Misses report counters.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// Lookup accesses the line containing addr. On a miss it installs the
// line and returns the evicted dirty victim's address (ok=false when
// nothing dirty was displaced).
func (c *Cache) Lookup(addr uint64, write bool) (hit bool, victim uint64, victimDirty bool) {
	c.tick++
	var set, tag uint64
	if c.pow2 {
		lineAddr := addr >> c.lineShift
		set = lineAddr & (c.nsets - 1)
		tag = lineAddr >> c.setShift
	} else {
		lineAddr := addr / c.cfg.LineBytes
		set = lineAddr % c.nsets
		tag = lineAddr / c.nsets
	}
	base := int(set) * c.ways
	ways := c.lines[base : base+c.ways : base+c.ways]
	var dirty uint64
	if write {
		dirty = lineDirty
	}
	for i := range ways {
		if ways[i].tag == tag && ways[i].stamp&lineValid != 0 {
			c.hits++
			ways[i].stamp = ways[i].stamp&lineDirty | dirty | lineValid | c.tick
			return true, 0, false
		}
	}
	c.misses++
	// Choose victim: first invalid, else least recently used.
	vi := 0
	for i := range ways {
		if ways[i].stamp&lineValid == 0 {
			vi = i
			break
		}
		if ways[i].stamp&tickMask < ways[vi].stamp&tickMask {
			vi = i
		}
	}
	if v := ways[vi]; v.stamp&(lineValid|lineDirty) == lineValid|lineDirty {
		victim = (v.tag*c.nsets + set) * c.cfg.LineBytes
		victimDirty = true
	}
	ways[vi] = line{tag: tag, stamp: lineValid | dirty | c.tick}
	return false, victim, victimDirty
}

// Flush invalidates everything, returning dirty line addresses.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for i := range c.lines {
		l := &c.lines[i]
		if l.stamp&(lineValid|lineDirty) == lineValid|lineDirty {
			set := uint64(i / c.ways)
			dirty = append(dirty, (l.tag*c.nsets+set)*c.cfg.LineBytes)
		}
		*l = line{}
	}
	return dirty
}
