package cpu

import (
	"math/rand"
	"testing"
)

// refCache is the straightforward set-associative model the flat
// Cache must match access for access: per-set slices of ways, victim
// = first invalid way, else the least recently used one.
type refCache struct {
	cfg   CacheConfig
	sets  [][]refLine
	nsets uint64
	tick  uint64
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	nsets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	sets := make([][]refLine, nsets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{cfg: cfg, sets: sets, nsets: nsets}
}

func (c *refCache) lookup(addr uint64, write bool) (bool, uint64, bool) {
	c.tick++
	lineAddr := addr / c.cfg.LineBytes
	set, tag := lineAddr%c.nsets, lineAddr/c.nsets
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			ways[i].dirty = ways[i].dirty || write
			return true, 0, false
		}
	}
	vi := 0
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
		if ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	v := ways[vi]
	ways[vi] = refLine{tag: tag, valid: true, dirty: write, lru: c.tick}
	if v.valid && v.dirty {
		return false, (v.tag*c.nsets + set) * c.cfg.LineBytes, true
	}
	return false, 0, false
}

// The flat, shift-indexed Cache behaves exactly like the reference
// model on random traffic, for power-of-two geometries and for ones
// that take the division path, including its Flush order.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64},
		{SizeBytes: 8 << 10, Ways: 8, LineBytes: 64},
		{SizeBytes: 3 * 64 * 5, Ways: 3, LineBytes: 64}, // 5 sets
		{SizeBytes: 4 * 96 * 7, Ways: 4, LineBytes: 96}, // odd line size
		{SizeBytes: 64 * 2, Ways: 2, LineBytes: 64},     // one set
	} {
		c, ref := NewCache(cfg), newRefCache(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.SizeBytes)))
		span := 4 * cfg.SizeBytes
		for i := 0; i < 50_000; i++ {
			addr := uint64(rng.Int63n(int64(span)))
			if rng.Intn(8) == 0 {
				addr += 1 << 40 // a far tag
			}
			write := rng.Intn(3) == 0
			h, v, d := c.Lookup(addr, write)
			rh, rv, rd := ref.lookup(addr, write)
			if h != rh || v != rv || d != rd {
				t.Fatalf("%+v access %d (addr %#x write %v): got (%v %#x %v), reference (%v %#x %v)",
					cfg, i, addr, write, h, v, d, rh, rv, rd)
			}
		}
		var want []uint64
		for s := range ref.sets {
			for _, l := range ref.sets[s] {
				if l.valid && l.dirty {
					want = append(want, (l.tag*ref.nsets+uint64(s))*cfg.LineBytes)
				}
			}
		}
		got := c.Flush()
		if len(got) != len(want) {
			t.Fatalf("%+v flush: %d dirty lines, reference %d", cfg, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v flush[%d] = %#x, reference %#x", cfg, i, got[i], want[i])
			}
		}
		if h, _, _ := c.Lookup(0, false); h {
			t.Fatalf("%+v: hit after flush", cfg)
		}
	}
}

func BenchmarkCacheLookup(b *testing.B) {
	c := NewCache(L2_2M())
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(8 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addrs[i&4095], i&3 == 0)
	}
}
