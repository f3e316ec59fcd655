package platform

import (
	"testing"

	"hams/internal/core"
	"hams/internal/flash"
	"hams/internal/mem"
	"hams/internal/sim"
)

func TestDRAMCacheInsertEvictLRU(t *testing.T) {
	c := newDRAMCache(4*4096, 4096, 1) // 4 pages
	for p := uint64(0); p < 4; p++ {
		if v, d := c.insert(p, p == 0); d {
			t.Fatalf("eviction before full: %d", v)
		}
	}
	// Page 0 (dirty) is the LRU: the next insert must evict it and
	// report the dirty victim for write-back.
	if v, d := c.insert(4, false); !d || v != 0 {
		t.Fatalf("eviction = (%d, %v), want dirty victim 0", v, d)
	}
	// Page 1 (clean) is LRU now: silent eviction.
	if _, d := c.insert(5, false); d {
		t.Fatal("clean eviction reported dirty")
	}
	// Re-inserting a resident page must refresh it, not evict.
	if _, d := c.insert(5, true); d {
		t.Fatal("refresh caused eviction")
	}
	if slot, ok := c.resident(5 * 4096); !ok || !c.dirty[slot] {
		t.Fatal("refresh did not mark dirty")
	}
}

func TestDRAMCachePromotionThreshold(t *testing.T) {
	c := newDRAMCache(16*4096, 4096, 2)
	if c.shouldPromote(0) {
		t.Fatal("promoted on first touch with promoteN=2")
	}
	if !c.shouldPromote(0) {
		t.Fatal("not promoted on second touch")
	}
	// Counter resets after promotion.
	if c.shouldPromote(0) {
		t.Fatal("promoted again on a single touch")
	}
}

func TestDRAMCacheWarmBounded(t *testing.T) {
	c := newDRAMCache(8*4096, 4096, 1)
	c.warm(0, 100*4096) // more than capacity
	if c.lru.Len() != 8 {
		t.Fatalf("warm overfilled: %d pages", c.lru.Len())
	}
}

func TestHAMSSoftwareSlower(t *testing.T) {
	hw := mk(t, "hams-LE")
	sw := mk(t, "hams-SW")
	a := mem.Access{Addr: 1 << 24, Size: 64, Op: mem.Read}
	rh, err := hw.Access(0, a)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sw.Access(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Done <= rh.Done {
		t.Fatalf("hams-SW miss (%v) not slower than hams-LE (%v)", rs.Done, rh.Done)
	}
	if rs.OS == 0 {
		t.Fatal("hams-SW miss must charge OS time")
	}
	// Hits pay no software cost in either.
	rh2, _ := hw.Access(rh.Done, a)
	rs2, _ := sw.Access(rs.Done, a)
	if rs2.OS != 0 {
		t.Fatal("hams-SW hit charged OS time")
	}
	if (rs2.Done-rs.Done)-(rh2.Done-rh.Done) > 100 {
		t.Fatal("hams-SW hit path diverges from hams-LE")
	}
}

func TestHAMSSoftwareWarmAndEnergy(t *testing.T) {
	p := mk(t, "hams-SW")
	p.Warm(0, 1<<24)
	r, err := p.Access(0, mem.Access{Addr: 0, Size: 64, Op: mem.Read})
	if err != nil {
		t.Fatal(err)
	}
	if r.OS != 0 {
		t.Fatal("warmed access must not fault")
	}
	if p.EnergyInputs().DRAM.Reads == 0 {
		t.Fatal("no DRAM activity recorded")
	}
}

func TestArchiveTLCOptionSlowsMisses(t *testing.T) {
	z, err := New("hams-TE", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tlc, err := New("hams-TE", Options{HAMS: func(c *core.Config) { c.SSD.Timing = flash.VNANDTLC() }})
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Access{Addr: 1 << 24, Size: 64, Op: mem.Read}
	rz, _ := z.Access(0, a)
	rt, _ := tlc.Access(0, a)
	if rt.Done <= rz.Done {
		t.Fatalf("TLC miss (%v) not slower than Z-NAND (%v)", rt.Done, rz.Done)
	}
}

func TestArchiveChannelsOption(t *testing.T) {
	p, err := New("hams-TE", Options{HAMS: func(c *core.Config) { c.SSD.Geometry.Channels = 2 }})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential misses across many pages: fewer channels serialize.
	var now2 sim.Time
	for i := 0; i < 4; i++ {
		r, err := p.Access(now2, mem.Access{Addr: uint64(i) * 128 * mem.KiB, Size: 64, Op: mem.Read})
		if err != nil {
			t.Fatal(err)
		}
		now2 = r.Done
	}
	d, err := New("hams-TE", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var nowD sim.Time
	for i := 0; i < 4; i++ {
		r, err := d.Access(nowD, mem.Access{Addr: uint64(i) * 128 * mem.KiB, Size: 64, Op: mem.Read})
		if err != nil {
			t.Fatal(err)
		}
		nowD = r.Done
	}
	if now2 <= nowD {
		t.Fatalf("2-channel archive (%v) not slower than 16-channel (%v)", now2, nowD)
	}
}

func TestOptanePXPBufferBackpressure(t *testing.T) {
	p := mk(t, "optane-P").(*optanePlatform)
	// A burst of large writes must eventually hit drain backpressure:
	// later writes complete visibly slower than the first.
	first, _ := p.Access(0, mem.Access{Addr: 0, Size: 4096, Op: mem.Write})
	var prev sim.Time
	for i := 1; i <= 16; i++ {
		r, _ := p.Access(0, mem.Access{Addr: uint64(i) * 8192, Size: 4096, Op: mem.Write})
		prev = r.Done
	}
	if prev <= first.Done {
		t.Fatalf("no XPBuffer backpressure: first=%v later=%v", first.Done, prev)
	}
}

func TestNvdimmCMissAlignsToRefreshWindow(t *testing.T) {
	p := mk(t, "nvdimm-C").(*nvdimmCPlatform)
	// A miss arriving just after a window boundary waits ~tREFI.
	r1, _ := p.Access(1, mem.Access{Addr: 1 << 26, Size: 64, Op: mem.Read})
	if r1.Done < p.tREFI {
		t.Fatalf("miss at t=1 finished %v, before the next window %v", r1.Done, p.tREFI)
	}
}
