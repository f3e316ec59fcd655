package core

import (
	"bytes"
	"testing"

	"hams/internal/checkpoint"
	"hams/internal/mem"
	"hams/internal/sim"
)

// A MoS page whose archive copy is a zero program (flash holds no
// payload for it) peeks through the controller as zeros, stitched with
// its nonzero neighbours.
func TestPeekDataElidedFlashPage(t *testing.T) {
	for _, tp := range []Topology{Loose, Tight} {
		c := mustNew(t, testConfig(Extend, tp))
		dev := c.Device()
		P, D := c.PageBytes(), dev.PageBytes()
		addr := uint64(c.CacheEntries()+3) * P // never cached
		lba := addr / D
		ones := bytes.Repeat([]byte{0x77}, int(D))
		now, _ := dev.Write(0, lba, ones, true)
		now, _ = dev.Write(now, lba, make([]byte, D), true) // zero program
		now, _ = dev.Write(now, lba+1, ones, true)
		dev.DropCaches(now)

		got := bytes.Repeat([]byte{0xFF}, int(P))
		c.PeekData(addr, got)
		if !mem.IsZero(got[:D]) || !bytes.Equal(got[D:2*D], ones) || !mem.IsZero(got[2*D:]) {
			t.Fatalf("%v: peek of an elided flash page returned the wrong bytes", tp)
		}
		if p := dev.Peek(lba); len(p) != int(D) || !mem.IsZero(p) {
			t.Fatalf("%v: device peek: %d bytes, zero %v", tp, len(p), mem.IsZero(p))
		}
	}
}

// A live controller and its restored twin are resident in the same
// NVDIMM frames: zero pages are absent on both sides of a checkpoint.
func TestRestoreMatchesLiveFrames(t *testing.T) {
	for _, tp := range []Topology{Loose, Tight} {
		cfg := testConfig(Extend, tp)
		a := mustNew(t, cfg)
		P := a.PageBytes()
		E := uint64(a.CacheEntries())
		now := sim.Time(0)
		access := func(addr uint64, p []byte, op mem.Op) {
			do := a.Write
			if op == mem.Read {
				do = a.Read
			}
			r, err := do(now, addr, p)
			if err != nil {
				t.Fatal(err)
			}
			// Let the eviction retire: back-to-back writebacks can
			// exhaust the PRP pool, a known defect this test is not
			// about.
			now = r.Done + sim.Millisecond
		}
		for i := uint64(0); i < 2*E; i += 3 {
			access(i*P, bytes.Repeat([]byte{byte(i) | 1}, int(P)/2), mem.Write)
			access(i*P+P/2, make([]byte, 512), mem.Write)
			access((i+1)*P, make([]byte, 64), mem.Read) // a zero fill
		}
		access(0, make([]byte, P/2), mem.Write) // a nonzero page zeroed in place

		live := a.NVDIMM().Store().Frames()
		img := &checkpoint.Image{Version: checkpoint.SchemaVersion}
		if err := a.SaveCheckpoint(img); err != nil {
			t.Fatal(err)
		}
		b := mustNew(t, cfg)
		if err := b.RestoreCheckpoint(img); err != nil {
			t.Fatal(err)
		}
		if got := b.NVDIMM().Store().Frames(); got != live || live == 0 {
			t.Fatalf("%v: restored twin holds %d frames, live %d", tp, got, live)
		}
	}
}

// A fill whose device sub-pages mix zero and nonzero content lands
// exactly those bytes, whatever the previous fill left in the staging
// buffer.
func TestFillMixedZeroSubPages(t *testing.T) {
	c := mustNew(t, testConfig(Extend, Tight))
	dev := c.Device()
	P, D := c.PageBytes(), dev.PageBytes()
	base := uint64(c.CacheEntries()) * P // never cached
	want := make([]byte, 3*P)
	for i := uint64(0); i < 3*P/D; i++ {
		// Page 0 all nonzero; page 1 alternates zero and nonzero
		// sub-pages, starting with zero; page 2 all zero.
		if i < P/D || (i < 2*P/D && i%2 == 1) {
			copy(want[i*D:(i+1)*D], bytes.Repeat([]byte{byte(i) + 1}, int(D)))
		}
		if _, err := dev.Write(0, base/D+i, want[i*D:(i+1)*D], true); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, P)
	now := sim.Millisecond
	for pg := uint64(0); pg < 3; pg++ {
		r, err := c.Read(now, base+pg*P, got)
		if err != nil {
			t.Fatal(err)
		}
		if r.Hit || !bytes.Equal(got, want[pg*P:(pg+1)*P]) {
			t.Fatalf("page %d: hit %v, bytes match %v", pg, r.Hit, bytes.Equal(got, want[pg*P:(pg+1)*P]))
		}
		now = r.Done + sim.Millisecond
	}
}
