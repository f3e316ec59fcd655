// Package ssd assembles a solid-state drive from the firmware layers
// the paper describes (§II-C): a host interface layer (HIL) that parses
// commands and splits requests, an internal DRAM buffer/cache in front
// of the channels, the FTL, and the flash interface layer (FIL) —
// realized by the flash array's channel/die occupancy model. Device
// configs are provided for the ULL-Flash (Z-NAND, 512 MB buffer), the
// buffer-less ULL-Flash of advanced HAMS, an Intel-750-class NVMe SSD
// and a SATA SSD.
package ssd

import (
	"fmt"

	"hams/internal/flash"
	"hams/internal/ftl"
	"hams/internal/mem"
	"hams/internal/sim"
)

// Config describes one device.
type Config struct {
	Name        string
	Geometry    flash.Geometry
	Timing      flash.Timing
	FTL         ftl.Config
	BufferBytes uint64   // internal DRAM buffer capacity; 0 = none
	BufferGBs   float64  // internal DRAM bandwidth
	BufferLat   sim.Time // internal DRAM access setup
	HILOverhead sim.Time // firmware time per command
	HILSlots    int      // firmware parallelism
	Supercap    bool     // flush buffer to flash on power failure
}

// ULLFlash returns the 800 GB-class Z-NAND archive with its 512 MB
// internal DRAM (Table II). The Z-NAND dual-channel 2 KB striping
// (§II-C: a 4 KB request is split across two channels, halving DMA
// latency) is folded into the channel transfer rate.
func ULLFlash() Config {
	t := flash.ZNAND()
	t.ChanGBs *= 2 // dual-channel 2 KB striping halves transfer time
	return Config{
		Name:        "ULL-Flash",
		Geometry:    flash.ULLGeometry(),
		Timing:      t,
		FTL:         ftl.DefaultConfig(),
		BufferBytes: 512 << 20,
		BufferGBs:   12.8,
		BufferLat:   100,
		HILOverhead: 1 * sim.Microsecond,
		HILSlots:    4,
		Supercap:    true,
	}
}

// ULLFlashNoBuffer is the advanced-HAMS variant: internal DRAM removed
// (the NVDIMM buffers instead), command/address/data registers front
// the flash (§IV-C).
func ULLFlashNoBuffer() Config {
	c := ULLFlash()
	c.Name = "ULL-Flash (bufferless)"
	c.BufferBytes = 0
	return c
}

// NVMeSSD approximates the Intel 750 baseline: TLC-class media, fewer
// channels, a throughput-oriented firmware with higher per-command
// cost.
func NVMeSSD() Config {
	g := flash.ULLGeometry()
	g.Channels = 8
	g.PackagesPerC = 1 // 16 dies: the shallower parallelism that makes
	// its latency climb with queue depth (Fig. 5b)
	return Config{
		Name:        "NVMe-SSD",
		Geometry:    g,
		Timing:      flash.VNANDTLC(),
		FTL:         ftl.DefaultConfig(),
		BufferBytes: 512 << 20,
		BufferGBs:   8,
		BufferLat:   150,
		HILOverhead: 5 * sim.Microsecond,
		HILSlots:    8,
	}
}

// SATASSD approximates the SATA baseline (the link cost lives in
// pcie.SATA6G; media here is slower TLC with shallow parallelism).
func SATASSD() Config {
	g := flash.ULLGeometry()
	g.Channels = 4
	t := flash.VNANDTLC()
	t.ChanGBs = 0.4
	return Config{
		Name:        "SATA-SSD",
		Geometry:    g,
		Timing:      t,
		FTL:         ftl.DefaultConfig(),
		BufferBytes: 256 << 20,
		BufferGBs:   4,
		BufferLat:   300,
		HILOverhead: 20 * sim.Microsecond,
		HILSlots:    1,
	}
}

// Stats carries device-level counters.
type Stats struct {
	Reads, Writes  int64
	BufferHits     int64
	BufferMisses   int64
	BufferEvicts   int64
	Flushes        int64
	FUAWrites      int64
	DirtyLost      int64 // dirty buffer pages dropped at power failure
	BufferResident int
}

// Device is one SSD. The internal DRAM buffer is a flat LRU
// (mem.PageLRU) with slot-owned page buffers: inserts copy into the
// slot's buffer and evictions recycle it, so steady-state buffer
// traffic allocates nothing. Entries store variable-length data (a
// 64 B write replaces whatever the slot held), tracked in bufSlot.n.
// An all-zero entry owns no buffer (bufSlot.page 0) and reads through
// payload as mem.Zeros; its buffer waits in spare for the next slot
// that takes nonzero data.
type Device struct {
	cfg Config
	arr *flash.Array
	ftl *ftl.FTL

	hil     *sim.Pool
	bufBus  *sim.Resource
	buf     *mem.PageLRU
	slots   []bufSlot // slot -> entry
	pages   [][]byte  // page buffers, owned by a slot or waiting in spare
	spare   []int32   // indices into pages of buffers no slot owns
	bufCap  int       // entries
	scratch []byte    // miss-path staging (one page)

	stats Stats
}

// bufSlot is one internal-buffer entry. It holds no pointers, so the
// slot table (one entry per buffered page) costs the garbage collector
// nothing to trace.
type bufSlot struct {
	page  int32 // 1 + index into pages of the owned buffer; 0 = all zero
	n     int32 // stored byte count
	dirty bool
}

// New builds a device from cfg.
func New(cfg Config) *Device {
	if cfg.HILSlots <= 0 {
		cfg.HILSlots = 1
	}
	arr := flash.New(cfg.Geometry, cfg.Timing)
	d := &Device{
		cfg:    cfg,
		arr:    arr,
		ftl:    ftl.New(arr, cfg.FTL),
		hil:    sim.NewPool(cfg.HILSlots),
		bufBus: sim.NewResource(),
	}
	if cfg.BufferBytes > 0 {
		d.buf = mem.NewPageLRU()
		d.bufCap = int(cfg.BufferBytes / cfg.Geometry.PageBytes)
		d.scratch = make([]byte, cfg.Geometry.PageBytes)
	}
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// PageBytes returns the device's logical page size.
func (d *Device) PageBytes() uint64 { return d.cfg.Geometry.PageBytes }

// HasBuffer reports whether the device carries internal DRAM.
func (d *Device) HasBuffer() bool { return d.bufCap > 0 }

// Capacity returns the exported capacity in bytes.
func (d *Device) Capacity() uint64 {
	return d.ftl.ExportedPages() * d.cfg.Geometry.PageBytes
}

// Stats returns a copy of the counters with residency filled in.
func (d *Device) Stats() Stats {
	s := d.stats
	if d.buf != nil {
		s.BufferResident = d.buf.Len()
	}
	return s
}

// FTLStats exposes the translation-layer counters.
func (d *Device) FTLStats() ftl.Stats { return d.ftl.Stats() }

// FlashStats exposes the media counters (for the energy model).
func (d *Device) FlashStats() flash.Stats { return d.arr.Stats() }

// hilEnter charges firmware parse/split time.
func (d *Device) hilEnter(t sim.Time) sim.Time {
	_, done := d.hil.Acquire(t, d.cfg.HILOverhead)
	return done
}

func (d *Device) bufAccess(t sim.Time, bytes int64) sim.Time {
	_, done := d.bufBus.Acquire(t+d.cfg.BufferLat, sim.Bandwidth(bytes, d.cfg.BufferGBs))
	return done
}

// payload returns the bytes a buffer slot holds: a view of its buffer,
// or mem.Zeros for an all-zero entry. Every reader of slot contents
// goes through it; the result must not be written.
func (d *Device) payload(slot int32) []byte {
	s := d.slots[slot]
	if s.page == 0 {
		return mem.Zeros(int(s.n))
	}
	return d.pages[s.page-1][:s.n]
}

// setPayload stores data (truncated to a page) in a buffer slot. An
// all-zero payload detaches the slot's buffer instead of copying.
func (d *Device) setPayload(slot int32, data []byte) {
	if uint64(len(data)) > d.cfg.Geometry.PageBytes {
		data = data[:d.cfg.Geometry.PageBytes]
	}
	s := &d.slots[slot]
	s.n = int32(len(data))
	if mem.IsZero(data) {
		if s.page != 0 {
			d.spare = append(d.spare, s.page-1)
			s.page = 0
		}
		return
	}
	if s.page == 0 {
		if k := len(d.spare); k > 0 {
			s.page = d.spare[k-1] + 1
			d.spare = d.spare[:k-1]
		} else {
			d.pages = append(d.pages, make([]byte, d.cfg.Geometry.PageBytes))
			s.page = int32(len(d.pages))
		}
	}
	copy(d.pages[s.page-1], data)
}

// bufInsert places a page in the internal DRAM, evicting the LRU dirty
// page to flash when full. Returns the time the insert completes (the
// eviction program runs in the background on the flash resources).
func (d *Device) bufInsert(t sim.Time, lba uint64, data []byte, dirty bool) sim.Time {
	if slot, ok := d.buf.Get(lba); ok {
		d.setPayload(slot, data)
		d.slots[slot].dirty = d.slots[slot].dirty || dirty
		d.buf.MoveToFront(slot)
		return d.bufAccess(t, int64(len(data)))
	}
	for d.buf.Len() >= d.bufCap {
		vlba, vslot := d.buf.RemoveBack()
		d.stats.BufferEvicts++
		if d.slots[vslot].dirty {
			// Background write-back: occupies flash, does not gate t.
			if _, err := d.ftl.Write(t, vlba, d.payload(vslot)); err != nil {
				// Media full: surface by dropping; callers see ErrFull
				// on their own writes. Data loss accounting only.
				d.stats.DirtyLost++
			}
		}
	}
	slot := d.buf.InsertFront(lba)
	for int(slot) >= len(d.slots) {
		d.slots = mem.AppendDoubling(d.slots, bufSlot{})
	}
	d.setPayload(slot, data)
	d.slots[slot].dirty = dirty
	return d.bufAccess(t, int64(len(data)))
}

// Write stores one logical page. With fua (or on a buffer-less
// device) the data is programmed to flash before completion; otherwise
// it completes once it lands in the internal DRAM.
func (d *Device) Write(t sim.Time, lba uint64, data []byte, fua bool) (sim.Time, error) {
	now := d.hilEnter(t)
	d.stats.Writes++
	if fua {
		d.stats.FUAWrites++
	}
	if d.bufCap > 0 && !fua {
		return d.bufInsert(now, lba, data, true), nil
	}
	if d.bufCap > 0 {
		// FUA on a buffered device: write through.
		done := d.bufInsert(now, lba, data, false)
		fdone, err := d.ftl.Write(done, lba, data)
		if err != nil {
			return fdone, err
		}
		if slot, ok := d.buf.Get(lba); ok {
			d.slots[slot].dirty = false
		}
		return fdone, nil
	}
	return d.ftl.Write(now, lba, data)
}

// Read returns one logical page (first `bytes` transferred; 0 = all).
func (d *Device) Read(t sim.Time, lba uint64, bytes uint32) (sim.Time, []byte) {
	n := d.PageBytes()
	if d.bufCap > 0 {
		if slot, ok := d.buf.Get(lba); ok {
			n = uint64(d.slots[slot].n)
		}
	}
	buf := make([]byte, n)
	done, _ := d.ReadInto(t, lba, bytes, buf)
	return done, buf
}

// ReadInto performs Read without allocating, with the flash layer's
// contract: it reports zero, leaving dst untouched, when the page reads
// as all zero; otherwise up to one page of content lands in dst,
// zero-filled past the stored bytes. A nil dst charges timing (and
// buffer-state effects) only.
func (d *Device) ReadInto(t sim.Time, lba uint64, bytes uint32, dst []byte) (sim.Time, bool) {
	now := d.hilEnter(t)
	d.stats.Reads++
	n := int64(bytes)
	if n == 0 || n > int64(d.PageBytes()) {
		n = int64(d.PageBytes())
	}
	if d.bufCap > 0 {
		if slot, ok := d.buf.Get(lba); ok {
			d.stats.BufferHits++
			d.buf.MoveToFront(slot)
			zero := d.slots[slot].page == 0
			if !zero {
				clear(dst[copy(dst, d.payload(slot)):])
			}
			return d.bufAccess(now, n), zero
		}
		d.stats.BufferMisses++
		done, zero := d.ftl.ReadInto(now, lba, bytes, d.scratch)
		if zero {
			return d.bufInsert(done, lba, mem.Zeros(len(d.scratch)), false), true
		}
		done = d.bufInsert(done, lba, d.scratch, false)
		clear(dst[copy(dst, d.scratch):])
		return done, false
	}
	return d.ftl.ReadInto(now, lba, bytes, dst)
}

// Flush forces every dirty buffered page to flash, returning when the
// last program completes.
func (d *Device) Flush(t sim.Time) sim.Time {
	d.stats.Flushes++
	now := d.hilEnter(t)
	latest := now
	if d.buf == nil {
		return latest
	}
	// Walk the LRU order (oldest first): FTL page allocation and
	// flash-channel timing depend on write order, so the flush order
	// must be deterministic run to run.
	for slot := d.buf.TailSlot(); slot >= 0; slot = d.buf.PrevOf(slot) {
		if !d.slots[slot].dirty {
			continue
		}
		done, err := d.ftl.Write(now, d.buf.PageOf(slot), d.payload(slot))
		if err == nil {
			d.slots[slot].dirty = false
			if done > latest {
				latest = done
			}
		}
	}
	return latest
}

// Peek returns the current content of lba (buffer first, then flash)
// without any timing effect.
func (d *Device) Peek(lba uint64) []byte {
	if d.buf != nil {
		if slot, ok := d.buf.Get(lba); ok {
			return append([]byte(nil), d.payload(slot)...)
		}
	}
	return d.ftl.Peek(lba)
}

// Trim drops lba from the buffer and the FTL mapping. Used to model a
// torn write: a DMA that was in flight when power failed leaves the
// target page unreadable until the journal replay rewrites it.
func (d *Device) Trim(lba uint64) {
	if d.buf != nil {
		if slot, ok := d.buf.Get(lba); ok {
			d.buf.Remove(slot)
		}
	}
	d.ftl.Trim(lba)
}

// DropCaches flushes dirty pages and empties the internal DRAM buffer
// (used by device characterization so reads exercise the flash path,
// as they do once the working set exceeds the 512 MB buffer).
func (d *Device) DropCaches(t sim.Time) sim.Time {
	done := d.Flush(t)
	if d.buf != nil {
		d.buf = mem.NewPageLRU() // slot entries and their buffers are reused
	}
	return done
}

// PowerFail models sudden power loss. With a supercap the internal
// DRAM is streamed to flash (data preserved); without one, dirty pages
// are lost. It returns the number of dirty pages that were at risk.
func (d *Device) PowerFail() int {
	if d.buf == nil {
		return 0
	}
	dirty := 0
	// LRU order, not insertion order: the supercap path writes to
	// flash, and write order must be deterministic (see Flush).
	for slot := d.buf.TailSlot(); slot >= 0; slot = d.buf.PrevOf(slot) {
		if !d.slots[slot].dirty {
			continue
		}
		dirty++
		if d.cfg.Supercap {
			if _, err := d.ftl.Write(0, d.buf.PageOf(slot), d.payload(slot)); err == nil {
				d.slots[slot].dirty = false
				continue
			}
		}
		d.stats.DirtyLost++
	}
	if !d.cfg.Supercap {
		// Volatile buffer contents are gone.
		d.buf = mem.NewPageLRU()
	}
	return dirty
}

// DirtyLost reports pages dropped across the device's lifetime.
func (d *Device) DirtyLost() int64 { return d.stats.DirtyLost }

func (d *Device) String() string {
	return fmt.Sprintf("%s(%.0fGB, buffer %dMB)", d.cfg.Name,
		float64(d.Capacity())/(1<<30), d.cfg.BufferBytes>>20)
}
