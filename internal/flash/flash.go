// Package flash models a NAND flash complex: channels × packages ×
// dies × planes with per-die occupancy, per-channel data buses, page
// program/read/erase state rules, and functional page data. Two media
// are provided: Z-NAND (the ULL-Flash medium, SLC-like 3 µs reads /
// 100 µs programs, §II-C) and conventional V-NAND TLC (the baseline
// NVMe SSD medium).
package flash

import (
	"fmt"
	"math/bits"

	"hams/internal/mem"
	"hams/internal/sim"
)

// Timing carries the medium's operation latencies.
type Timing struct {
	TRead   sim.Time // page read (cell array -> page register)
	TProg   sim.Time // page program
	TErase  sim.Time // block erase
	ChanGBs float64  // per-channel transfer bandwidth
}

// ZNAND returns the Z-NAND timing from the paper (3 µs / 100 µs).
func ZNAND() Timing {
	return Timing{
		TRead:   3 * sim.Microsecond,
		TProg:   100 * sim.Microsecond,
		TErase:  1 * sim.Millisecond,
		ChanGBs: 1.2,
	}
}

// VNANDTLC returns conventional TLC timing: the paper cites Z-NAND as
// 15x / 7x faster for read / write than V-NAND.
func VNANDTLC() Timing {
	return Timing{
		TRead:   45 * sim.Microsecond,
		TProg:   700 * sim.Microsecond,
		TErase:  5 * sim.Millisecond,
		ChanGBs: 0.8,
	}
}

// Geometry describes the physical organization.
type Geometry struct {
	Channels     int
	PackagesPerC int
	DiesPerPkg   int
	PlanesPerDie int
	BlocksPerPln int
	PagesPerBlk  int
	PageBytes    uint64
}

// ULLGeometry returns the 800 GB-class 16-channel Z-NAND geometry of
// the paper's prototype (§II-C, Table II). The FTL allocates lazily,
// so the large block count costs only per-plane free lists.
func ULLGeometry() Geometry {
	return Geometry{
		Channels:     16,
		PackagesPerC: 2,
		DiesPerPkg:   2,
		PlanesPerDie: 2,
		BlocksPerPln: 6400,
		PagesPerBlk:  256,
		PageBytes:    4096,
	}
}

// Dies returns the total number of dies.
func (g Geometry) Dies() int { return g.Channels * g.PackagesPerC * g.DiesPerPkg }

// Planes returns the total number of planes.
func (g Geometry) Planes() int { return g.Dies() * g.PlanesPerDie }

// Blocks returns the total number of blocks.
func (g Geometry) Blocks() int { return g.Planes() * g.BlocksPerPln }

// TotalPages returns the number of physical pages.
func (g Geometry) TotalPages() uint64 {
	return uint64(g.Blocks()) * uint64(g.PagesPerBlk)
}

// Capacity returns the raw capacity in bytes.
func (g Geometry) Capacity() uint64 { return g.TotalPages() * g.PageBytes }

// PPN is a physical page number in [0, TotalPages).
type PPN uint64

// Addr decomposes a PPN. Pages are striped so that consecutive PPNs
// rotate across channels first, then dies, then planes — giving maximal
// parallelism for sequential physical allocation.
type Addr struct {
	Channel, Package, Die, Plane, Block, Page int
}

// Decompose splits a PPN into its physical coordinates.
func (g Geometry) Decompose(p PPN) Addr {
	v := uint64(p)
	ch := int(v % uint64(g.Channels))
	v /= uint64(g.Channels)
	pkg := int(v % uint64(g.PackagesPerC))
	v /= uint64(g.PackagesPerC)
	die := int(v % uint64(g.DiesPerPkg))
	v /= uint64(g.DiesPerPkg)
	pln := int(v % uint64(g.PlanesPerDie))
	v /= uint64(g.PlanesPerDie)
	pg := int(v % uint64(g.PagesPerBlk))
	v /= uint64(g.PagesPerBlk)
	blk := int(v)
	return Addr{Channel: ch, Package: pkg, Die: die, Plane: pln, Block: blk, Page: pg}
}

// Compose is the inverse of Decompose.
func (g Geometry) Compose(a Addr) PPN {
	v := uint64(a.Block)
	v = v*uint64(g.PagesPerBlk) + uint64(a.Page)
	v = v*uint64(g.PlanesPerDie) + uint64(a.Plane)
	v = v*uint64(g.DiesPerPkg) + uint64(a.Die)
	v = v*uint64(g.PackagesPerC) + uint64(a.Package)
	v = v*uint64(g.Channels) + uint64(a.Channel)
	return PPN(v)
}

// GlobalDie returns the flat die index for occupancy tracking.
func (g Geometry) GlobalDie(a Addr) int {
	return (a.Channel*g.PackagesPerC+a.Package)*g.DiesPerPkg + a.Die
}

// BlockID flattens (plane-level) block coordinates for erase tracking.
func (g Geometry) BlockID(a Addr) uint64 {
	plane := uint64(g.GlobalDie(a))*uint64(g.PlanesPerDie) + uint64(a.Plane)
	return plane*uint64(g.BlocksPerPln) + uint64(a.Block)
}

// Stats aggregates flash activity for the energy model.
type Stats struct {
	Reads, Programs, Erases int64
	BytesIn, BytesOut       int64
	DieBusy                 sim.Time
}

// Array is the flash complex.
type Array struct {
	Geo Geometry
	Tim Timing

	dies  []sim.Time // next-free per die
	chans []*sim.Resource
	// written is the NAND protocol state: a page is "written" exactly
	// when its bit is set, from program until the erase of its block.
	// It is a lazily allocated two-level bitset over PPNs (see
	// writtenChunkBits), so the per-program state costs one bit and no
	// pointer for the garbage collector to trace.
	written  [][]uint64
	nwritten int
	// data holds the content of every written page that is not all
	// zero. A written page without an entry is elided: it reads as all
	// zero (a zero program, or a restored stale page) and owns no
	// buffer. Erase recycles buffers through freeBufs so steady-state
	// program/erase cycles stop allocating.
	data     map[PPN][]byte
	freeBufs [][]byte
	erases   map[uint64]int64 // blockID -> erase count (wear)
	stats    Stats
}

// writtenChunkBits sizes one chunk of the written bitset: 2^15 PPNs,
// 4 KiB of bits. PPNs put the block index above the page and the
// plane, so with the ULL geometry a chunk is one block index across
// all 128 planes, and the FTL's per-plane sequential allocation fills
// chunks densely.
const (
	writtenChunkBits  = 15
	writtenChunkWords = 1 << writtenChunkBits / 64
)

func (a *Array) isWritten(p PPN) bool {
	ci := uint64(p) >> writtenChunkBits
	if ci >= uint64(len(a.written)) || a.written[ci] == nil {
		return false
	}
	w := uint64(p) & (1<<writtenChunkBits - 1)
	return a.written[ci][w/64]&(1<<(w%64)) != 0
}

// setWritten marks p written; p must not be written already.
func (a *Array) setWritten(p PPN) {
	ci := uint64(p) >> writtenChunkBits
	for uint64(len(a.written)) <= ci {
		a.written = append(a.written, nil)
	}
	if a.written[ci] == nil {
		a.written[ci] = make([]uint64, writtenChunkWords)
	}
	w := uint64(p) & (1<<writtenChunkBits - 1)
	a.written[ci][w/64] |= 1 << (w % 64)
	a.nwritten++
}

// clearWritten marks p erased, reporting whether it was written.
func (a *Array) clearWritten(p PPN) bool {
	if !a.isWritten(p) {
		return false
	}
	w := uint64(p) & (1<<writtenChunkBits - 1)
	a.written[uint64(p)>>writtenChunkBits][w/64] &^= 1 << (w % 64)
	a.nwritten--
	return true
}

// writtenPPNs returns every written PPN in ascending order.
func (a *Array) writtenPPNs() []uint64 {
	out := make([]uint64, 0, a.nwritten)
	for ci, ch := range a.written {
		for wi, w := range ch {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				out = append(out, uint64(ci)<<writtenChunkBits|uint64(wi*64+b))
			}
		}
	}
	return out
}

// New builds an array from a geometry and timing.
func New(g Geometry, t Timing) *Array {
	a := &Array{
		Geo:   g,
		Tim:   t,
		dies:  make([]sim.Time, g.Dies()),
		chans: make([]*sim.Resource, g.Channels),
		data:  make(map[PPN][]byte),

		erases: make(map[uint64]int64),
	}
	for i := range a.chans {
		a.chans[i] = sim.NewResource()
	}
	return a
}

// Stats returns a copy of the counters.
func (a *Array) Stats() Stats { return a.stats }

// ResetStats zeroes the counters.
func (a *Array) ResetStats() { a.stats = Stats{} }

// Written reports whether ppn holds programmed data.
func (a *Array) Written(p PPN) bool { return a.isWritten(p) }

// EraseCount returns the wear of the block containing ppn.
func (a *Array) EraseCount(p PPN) int64 {
	return a.erases[a.Geo.BlockID(a.Geo.Decompose(p))]
}

func (a *Array) dieOf(p PPN) int { return a.Geo.GlobalDie(a.Geo.Decompose(p)) }

// xferBytes returns the clamped transfer size for partial-page ops.
func (a *Array) xferBytes(n uint32) int64 {
	if n == 0 || uint64(n) > a.Geo.PageBytes {
		return int64(a.Geo.PageBytes)
	}
	return int64(n)
}

// readTiming charges the die and channel for a read of n transfer
// bytes and returns the completion time.
func (a *Array) readTiming(t sim.Time, ad Addr, n int64) sim.Time {
	die := a.Geo.GlobalDie(ad)
	start := t
	if a.dies[die] > start {
		start = a.dies[die]
	}
	cellDone := start + a.Tim.TRead
	a.dies[die] = cellDone
	a.stats.DieBusy += a.Tim.TRead
	_, done := a.chans[ad.Channel].Acquire(cellDone, sim.Bandwidth(n, a.Tim.ChanGBs))
	a.stats.Reads++
	a.stats.BytesOut += n
	return done
}

// ReadPage performs a flash read of up to bytes (0 = full page) from
// ppn arriving at t: the die is busy for TRead, then the data crosses
// the channel bus. It returns the completion time and a full page of
// data.
func (a *Array) ReadPage(t sim.Time, p PPN, bytes uint32) (sim.Time, []byte) {
	buf := make([]byte, a.Geo.PageBytes)
	done, _ := a.ReadPageInto(t, p, bytes, buf)
	return done, buf
}

// ReadPageInto is the allocation-free ReadPage. When the page reads as
// all zero (unprogrammed, or an elided payload) it reports zero and
// leaves dst untouched: the caller knows the content without a copy.
// Otherwise the page lands in dst (dst longer than a page is filled to
// the page size). A nil dst charges timing only, without looking the
// page up, and reports zero since dst is left untouched.
func (a *Array) ReadPageInto(t sim.Time, p PPN, bytes uint32, dst []byte) (sim.Time, bool) {
	done := a.readTiming(t, a.Geo.Decompose(p), a.xferBytes(bytes))
	if dst == nil {
		return done, true
	}
	d, ok := a.data[p]
	if !ok {
		return done, true
	}
	if uint64(len(dst)) > a.Geo.PageBytes {
		dst = dst[:a.Geo.PageBytes]
	}
	clear(dst[copy(dst, d):])
	return done, false
}

// ErrProgramWritten is returned when programming a non-erased page,
// which would be a NAND protocol violation (FTL bug).
var ErrProgramWritten = fmt.Errorf("flash: program to non-erased page")

// ProgramPage programs data into ppn arriving at t: the data crosses
// the channel bus, then the die is busy for TProg. Programming a page
// that has not been erased since its last program returns an error.
func (a *Array) ProgramPage(t sim.Time, p PPN, data []byte) (sim.Time, error) {
	if a.isWritten(p) {
		return t, ErrProgramWritten
	}
	ad := a.Geo.Decompose(p)
	die := a.Geo.GlobalDie(ad)
	n := int64(a.Geo.PageBytes) // programs always move a full page
	_, xferDone := a.chans[ad.Channel].Acquire(t, sim.Bandwidth(n, a.Tim.ChanGBs))
	start := xferDone
	if a.dies[die] > start {
		start = a.dies[die]
	}
	done := start + a.Tim.TProg
	a.dies[die] = done
	a.stats.DieBusy += a.Tim.TProg
	a.stats.Programs++
	a.stats.BytesIn += n

	if uint64(len(data)) > a.Geo.PageBytes {
		data = data[:a.Geo.PageBytes]
	}
	a.setWritten(p)
	if mem.IsZero(data) {
		return done, nil // payload elided
	}
	var stored []byte
	if k := len(a.freeBufs); k > 0 {
		stored = a.freeBufs[k-1]
		a.freeBufs = a.freeBufs[:k-1]
	} else {
		stored = make([]byte, a.Geo.PageBytes)
	}
	clear(stored[copy(stored, data):])
	a.data[p] = stored
	return done, nil
}

// EraseBlock erases the block containing ppn, invalidating every page
// in it. It returns the completion time.
func (a *Array) EraseBlock(t sim.Time, p PPN) sim.Time {
	ad := a.Geo.Decompose(p)
	die := a.Geo.GlobalDie(ad)
	start := t
	if a.dies[die] > start {
		start = a.dies[die]
	}
	done := start + a.Tim.TErase
	a.dies[die] = done
	a.stats.DieBusy += a.Tim.TErase
	a.stats.Erases++
	bid := a.Geo.BlockID(ad)
	a.erases[bid]++
	// Clear every page of the block.
	base := Addr{Channel: ad.Channel, Package: ad.Package, Die: ad.Die, Plane: ad.Plane, Block: ad.Block}
	for pg := 0; pg < a.Geo.PagesPerBlk; pg++ {
		base.Page = pg
		ppn := a.Geo.Compose(base)
		if !a.clearWritten(ppn) {
			continue
		}
		if d, ok := a.data[ppn]; ok {
			a.freeBufs = append(a.freeBufs, d)
			delete(a.data, ppn)
		}
	}
	return done
}

// DieNextFree exposes die occupancy (for queue-depth experiments).
func (a *Array) DieNextFree(i int) sim.Time { return a.dies[i] }

// PeekPage returns a full page of stored data without any timing
// effect. Used by functional (non-timed) inspection paths.
func (a *Array) PeekPage(p PPN) []byte {
	buf := make([]byte, a.Geo.PageBytes)
	copy(buf, a.data[p])
	return buf
}

func (a *Array) String() string {
	return fmt.Sprintf("flash(%dch x %dpkg x %ddie, %s read)",
		a.Geo.Channels, a.Geo.PackagesPerC, a.Geo.DiesPerPkg, a.Tim.TRead)
}
