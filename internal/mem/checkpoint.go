package mem

import (
	"fmt"

	"hams/internal/checkpoint"
)

// maxRestoredFrames caps the frames a single image may materialize
// (4 GiB of store). Zero-compressed frames cost ~17 wire bytes, so
// without a cap a hostile 2 GiB section could demand terabytes.
const maxRestoredFrames = 1 << 20

// SaveState serializes the resident frame set: frame count, then
// (fid, 4 KiB payload) pairs in ascending fid order — deterministic by
// construction because the radix table iterates in index order.
// Payloads go through Enc.Page; resident frames are nonzero, and
// images from before zero pages were held as absence compress their
// all-zero frames to a flag on the wire.
func (s *SparseStore) SaveState(enc *checkpoint.Enc) {
	enc.Count(s.n)
	for ci, ch := range s.chunks {
		if ch == nil {
			continue
		}
		for i, f := range ch {
			if f == nil {
				continue
			}
			enc.U64(uint64(ci)<<framesPerChunkBits | uint64(i))
			enc.Page(f[:])
		}
	}
}

// RestoreState replaces the store's contents with the image's frames.
// All-zero frames are elided, as a live store holds them, so a
// restored store is resident in exactly the frames its source was.
// The frame count is bounded by the bytes remaining at the minimum
// wire cost of a frame (8-byte fid + zero-compressed page) and by
// maxRestoredFrames, so no unvalidated count sizes an allocation.
func (s *SparseStore) RestoreState(d *checkpoint.Dec) error {
	n := d.CountSized(8 + 9)
	if err := d.Err(); err != nil {
		return err
	}
	if n > maxRestoredFrames {
		return fmt.Errorf("%w: %d frames exceeds limit %d", checkpoint.ErrCorrupt, n, maxRestoredFrames)
	}
	s.chunks = s.chunks[:0]
	s.n = 0
	for i := 0; i < n; i++ {
		fid := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		// Cap the frame id so a hostile image cannot force the radix
		// spine to balloon: 1<<28 frames covers a 1 TiB address space,
		// far beyond any store the simulator builds.
		if fid >= 1<<28 {
			return fmt.Errorf("%w: frame id %d exceeds limit", checkpoint.ErrCorrupt, fid)
		}
		p, size := d.PageView(frameSize)
		if err := d.Err(); err != nil {
			return err
		}
		if size != frameSize {
			return fmt.Errorf("%w: frame %d holds %d bytes (frame is %d)", checkpoint.ErrCorrupt, fid, size, frameSize)
		}
		if p == nil {
			p = Zeros(frameSize)
		}
		s.WriteAt(fid*frameSize, p)
	}
	return d.Err()
}

// SaveState serializes the recency structure: the slot arrays, list
// heads and free list. The radix index is derivable (it maps pages
// back to live slots), so it is rebuilt on restore rather than
// serialized.
func (l *PageLRU) SaveState(enc *checkpoint.Enc) {
	enc.Count(len(l.pages))
	for _, p := range l.pages {
		enc.U64(p)
	}
	for _, v := range l.prev {
		enc.I64(int64(v))
	}
	for _, v := range l.next {
		enc.I64(int64(v))
	}
	enc.I64(int64(l.head))
	enc.I64(int64(l.tail))
	enc.Count(len(l.free))
	for _, v := range l.free {
		enc.I64(int64(v))
	}
	enc.Count(l.n)
}

// RestoreState overlays the recency structure and rebuilds the radix
// index from the live slots. The slot count is bounded by the bytes
// remaining (each slot costs 24 wire bytes across the three arrays).
func (l *PageLRU) RestoreState(d *checkpoint.Dec) error {
	slots := d.CountSized(24)
	if err := d.Err(); err != nil {
		return err
	}
	l.pages = make([]uint64, slots)
	l.prev = make([]int32, slots)
	l.next = make([]int32, slots)
	for i := range l.pages {
		l.pages[i] = d.U64()
	}
	for i := range l.prev {
		l.prev[i] = int32(d.I64())
	}
	for i := range l.next {
		l.next[i] = int32(d.I64())
	}
	l.head = int32(d.I64())
	l.tail = int32(d.I64())
	nfree := d.Count(slots)
	l.free = make([]int32, nfree)
	for i := range l.free {
		l.free[i] = int32(d.I64())
	}
	l.n = d.Count(slots)
	if err := d.Err(); err != nil {
		return err
	}
	isFree := make([]bool, slots)
	for _, f := range l.free {
		if int(f) >= slots || f < 0 {
			return fmt.Errorf("%w: free slot %d out of range", checkpoint.ErrCorrupt, f)
		}
		isFree[f] = true
	}
	l.chunks = l.chunks[:0]
	for slot := 0; slot < slots; slot++ {
		if !isFree[slot] {
			// Cap the page number so a hostile image cannot force the
			// radix spine to balloon (1<<32 pages covers every page
			// space the simulator indexes).
			if l.pages[slot] >= 1<<32 {
				return fmt.Errorf("%w: page %d exceeds limit", checkpoint.ErrCorrupt, l.pages[slot])
			}
			l.index(l.pages[slot], int32(slot)+1)
		}
	}
	return nil
}
