package mem

// SparseStore is a byte-addressable backing store that allocates 4 KiB
// frames lazily. It lets the simulator model terabyte address spaces
// (the 800 GB ULL-Flash archive, an 8 GB NVDIMM) while only paying for
// pages a workload actually touches. Unwritten bytes read as zero.
//
// A frame is resident exactly when it holds a nonzero byte: an
// all-zero page is held as absence. Zero writes to an absent frame
// allocate nothing, and a write that leaves a frame all zero releases
// it to a spare list the next nonzero write reuses. Cold fills of
// never-written pages therefore cost neither memory nor copies.
//
// Frames are indexed by a two-level radix table (frame id split into
// chunk / offset) instead of a map: the per-access lookups on the
// simulator's hot path become two slice loads, and iteration order
// (Snapshot/Restore, Frames) is deterministic by construction.
type SparseStore struct {
	chunks [][]*[frameSize]byte // fid>>framesPerChunkBits → chunk
	n      int                  // allocated frames
	spare  []*[frameSize]byte   // released frames, contents stale
}

const (
	frameSize          = 4 * KiB
	framesPerChunkBits = 12 // 4096 frame pointers (32 KiB) per chunk
	framesPerChunk     = 1 << framesPerChunkBits
	frameChunkMask     = framesPerChunk - 1
)

// NewSparseStore returns an empty store.
func NewSparseStore() *SparseStore { return &SparseStore{} }

// frame returns the frame holding fid, or nil when it reads as zero.
func (s *SparseStore) frame(fid uint64) *[frameSize]byte {
	ci := fid >> framesPerChunkBits
	if ci >= uint64(len(s.chunks)) || s.chunks[ci] == nil {
		return nil
	}
	return s.chunks[ci][fid&frameChunkMask]
}

// ensureFrame returns the frame holding fid, allocating a zeroed one
// (from the spare list when it can) if needed.
func (s *SparseStore) ensureFrame(fid uint64) *[frameSize]byte {
	ci := fid >> framesPerChunkBits
	for uint64(len(s.chunks)) <= ci {
		s.chunks = append(s.chunks, nil)
	}
	if s.chunks[ci] == nil {
		s.chunks[ci] = make([]*[frameSize]byte, framesPerChunk)
	}
	f := s.chunks[ci][fid&frameChunkMask]
	if f == nil {
		if k := len(s.spare); k > 0 {
			f = s.spare[k-1]
			s.spare = s.spare[:k-1]
			clear(f[:])
		} else {
			f = new([frameSize]byte)
		}
		s.chunks[ci][fid&frameChunkMask] = f
		s.n++
	}
	return f
}

// release drops the resident frame fid (which now reads as zero) and
// keeps its buffer for reuse.
func (s *SparseStore) release(fid uint64) {
	ch := s.chunks[fid>>framesPerChunkBits]
	s.spare = append(s.spare, ch[fid&frameChunkMask])
	ch[fid&frameChunkMask] = nil
	s.n--
}

// ReadAt copies len(p) bytes starting at addr into p.
func (s *SparseStore) ReadAt(addr uint64, p []byte) {
	for len(p) > 0 {
		fid := addr / frameSize
		off := addr % frameSize
		n := min(frameSize-off, uint64(len(p)))
		if f := s.frame(fid); f != nil {
			copy(p[:n], f[off:off+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		addr += n
	}
}

// View returns the len(scratch) bytes at addr for reading without
// copying where it can: Zeros when every frame of the range is absent
// (so the consumer knows the payload is zero without a scan), else
// the bytes read into scratch. The result must not be written.
func (s *SparseStore) View(addr uint64, scratch []byte) []byte {
	end := addr + uint64(len(scratch))
	for a := AlignDown(addr, frameSize); a < end; a += frameSize {
		if s.frame(a/frameSize) != nil {
			s.ReadAt(addr, scratch)
			return scratch
		}
	}
	return Zeros(len(scratch))
}

// WriteAt copies p into the store starting at addr. All-zero chunks
// never allocate, and a chunk that leaves its frame all zero releases
// the frame.
func (s *SparseStore) WriteAt(addr uint64, p []byte) {
	for len(p) > 0 {
		fid := addr / frameSize
		off := addr % frameSize
		n := min(frameSize-off, uint64(len(p)))
		if !IsZero(p[:n]) {
			copy(s.ensureFrame(fid)[off:off+n], p[:n])
		} else if f := s.frame(fid); f != nil {
			if n == frameSize {
				s.release(fid) // cleared when reused
			} else if clear(f[off : off+n]); IsZero(f[:]) {
				s.release(fid)
			}
		}
		p = p[n:]
		addr += n
	}
}

// Copy moves n bytes from src to dst within the store, tolerating
// overlap (used for page clones into the PRP pool). Absent source
// frames reach the destination as zero writes, so cloning a zero page
// onto a zero page touches nothing.
func (s *SparseStore) Copy(dst, src uint64, n uint64) {
	if n == 0 || dst == src {
		return
	}
	if dst < src+n && src < dst+n {
		// Overlapping ranges: stage the whole source first so the copy
		// behaves like memmove. Never hit by the PRP-clone hot path,
		// whose pool is disjoint from the cache region.
		buf := make([]byte, n)
		s.ReadAt(src, buf)
		s.WriteAt(dst, buf)
		return
	}
	var buf [frameSize]byte
	for n > 0 {
		c := min(frameSize, n)
		s.WriteAt(dst, s.View(src, buf[:c]))
		src += c
		dst += c
		n -= c
	}
}

// Zero clears n bytes starting at addr.
func (s *SparseStore) Zero(addr, n uint64) {
	for n > 0 {
		c := min(uint64(len(zeroPage)), n)
		s.WriteAt(addr, Zeros(int(c)))
		addr += c
		n -= c
	}
}

// Frames returns the number of allocated 4 KiB frames (resident set).
func (s *SparseStore) Frames() int { return s.n }

// Snapshot returns a deep copy of the store. Used to model the NVDIMM
// supercap backup image taken at power failure.
func (s *SparseStore) Snapshot() *SparseStore {
	c := NewSparseStore()
	c.chunks = make([][]*[frameSize]byte, len(s.chunks))
	for ci, ch := range s.chunks {
		if ch == nil {
			continue
		}
		nc := make([]*[frameSize]byte, framesPerChunk)
		for i, f := range ch {
			if f != nil {
				nf := *f
				nc[i] = &nf
				c.n++
			}
		}
		c.chunks[ci] = nc
	}
	return c
}

// Restore replaces the contents of s with the snapshot's contents.
func (s *SparseStore) Restore(snap *SparseStore) {
	r := snap.Snapshot()
	s.chunks = r.chunks
	s.n = r.n
}
