package ftl

import (
	"fmt"

	"hams/internal/checkpoint"
)

// saveIdxMap serializes a radix table: chunk count, then for each
// materialized chunk its index and raw values.
func saveIdxMap(enc *checkpoint.Enc, m *idxMap) {
	live := 0
	for _, c := range m.chunks {
		if c != nil {
			live++
		}
	}
	enc.Count(len(m.chunks))
	enc.Count(live)
	for ci, c := range m.chunks {
		if c == nil {
			continue
		}
		enc.U64(uint64(ci))
		for _, v := range c {
			enc.U64(v)
		}
	}
}

// maxIdxChunks caps the radix spine a restored map may span: 1<<21
// chunks of 256 keys cover half a billion LBAs/PPNs, ~2.5x the 800 GB
// geometry, while bounding the spine allocation a hostile image can
// force to ~50 MB.
const maxIdxChunks = 1 << 21

// restoreIdxMap replaces a radix table from the wire. The live-chunk
// count is bounded by the bytes remaining (each live chunk costs
// 8 + 8*256 wire bytes); the spine length by maxIdxChunks.
func restoreIdxMap(d *checkpoint.Dec, m *idxMap) error {
	total := d.Count(maxIdxChunks)
	live := d.CountSized(8 + 8*idxChunkSize)
	if err := d.Err(); err != nil {
		return err
	}
	m.chunks = make([][]uint64, total)
	for i := 0; i < live; i++ {
		ci := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if ci >= uint64(total) {
			return fmt.Errorf("%w: idxMap chunk %d out of range", checkpoint.ErrCorrupt, ci)
		}
		c := make([]uint64, idxChunkSize)
		for j := range c {
			c[j] = d.U64()
		}
		m.chunks[ci] = c
	}
	return d.Err()
}

// SaveState serializes the translation layer: both radix maps, the
// free-block bookkeeping (virgin counters, recycled FIFOs, free
// bitmaps), active-block cursors, valid-page counts, the allocation
// round-robin cursor and the activity stats. The GC staging buffer is
// host-side scratch and is not serialized.
func (f *FTL) SaveState(enc *checkpoint.Enc) {
	saveIdxMap(enc, &f.l2p)
	saveIdxMap(enc, &f.p2l)
	enc.Count(len(f.virginNext))
	for _, v := range f.virginNext {
		enc.I64(int64(v))
	}
	for _, r := range f.recycled {
		enc.Count(len(r))
		for _, b := range r {
			enc.I64(int64(b))
		}
	}
	for _, words := range f.freeBit {
		enc.Count(len(words))
		for _, w := range words {
			enc.U64(w)
		}
	}
	enc.Count(len(f.active))
	for _, a := range f.active {
		enc.I64(int64(a.block))
		enc.I64(int64(a.nextPage))
	}
	enc.Count(len(f.valid))
	for _, v := range f.valid {
		enc.I64(int64(v))
	}
	enc.I64(int64(f.planeRR))
	enc.I64(f.stats.HostReads)
	enc.I64(f.stats.HostWrites)
	enc.I64(f.stats.GCWrites)
	enc.I64(f.stats.GCRuns)
	enc.I64(f.stats.Erases)
	enc.I64(f.stats.UnmappedRead)
}

// RestoreState overlays the translation layer. Per-plane slice lengths
// are structural (derived from the geometry at construction); the
// free bitmaps in particular are carved from one shared backing array,
// so values are copied into the existing sub-slices, never
// reallocated.
func (f *FTL) RestoreState(d *checkpoint.Dec) error {
	if err := restoreIdxMap(d, &f.l2p); err != nil {
		return err
	}
	if err := restoreIdxMap(d, &f.p2l); err != nil {
		return err
	}
	if err := structuralCount(d, "planes", len(f.virginNext)); err != nil {
		return err
	}
	for i := range f.virginNext {
		f.virginNext[i] = int(d.I64())
	}
	for p := range f.recycled {
		n := d.CountSized(8)
		if err := d.Err(); err != nil {
			return err
		}
		f.recycled[p] = f.recycled[p][:0]
		for i := 0; i < n; i++ {
			f.recycled[p] = append(f.recycled[p], int(d.I64()))
		}
	}
	for p := range f.freeBit {
		if err := structuralCount(d, "freeBit words", len(f.freeBit[p])); err != nil {
			return err
		}
		for i := range f.freeBit[p] {
			f.freeBit[p][i] = d.U64()
		}
	}
	if err := structuralCount(d, "active blocks", len(f.active)); err != nil {
		return err
	}
	for i := range f.active {
		f.active[i].block = int(d.I64())
		f.active[i].nextPage = int(d.I64())
	}
	if err := structuralCount(d, "blocks", len(f.valid)); err != nil {
		return err
	}
	for i := range f.valid {
		v := d.I64()
		if v < 0 || v > int64(f.geo.PagesPerBlk) {
			return fmt.Errorf("%w: block %d holds %d valid pages (block is %d)",
				checkpoint.ErrCorrupt, i, v, f.geo.PagesPerBlk)
		}
		f.valid[i] = int32(v)
	}
	f.planeRR = int(d.I64())
	f.stats.HostReads = d.I64()
	f.stats.HostWrites = d.I64()
	f.stats.GCWrites = d.I64()
	f.stats.GCRuns = d.I64()
	f.stats.Erases = d.I64()
	f.stats.UnmappedRead = d.I64()
	return d.Err()
}

func structuralCount(d *checkpoint.Dec, what string, want int) error {
	n := d.Count(want)
	if err := d.Err(); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%w: %s count %d, want %d", checkpoint.ErrMismatch, what, n, want)
	}
	return nil
}
