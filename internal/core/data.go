package core

import (
	"hams/internal/mem"
	"hams/internal/sim"
)

// Read performs a timed MMU read of len(p) bytes at addr and copies
// the data into p. The per-page functional copy happens immediately
// after each page's access so that pages which later get evicted by a
// conflicting part of the same request are read before they leave.
func (c *Controller) Read(t sim.Time, addr uint64, p []byte) (AccessResult, error) {
	a := mem.Access{Addr: addr, Size: uint32(len(p)), Op: mem.Read}
	return c.run(t, a, func(part mem.Access, cacheAddr uint64) {
		off := part.Addr - addr
		c.nvdimm.Store().ReadAt(cacheAddr, p[off:off+uint64(part.Size)])
	})
}

// Write performs a timed MMU write of p at addr. The functional bytes
// land in the NVDIMM cache page (write-back; eviction moves them to
// the archive later).
func (c *Controller) Write(t sim.Time, addr uint64, p []byte) (AccessResult, error) {
	a := mem.Access{Addr: addr, Size: uint32(len(p)), Op: mem.Write}
	return c.run(t, a, func(part mem.Access, cacheAddr uint64) {
		off := part.Addr - addr
		c.nvdimm.Store().WriteAt(cacheAddr, p[off:off+uint64(part.Size)])
	})
}

// run is the shared timed-access loop: it serves each page-part and
// invokes fn with the NVDIMM cache address holding that part.
func (c *Controller) run(t sim.Time, a mem.Access, fn func(part mem.Access, cacheAddr uint64)) (AccessResult, error) {
	if a.End() > c.capacity {
		return AccessResult{}, errBeyondCapacity(a, c.capacity)
	}
	c.engine.AdvanceTo(t)
	var res AccessResult
	res.Hit = true
	first := true
	c.split = mem.AppendSplit(c.split[:0], a, c.cfg.PageBytes)
	for _, part := range c.split {
		r, cacheAddr, err := c.accessPage(t, part)
		if err != nil {
			return res, err
		}
		if fn != nil {
			fn(part, cacheAddr+part.Addr%c.cfg.PageBytes)
		}
		res.Done = r.Done
		if first {
			res.Hit = r.Hit
			first = false
		} else {
			res.Hit = res.Hit && r.Hit
		}
		res.Wait += r.Wait
		res.NVDIMM += r.NVDIMM
		res.DMA += r.DMA
		res.SSD += r.SSD
		res.Throttle += r.Throttle
		t = r.Done
	}
	c.stats.Accesses++
	if res.Hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	c.stats.WaitTime += res.Wait
	c.stats.NVDIMMTime += res.NVDIMM
	c.stats.DMATime += res.DMA
	c.stats.SSDTime += res.SSD
	return res, nil
}

// PeekData returns the current functional content of the MoS address
// range without any timing effect — reads through the NVDIMM cache to
// the archive. The tag-array probe does not update replacement state.
// Used by verification and examples.
func (c *Controller) PeekData(addr uint64, p []byte) {
	for _, part := range mem.SplitByPage(mem.Access{Addr: addr, Size: uint32(len(p)), Op: mem.Read}, c.cfg.PageBytes) {
		off := part.Addr - addr
		page := part.Addr / c.cfg.PageBytes
		b, set := c.route(page)
		if slot, ok := b.tags.Lookup(set, page); ok {
			cacheAddr := c.cacheAddr(b, slot) + part.Addr%c.cfg.PageBytes
			c.nvdimm.Store().ReadAt(cacheAddr, p[off:off+uint64(part.Size)])
			continue
		}
		// Not resident: read the archive functionally.
		devPage := c.dev.PageBytes()
		remain := p[off : off+uint64(part.Size)]
		cur := part.Addr
		for len(remain) > 0 {
			page := c.dev.Peek(cur / devPage)
			po := cur % devPage
			n := devPage - po
			if n > uint64(len(remain)) {
				n = uint64(len(remain))
			}
			copy(remain[:n], page[po:po+n])
			remain = remain[n:]
			cur += n
		}
	}
}
