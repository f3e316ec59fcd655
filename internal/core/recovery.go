package core

import (
	"hams/internal/mem"
	"hams/internal/nvme"
	"hams/internal/sim"
)

// PowerFailReport summarizes what happened at the instant of failure.
type PowerFailReport struct {
	InFlight     int      // NVMe commands caught mid-service (all banks)
	TornWrites   int      // write DMAs lost on the device side
	BackupTime   sim.Time // NVDIMM supercap backup stream duration
	DirtyFlushed int      // SSD-internal dirty pages saved by its supercap
}

// RecoverReport summarizes the power-up procedure (Figure 15).
type RecoverReport struct {
	RestoreTime sim.Time
	Pending     int // journal-tagged commands found across every bank's SQ
	Replayed    int
	Done        sim.Time
}

// PowerFail models a sudden power loss at time t:
//
//   - every in-flight DMA dies; write commands leave torn pages on the
//     device (we trim them so they are unreadable until replayed);
//   - the NVDIMM supercap streams the DRAM image — including the
//     pinned region with every bank's SQ/CQ bytes and journal tags —
//     to its private flash;
//   - the ULL-Flash supercap flushes its internal DRAM (loose
//     topology; the tight device has no buffer);
//   - all controller SRAM state (per-bank in-flight tables, PRP free
//     lists, busy bits) is lost.
func (c *Controller) PowerFail(t sim.Time) PowerFailReport {
	c.engine.AdvanceTo(t)
	var rep PowerFailReport
	for _, b := range c.banks {
		rep.InFlight += len(b.live)
		for i := range b.live {
			if b.live[i].cmd.Opcode == nvme.OpWrite {
				rep.TornWrites++
				devPage := c.dev.PageBytes()
				for off := uint64(0); off < uint64(b.live[i].cmd.Length); off += devPage {
					c.dev.Trim((b.live[i].cmd.LBA + off) / devPage)
				}
			}
		}
	}
	rep.BackupTime = c.nvdimm.PowerFail()
	rep.DirtyFlushed = c.dev.PowerFail()

	// Volatile controller state dies with the power.
	c.engine = sim.NewEngine()
	c.engine.AdvanceTo(t)
	for _, b := range c.banks {
		b.live = b.live[:0]
		b.tags.ClearVolatile()
		if b.mshrs != nil {
			b.mshrs.Reset() // registers are controller SRAM
		}
		b.lastIODone = 0
		b.lastArrival = 0
	}
	c.lockFreeAt = 0
	return rep
}

// Recover performs the power-up procedure of Figure 15: restore the
// NVDIMM image, then for every bank scan the persisted SQ bytes for
// journal tags that are still set, re-create a fresh SQ/CQ pair,
// re-issue each pending command to the ULL-Flash, and clear the
// journal. Banks replay in bank order; Recover returns when the last
// replayed command completes.
func (c *Controller) Recover(t sim.Time) (RecoverReport, error) {
	var rep RecoverReport
	rep.RestoreTime = c.nvdimm.Restore()
	now := t + rep.RestoreTime
	c.engine.AdvanceTo(now)

	for _, b := range c.banks {
		// Phase 2: scan the bank's restored pinned region.
		pending := b.qp.PendingJournal()
		rep.Pending += len(pending)

		// Phase 3: allocate a fresh SQ/CQ pair over the same pinned
		// bytes and re-issue the incomplete commands.
		layout := nvme.DefaultLayout(b.qBase)
		fresh := nvme.NewQueuePair(c.nvdimm.Store(), layout)
		// Zeroing the rings clears every stale journal tag.
		fresh.SQ.Reset()
		fresh.CQ.Reset()
		b.qp = fresh

		for _, cmd := range pending {
			cid, err := b.qp.Submit(cmd)
			if err != nil {
				return rep, err
			}
			switch cmd.Opcode {
			case nvme.OpWrite:
				// Replay the write from the PRP clone, which survived
				// in the pinned region of the NVDIMM.
				data := make([]byte, cmd.Length)
				c.nvdimm.Store().ReadAt(cmd.PRP, data)
				done, err := c.devWrite(now, cmd.LBA, data, cmd.FUA)
				if err != nil {
					return rep, err
				}
				now = done
			case nvme.OpRead:
				// Replay the fill: the data lands back in the cache page.
				data := make([]byte, cmd.Length)
				done, zero := c.devReadInto(now, cmd.LBA, data)
				landDone := c.nvdimm.Bulk(done, cmd.PRP, cmd.Length, mem.Write)
				c.landFill(cmd.PRP, data, zero)
				now = landDone
			}
			_ = b.qp.DeviceComplete(cid, 0)
			_, _ = b.qp.HostReap()
			rep.Replayed++
			c.stats.Replayed++
		}

		// The PRP free list is SRAM: rebuild it (replayed clones retired).
		b.prp = nvme.NewPRPPool(b.prp.Base(), c.cfg.PageBytes, c.cfg.PRPSlots)
	}

	rep.Done = now
	c.engine.AdvanceTo(now)
	return rep, nil
}
