package core

import (
	"fmt"

	"hams/internal/mem"
	"hams/internal/nvme"
	"hams/internal/qos"
	"hams/internal/sim"
)

// AccessResult reports the timing of one MMU request.
type AccessResult struct {
	Done   sim.Time
	Hit    bool
	Wait   sim.Time // time parked behind busy bits / persist serialization
	NVDIMM sim.Time // NVDIMM array time on the critical path
	DMA    sim.Time // interface/DMA transfer time on the critical path
	SSD    sim.Time // device-internal (HIL/buffer/flash) time

	// Throttle is the MBA pacing debt the QoS throttle charged this
	// request's class. It is deliberately NOT folded into Done: the
	// driver applies it to the issuing core at its next scheduling
	// boundary, so throttling paces the offender without inflating
	// the arrival timestamps of its in-flight work (which would stall
	// other classes behind an idle bank router — the inversion the
	// throttle exists to prevent).
	Throttle sim.Time
}

// Access serves one MMU memory request arriving at time t, timing
// only (no data movement into caller buffers). Requests must be
// presented in nondecreasing arrival order (the multi-core driver
// guarantees this); the front-end router additionally clamps each
// bank's arrivals so every bank observes nondecreasing times. The
// returned AccessResult carries the completion time and the latency
// decomposition used by Fig. 18.
func (c *Controller) Access(t sim.Time, a mem.Access) (AccessResult, error) {
	return c.run(t, a, nil)
}

func errBeyondCapacity(a mem.Access, cap uint64) error {
	return fmt.Errorf("core: access %v beyond MoS capacity %d", a, cap)
}

// accessPage serves one page-granular part of a request on the bank
// that owns it. It returns the timing result and the NVDIMM byte
// address of the cache page that served the part (for functional
// copies).
func (c *Controller) accessPage(t sim.Time, a mem.Access) (AccessResult, uint64, error) {
	start := t
	// Dynamic QoS: latch every scheduled policy change due by this
	// arrival. Arrivals are globally nondecreasing (the multi-core
	// driver's contract), so the timeline is applied at deterministic
	// step boundaries before any routing or victim selection.
	if c.qosPolIdx < len(c.qosPolicy) {
		c.applyPolicy(t)
	}
	page := a.Addr / c.cfg.PageBytes
	b, set := c.route(page)

	// Front-end router: each bank sees nondecreasing arrival times.
	if t < b.lastArrival {
		t = b.lastArrival
	}
	b.lastArrival = t

	// QoS: resolve the request's class of service. The monitor samples
	// on simulated time as traffic flows through the router.
	cls := qos.ClassID(0)
	if c.qosMon != nil {
		cls = qos.ClassID(c.classIndex(a.Class))
		c.qosMon.Tick(t)
	}

	var res AccessResult

	if slot, ok := b.tags.Lookup(set, page); ok {
		e := b.tags.Entry(slot)
		// Hit — but another core's fill for this tag may still be in
		// flight; the request parks until the data is resident. With
		// MSHRs this is miss coalescing: the secondary rides the
		// primary's register instead of composing a redundant fill.
		if e.ReadyAt > t {
			c.stats.WaitQ++
			if b.mshrs != nil && b.mshrs.HasPage(page) {
				c.stats.Coalesced++
			}
			res.Wait += e.ReadyAt - t
			t = e.ReadyAt
			c.engine.AdvanceTo(t)
		} else if b.mshrs != nil && b.mshrs.Live() > 0 {
			// Hit-under-miss: served immediately while the bank has
			// fills outstanding.
			c.stats.HitUnderMiss++
		}
		res.Hit = true
		cacheAddr := c.cacheAddr(b, slot)
		done := c.demandAccess(t, cacheAddr+a.Addr%c.cfg.PageBytes, a.Size, a.Op)
		if a.Op == mem.Write {
			e.Dirty = true
		}
		b.tags.Touch(slot)
		if c.qosMon != nil {
			c.qosMon.OnHit(cls)
		}
		res.NVDIMM += done - t
		res.Done = done + c.cfg.NotifyLat
		c.stats.TotalTime += res.Done - start
		return res, cacheAddr, nil
	}

	// Miss: pick the victim way within the class's permitted ways (the
	// CAT capacity mask; the default full mask considers every way).
	// When every permitted way in the set is busy the request parks in
	// the wait queue until the earliest slot is reusable (Figure 14).
	// Under the blocking pipeline that is the slot's last command
	// completion; under the MSHR pipeline an in-flight eviction drains
	// from its PRP clone, so the slot frees at fill completion. The
	// wait suppresses a redundant eviction only when the in-flight
	// work included a dirty writeback (EvictBusy) — a fill-only busy
	// slot elides nothing, so it counts toward WaitQ alone.
	var slot int
	if c.qosMasks != nil {
		slot = b.tags.VictimMasked(set, c.qosMasks[cls])
	} else {
		slot = b.tags.Victim(set)
	}
	e := b.tags.Entry(slot)
	if e.Busy && e.FreeAt > t {
		c.stats.WaitQ++
		if e.EvictBusy {
			c.stats.RedundantSquashed++
		}
		res.Wait += e.FreeAt - t
		t = e.FreeAt
		c.engine.AdvanceTo(t)
	}

	// MSHR allocation: a primary miss arriving with every register
	// live parks until the earliest outstanding miss retires.
	for b.mshrs != nil && b.mshrs.Full() {
		w := b.mshrs.EarliestDone()
		if w <= t {
			// Retirement events up to t have not fired yet; flush them.
			c.engine.AdvanceTo(t)
			if b.mshrs.Full() {
				break // defensive: never livelock on a stuck register
			}
			continue
		}
		c.stats.WaitQ++
		c.stats.MSHRStalls++
		res.Wait += w - t
		t = w
		c.engine.AdvanceTo(t)
	}

	// Persist mode serializes per bank: wait for the bank's previous
	// I/O to retire.
	if c.cfg.Mode == Persist && b.lastIODone > t {
		res.Wait += b.lastIODone - t
		t = b.lastIODone
		c.engine.AdvanceTo(t)
	}

	// The write covering the whole page skips the fill.
	fullPageWrite := a.Op == mem.Write && uint64(a.Size) >= c.cfg.PageBytes &&
		a.Addr%c.cfg.PageBytes == 0

	// QoS: the MBA-style throttle meters the archive traffic this miss
	// generates (dirty-victim writeback + fill). The pacing debt is
	// charged to the requesting class's completion below — never to
	// the shared command/DMA path, which would reserve the NVDIMM bus
	// at future instants and stall other classes behind an idle
	// reservation. An unthrottled class accrues no debt.
	if c.qosThr != nil {
		var xfer int64
		if e.Valid && e.Dirty {
			xfer += int64(c.cfg.PageBytes)
		}
		if !fullPageWrite {
			xfer += int64(c.cfg.PageBytes)
		}
		if adm := c.qosThr.Admit(cls, t, xfer); adm > t {
			res.Throttle = adm - t
			c.qosMon.OnThrottle(cls, res.Throttle)
			c.stats.ThrottleTime += res.Throttle
		}
	}

	now := t
	dirtyVictim := e.Valid && e.Dirty
	var evictComplete sim.Time

	// Blocking pipeline: the writeback is composed before the fill,
	// so the demand fill queues behind the entire victim transfer —
	// interface, device HIL and flash programs included.
	if dirtyVictim && b.mshrs == nil {
		d, r, err := c.evict(b, now, slot)
		if err != nil {
			return res, 0, err
		}
		evictComplete = d
		res.DMA += r.DMA
		res.NVDIMM += r.NVDIMM
		res.SSD += r.SSD
		c.stats.Evictions++
		if c.qosMon != nil {
			c.qosMon.OnWriteback(cls, int64(c.cfg.PageBytes))
		}
	}

	// Non-blocking pipeline: snapshot the victim into the PRP pool
	// now (the Figure 14 clone — in-place fills can never corrupt the
	// in-flight writeback), compose the demand fill first, and defer
	// the writeback behind it, off the demand's critical path.
	var prpAddr, victimAddr uint64
	fillStart := now
	if dirtyVictim && b.mshrs != nil {
		victimAddr = e.Tag * c.cfg.PageBytes
		var d sim.Time
		var r pathCost
		var err error
		prpAddr, d, r, err = c.cloneVictim(b, now, slot)
		if err != nil {
			return res, 0, err
		}
		fillStart = d
		res.NVDIMM += r.NVDIMM
	}

	// Fill the target page, unless the write covers the whole page.
	fillDone := fillStart
	var fillComplete sim.Time
	if fullPageWrite {
		c.stats.FullPageWrites++
	} else {
		d, cp, r, err := c.fill(b, fillStart, slot, page)
		if err != nil {
			return res, 0, err
		}
		fillDone = d
		fillComplete = cp
		res.DMA += r.DMA
		res.NVDIMM += r.NVDIMM
		res.SSD += r.SSD
		c.stats.Fills++
		if c.qosMon != nil {
			c.qosMon.OnFill(cls, int64(c.cfg.PageBytes))
		}
	}

	// Compose the deferred writeback: it drains from the clone while
	// the demand (and, under MSHRs, younger misses) proceed.
	if dirtyVictim && b.mshrs != nil {
		d, r, err := c.composeEvict(b, fillStart, slot, prpAddr, victimAddr)
		if err != nil {
			return res, 0, err
		}
		evictComplete = d
		res.DMA += r.DMA
		res.NVDIMM += r.NVDIMM
		res.SSD += r.SSD
		c.stats.Evictions++
		if c.qosMon != nil {
			c.qosMon.OnWriteback(cls, int64(c.cfg.PageBytes))
		}
	}

	// Install the new mapping. The entry stays busy until every
	// in-flight command for it completes; the data itself is usable
	// from fillDone.
	busyUntil := fillComplete
	if evictComplete > busyUntil {
		busyUntil = evictComplete
	}
	if c.qosMon != nil {
		c.qosMon.OnMiss(cls)
		c.qosMon.Install(cls, b.owner[slot], e.Valid)
		b.owner[slot] = cls
	}
	e.Tag = page
	e.Valid = true
	e.Dirty = a.Op == mem.Write
	e.ReadyAt = fillDone
	e.Busy = busyUntil > now
	e.BusyUntil = busyUntil
	// The in-flight eviction pins the slot only under the blocking
	// pipeline; with MSHRs the writeback drains from its PRP clone and
	// the slot frees when the inbound fill retires.
	e.FreeAt = busyUntil
	if b.mshrs != nil {
		e.FreeAt = now
		if fillComplete > e.FreeAt {
			e.FreeAt = fillComplete
		}
	}
	e.EvictBusy = e.Busy && evictComplete > now
	b.tags.Touch(slot)
	if e.Busy {
		c.engine.ScheduleCall(busyUntil, b, evBusyClear, int64(slot))
		if b.mshrs != nil {
			seq := b.mshrs.Insert(page, busyUntil)
			c.engine.ScheduleCall(busyUntil, b, evMSHRRetire, seq)
		}
	}
	if c.cfg.Mode == Persist && busyUntil > b.lastIODone {
		b.lastIODone = busyUntil
	}

	// The MMU resumes once the fill data is in NVDIMM: perform the
	// demand access against the cache page. Res carries any MBA debt
	// separately (res.Throttle) — the installed entry's ReadyAt and
	// BusyUntil stay physical, so other classes touching the page are
	// never penalized for this class's throttle.
	cacheAddr := c.cacheAddr(b, slot)
	done := c.demandAccess(fillDone, cacheAddr+a.Addr%c.cfg.PageBytes, a.Size, a.Op)
	res.NVDIMM += done - fillDone
	res.Done = done + c.cfg.NotifyLat
	c.stats.TotalTime += res.Done - start
	return res, cacheAddr, nil
}

// demandAccess is an MMU-side NVDIMM access; in tight topology it must
// wait for any NVMe-controller DMA holding the lock register.
func (c *Controller) demandAccess(t sim.Time, addr uint64, size uint32, op mem.Op) sim.Time {
	if c.cfg.Topology == Tight && c.lockFreeAt > t {
		t = c.lockFreeAt
	}
	return c.nvdimm.Access(t, addr, size, op)
}

type pathCost struct {
	NVDIMM sim.Time
	DMA    sim.Time
	SSD    sim.Time
}

// evict clones the victim page into the bank's PRP pool, composes an
// NVMe write, and transfers the clone to the device. In extend mode
// the transfer runs in the background (the caller only waits if it
// touches the same entry again); in persist mode it carries FUA. The
// blocking pipeline uses it whole; the MSHR pipeline calls the two
// halves separately so the demand fill composes between them.
func (c *Controller) evict(b *bank, t sim.Time, slot int) (sim.Time, pathCost, error) {
	e := b.tags.Entry(slot)
	victimAddr := e.Tag * c.cfg.PageBytes
	prpAddr, cloneDone, pc, err := c.cloneVictim(b, t, slot)
	if err != nil {
		return t, pc, err
	}
	complete, cpc, err := c.composeEvict(b, cloneDone, slot, prpAddr, victimAddr)
	pc.NVDIMM += cpc.NVDIMM
	pc.DMA += cpc.DMA
	pc.SSD += cpc.SSD
	return complete, pc, err
}

// cloneVictim snapshots the victim page into the bank's PRP pool
// (read + write inside the NVDIMM): once the clone is taken, the slot
// may be overwritten without corrupting the outgoing data (Figure 14).
func (c *Controller) cloneVictim(b *bank, t sim.Time, slot int) (uint64, sim.Time, pathCost, error) {
	var pc pathCost
	cacheAddr := c.cacheAddr(b, slot)
	prpAddr, ok := b.prp.Alloc()
	if !ok {
		// Pool exhausted: wait for the bank's oldest in-flight command.
		t = c.drainOldest(b, t)
		prpAddr, ok = b.prp.Alloc()
		if !ok {
			return 0, t, pc, fmt.Errorf("core: PRP pool exhausted")
		}
	}
	rd := c.nvdimm.Bulk(t, cacheAddr, uint32(c.cfg.PageBytes), mem.Read)
	wr := c.nvdimm.Bulk(rd, prpAddr, uint32(c.cfg.PageBytes), mem.Write)
	c.nvdimm.Store().Copy(prpAddr, cacheAddr, c.cfg.PageBytes)
	pc.NVDIMM += wr - t
	return prpAddr, wr, pc, nil
}

// composeEvict submits the NVMe write that moves an already-taken PRP
// clone to the device, scheduling its completion.
func (c *Controller) composeEvict(b *bank, t sim.Time, slot int, prpAddr, victimAddr uint64) (sim.Time, pathCost, error) {
	var pc pathCost
	t = c.reserveQueueSlot(b, t)
	cmd := nvme.Command{
		Opcode: nvme.OpWrite,
		PRP:    prpAddr,
		LBA:    victimAddr,
		Length: uint32(c.cfg.PageBytes),
		FUA:    c.cfg.Mode == Persist,
	}
	cid, err := b.qp.Submit(cmd)
	if err != nil {
		return t, pc, fmt.Errorf("core: submit evict: %w", err)
	}
	// The device fetches the SQE as soon as the doorbell lands; the
	// journal tag stays set in the persisted slot until completion.
	b.qp.DeviceFetch()
	cmdDelivered := c.deliverCommand(t + c.cfg.ComposeLat)
	pc.DMA += cmdDelivered - t - c.cfg.ComposeLat

	// Device pulls the clone from NVDIMM (DMA), then programs flash.
	// The content is frozen by the PRP clone, so the functional write
	// can happen now; a power failure before the completion event
	// models the lost DMA by tearing these LBAs (see recovery.go). The
	// device copies what it is handed, so the controller-wide scratch
	// buffer carries every eviction without allocating, and a clone of
	// an all-zero page reaches the device as mem.Zeros without a copy.
	xferDone := c.dmaHostToDev(cmdDelivered, int64(c.cfg.PageBytes))
	pc.DMA += xferDone - cmdDelivered
	data := c.nvdimm.Store().View(prpAddr, c.evictBuf)
	devDone, err := c.devWrite(xferDone, victimAddr, data, cmd.FUA)
	if err != nil {
		return t, pc, err
	}
	pc.SSD += devDone - xferDone
	complete := c.notifyCompletion(devDone)

	inf := inflight{cmd: cmd, slot: slot, prpAddr: prpAddr, done: complete}
	inf.cmd.CID = cid
	b.live = append(b.live, inf)
	c.engine.ScheduleCall(complete, b, evCompleteWrite, int64(cid))
	return complete, pc, nil
}

// fill composes an NVMe read that moves the target page from the
// device into the NVDIMM cache slot. It returns the time the data is
// resident (the MMU may resume) and the time the command retires (CQ
// posted, journal cleared).
func (c *Controller) fill(b *bank, t sim.Time, slot int, page uint64) (sim.Time, sim.Time, pathCost, error) {
	var pc pathCost
	t = c.reserveQueueSlot(b, t)
	pageAddr := page * c.cfg.PageBytes
	cacheAddr := c.cacheAddr(b, slot)

	cmd := nvme.Command{
		Opcode: nvme.OpRead,
		PRP:    cacheAddr,
		LBA:    pageAddr,
		Length: uint32(c.cfg.PageBytes),
	}
	cid, err := b.qp.Submit(cmd)
	if err != nil {
		return t, t, pc, fmt.Errorf("core: submit fill: %w", err)
	}
	b.qp.DeviceFetch()
	cmdDelivered := c.deliverCommand(t + c.cfg.ComposeLat)
	pc.DMA += cmdDelivered - t

	// Device reads the page (timing + data), DMA to NVDIMM. The DMA
	// stream and the NVDIMM write pipeline TLP by TLP: in tight
	// topology the bus transfer IS the NVDIMM write; in loose
	// topology the DDR4 landing overlaps the PCIe stream.
	devDone, zero := c.devReadInto(cmdDelivered, pageAddr, c.fillBuf)
	pc.SSD += devDone - cmdDelivered
	xferDone := c.dmaDevToHost(devDone, int64(c.cfg.PageBytes))
	landDone := xferDone
	if c.cfg.Topology == Loose {
		bulkDone := c.nvdimm.Bulk(devDone, cacheAddr, uint32(c.cfg.PageBytes), mem.Write)
		if bulkDone > landDone {
			landDone = bulkDone
		}
	}
	pc.DMA += landDone - devDone
	c.landFill(cacheAddr, c.fillBuf, zero)

	complete := c.notifyCompletion(landDone)
	inf := inflight{cmd: cmd, slot: slot, prpAddr: cacheAddr, done: complete}
	inf.cmd.CID = cid
	b.live = append(b.live, inf)
	c.engine.ScheduleCall(complete, b, evCompleteRead, int64(cid))
	return landDone, complete, pc, nil
}

// completeWrite fires at a write command's completion time: the CQ
// entry posts, the journal tag clears and the PRP clone is released.
func (c *Controller) completeWrite(b *bank, cid uint16) {
	inf, ok := b.removeInflight(cid)
	if !ok {
		return
	}
	_ = b.qp.DeviceComplete(cid, 0)
	_, _ = b.qp.HostReap()
	b.prp.Free(inf.prpAddr)
}

// completeRead fires at a fill's completion: post CQ + clear journal.
func (c *Controller) completeRead(b *bank, cid uint16) {
	if _, ok := b.removeInflight(cid); !ok {
		return
	}
	_ = b.qp.DeviceComplete(cid, 0)
	_, _ = b.qp.HostReap()
}

// reserveQueueSlot enforces Config.QueueDepth: composing a command
// once the bank's outstanding cap is reached waits for the earliest
// in-flight completion to reap a slot (the delay shifts the compose
// time, like PRP-pool pressure — it is not attributed to any latency
// component). A zero cap never waits.
func (c *Controller) reserveQueueSlot(b *bank, t sim.Time) sim.Time {
	for c.cfg.QueueDepth > 0 && b.qp.Outstanding() >= c.cfg.QueueDepth {
		nt := c.drainOldest(b, t)
		if nt == t && b.qp.Outstanding() >= c.cfg.QueueDepth {
			break // defensive: nothing in flight to wait for
		}
		t = nt
	}
	return t
}

// drainOldest advances time to the bank's earliest in-flight
// completion to free a PRP slot under pool pressure.
func (c *Controller) drainOldest(b *bank, t sim.Time) sim.Time {
	var oldest sim.Time = sim.MaxTime
	for i := range b.live {
		if b.live[i].done < oldest {
			oldest = b.live[i].done
		}
	}
	if oldest == sim.MaxTime {
		return t
	}
	if oldest > t {
		t = oldest
	}
	c.engine.AdvanceTo(t)
	return t
}

// deliverCommand charges the cost of getting a 64 B NVMe command (and
// its doorbell) to the device.
func (c *Controller) deliverCommand(t sim.Time) sim.Time {
	switch c.cfg.Topology {
	case Tight:
		return c.dbus.SendCommand(t)
	default:
		return c.link.MMIOWrite(t) // doorbell; device then fetches the SQE
	}
}

// dmaHostToDev moves bytes NVDIMM -> device.
func (c *Controller) dmaHostToDev(t sim.Time, bytes int64) sim.Time {
	switch c.cfg.Topology {
	case Tight:
		c.dbus.SetLock(t)
		done := c.dbus.DMA(t, bytes)
		c.dbus.ReleaseLock(done)
		if done > c.lockFreeAt {
			c.lockFreeAt = done
		}
		return done
	default:
		// The NVDIMM read-out overlaps the PCIe stream (per-TLP
		// store-and-forward), so the transfer completes at the later
		// of the two pipelines.
		rd := c.nvdimm.Bulk(t, 0, uint32(bytes), mem.Read)
		ld := c.link.ToDevice(t, bytes)
		if rd > ld {
			return rd
		}
		return ld
	}
}

// dmaDevToHost moves bytes device -> NVDIMM.
func (c *Controller) dmaDevToHost(t sim.Time, bytes int64) sim.Time {
	switch c.cfg.Topology {
	case Tight:
		c.dbus.SetLock(t)
		done := c.dbus.DMA(t, bytes)
		c.dbus.ReleaseLock(done)
		if done > c.lockFreeAt {
			c.lockFreeAt = done
		}
		return done
	default:
		return c.link.ToHost(t, bytes)
	}
}

// notifyCompletion charges the completion signal (MSI over PCIe, or a
// register poll on the DDR4 bus).
func (c *Controller) notifyCompletion(t sim.Time) sim.Time {
	switch c.cfg.Topology {
	case Tight:
		return t + c.cfg.NotifyLat
	default:
		return c.link.MSI(t)
	}
}

// devReadInto performs the device read (timing and data) for a fill —
// one device page per sub-read, issued in parallel on the device. It
// reports zero, leaving dst untouched, when every sub-page reads as
// all zero; otherwise the whole page lands in dst.
func (c *Controller) devReadInto(t sim.Time, mosAddr uint64, dst []byte) (sim.Time, bool) {
	devPage := c.dev.PageBytes()
	done := t
	zero := true
	for off := uint64(0); off < uint64(len(dst)); off += devPage {
		end := min(off+devPage, uint64(len(dst)))
		d, z := c.dev.ReadInto(t, (mosAddr+off)/devPage, 0, dst[off:end])
		switch {
		case zero && !z:
			clear(dst[:off]) // the sub-pages skipped so far were zero
			zero = false
		case z && !zero:
			clear(dst[off:end])
		}
		done = max(done, d)
	}
	return done, zero
}

// landFill writes a fill's payload into the NVDIMM cache page. A page
// the device read as all zero lands as absence, without a copy.
func (c *Controller) landFill(cacheAddr uint64, data []byte, zero bool) {
	if zero {
		c.nvdimm.Store().Zero(cacheAddr, uint64(len(data)))
	} else {
		c.nvdimm.Store().WriteAt(cacheAddr, data)
	}
}

// devWrite programs one MoS page as PageBytes/devPage device pages;
// the HIL splits the request and the FTL stripes the sub-pages across
// channels, so they largely overlap (§II-C).
func (c *Controller) devWrite(t sim.Time, mosAddr uint64, data []byte, fua bool) (sim.Time, error) {
	devPage := c.dev.PageBytes()
	done := t
	for off := uint64(0); off < uint64(len(data)); off += devPage {
		end := off + devPage
		if end > uint64(len(data)) {
			end = uint64(len(data))
		}
		d, err := c.dev.Write(t, (mosAddr+off)/devPage, data[off:end], fua)
		if err != nil {
			return done, fmt.Errorf("core: device write: %w", err)
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}
