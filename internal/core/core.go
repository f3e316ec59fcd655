// Package core implements the paper's contribution: the HAMS
// (Hardware Automated Memory-over-Storage) controller that lives in
// the memory-controller hub. It aggregates an NVDIMM-N and a ULL-Flash
// archive into one byte-addressable MoS address space, fronted by an
// NVDIMM cache whose tag bits (valid/dirty/busy) ride with the cache
// lines. Misses are handled entirely in hardware by composing NVMe
// commands into a pinned, MMU-invisible NVDIMM region; eviction
// hazards are avoided with PRP-pool cloning, a busy bit, and a wait
// queue; persistency is guaranteed either by FUA serialization
// (persist mode) or by journal tags replayed after power failure
// (extend mode). Loose topology moves data over PCIe; tight topology
// ("advanced HAMS") moves it over a shared DDR4 bus under a lock
// register with a buffer-less ULL-Flash.
//
// The cache organization is a policy layer, not a constant: the tag
// array geometry (direct-mapped through N-way set-associative with
// LRU/CLOCK/random replacement, internal/core/tagstore) and the bank
// count (the MoS page space page-interleaved across K independent
// controller banks, each with its own tag array, NVMe queue pair and
// PRP clone pool) are Config knobs. The default — one bank, one way —
// reproduces the paper's Figure 11 organization exactly.
package core

import (
	"fmt"

	"hams/internal/bus"
	"hams/internal/core/tagstore"
	"hams/internal/dram"
	"hams/internal/mem"
	"hams/internal/nvme"
	"hams/internal/pcie"
	"hams/internal/qos"
	"hams/internal/sim"
	"hams/internal/ssd"
)

// Mode selects the persistency strategy (§VI-A platforms).
type Mode int

const (
	// Extend mode: parallel NVMe usage; persistency via journal tags.
	Extend Mode = iota
	// Persist mode: FUA on every write, one I/O in flight at a time.
	Persist
)

func (m Mode) String() string {
	if m == Persist {
		return "persist"
	}
	return "extend"
}

// Topology selects the datapath (baseline vs advanced HAMS).
type Topology int

const (
	// Loose: ULL-Flash behind PCIe 3.0 x4; SSD keeps its internal DRAM.
	Loose Topology = iota
	// Tight: ULL-Flash on the shared DDR4 bus, buffer-less, lock register.
	Tight
)

func (t Topology) String() string {
	if t == Tight {
		return "tight"
	}
	return "loose"
}

// Replacement re-exports the tagstore policy for configuration.
type Replacement = tagstore.Policy

// Replacement policy values.
const (
	LRU    = tagstore.LRU
	Clock  = tagstore.Clock
	Random = tagstore.Random
)

// Config assembles a HAMS instance.
type Config struct {
	PageBytes   uint64 // MoS cache page (paper default 128 KB)
	PinnedBytes uint64 // MMU-invisible region (paper: ~512 MB)
	PRPSlots    int    // clone buffers in each bank's PRP pool
	Mode        Mode
	Topology    Topology

	// Ways is the tag-array associativity; 0 or 1 = direct-mapped
	// (the paper's Figure 11 organization).
	Ways int
	// Replacement selects the victim policy when Ways > 1.
	Replacement Replacement
	// Banks page-interleaves the MoS space across this many
	// independent controller banks, each with its own tag array, NVMe
	// queue pair and PRP pool; 0 or 1 = the paper's single bank.
	Banks int

	// MSHRs sizes each bank's miss-status-holding-register file.
	// 0 or 1 (the default) keeps the paper's blocking miss pipeline:
	// a miss whose victim slot has in-flight commands parks until
	// every one of them retires. With MSHRs >= 2 the miss path goes
	// non-blocking: each outstanding fill holds a register, secondary
	// misses to an in-flight page coalesce onto the primary's
	// register instead of composing a redundant fill, hits are served
	// under outstanding misses, and a victim slot is reusable as soon
	// as its fill completes — an in-flight eviction drains from its
	// PRP clone (Figure 14) without pinning the slot. Only accesses
	// that truly conflict (same set with every permitted way busy, or
	// a full register file) park in the wait queue.
	MSHRs int
	// QueueDepth caps the outstanding NVMe commands per bank queue
	// pair: composing a command with the cap reached waits for the
	// bank's earliest in-flight completion. 0 = unbounded (the
	// paper's configuration).
	QueueDepth int

	// QoS enables the RDT-style isolation layer (internal/qos): each
	// request's mem.Access.Class selects a class of service whose way
	// mask confines replacement (CAT), whose MBps limit throttles
	// archive traffic at the bank router (MBA), and whose activity the
	// controller monitors (MBM). nil disables the layer entirely; a
	// table of full-mask, unthrottled classes is observationally
	// identical to nil (monitoring only).
	QoS *qos.Table
	// QoSSamplePeriod spaces the MBM monitor's samples in simulated
	// time; 0 = qos.DefaultSamplePeriod.
	QoSSamplePeriod sim.Time
	// QoSPolicy is a sim-time-scheduled timeline of runtime class
	// reprogrammings (resolved against QoS, which must be set). Each
	// change is latched deterministically at the first request arriving
	// at or after its time: the new way mask confines victim selection
	// from the next miss on (resident pages in now-forbidden ways stay
	// valid and hittable, in-flight fills complete into their reserved
	// slots — never retroactive), and the throttle is re-based at the
	// new rate without forgiving accrued debt.
	QoSPolicy []qos.TimedChange
	// QoSController is an optional SLO feedback controller driven off
	// the MBM sample ticker; its actions are applied with QoSPolicy
	// semantics. Requires QoS.
	QoSController *qos.Controller

	NVDIMM dram.NVDIMMConfig
	SSD    ssd.Config
	PCIe   pcie.Config
	Bus    bus.Config

	// NotifyLat is the cost of signalling the MMU that a stalled
	// instruction may retry (command/address bus toggle).
	NotifyLat sim.Time
	// ComposeLat is the cost of composing one NVMe command in the
	// queue engine (fills opcode/PRP/LBA/length fields).
	ComposeLat sim.Time
}

// DefaultConfig returns the paper's Table II configuration in the
// given mode/topology: 8 GB NVDIMM, ULL-Flash archive, 128 KB pages,
// one direct-mapped bank.
func DefaultConfig(m Mode, tp Topology) Config {
	c := Config{
		PageBytes:   128 * mem.KiB,
		PinnedBytes: 512 * mem.MiB,
		PRPSlots:    64,
		Mode:        m,
		Topology:    tp,
		Ways:        1,
		Banks:       1,
		NVDIMM:      dram.NVDIMMConfig{DRAM: dram.DefaultConfig()},
		PCIe:        pcie.Gen3x4(),
		Bus:         bus.DDR4Channel(),
		NotifyLat:   10,
		ComposeLat:  20,
	}
	if tp == Tight {
		c.SSD = ssd.ULLFlashNoBuffer()
	} else {
		c.SSD = ssd.ULLFlash()
	}
	return c
}

// SetNVDIMMBytes resizes the NVDIMM module (cache-pressure studies
// shrink it to provoke contention at bench scale). When the pinned
// region would not fit, it shrinks to a quarter of the module so most
// of a small module remains MoS cache.
func (c *Config) SetNVDIMMBytes(n uint64) {
	c.NVDIMM.DRAM.Capacity = n
	if c.PinnedBytes >= n {
		c.PinnedBytes = n / 4
	}
}

// inflight tracks one outstanding NVMe command for hazard management
// and power-failure replay. Entries live by value in the bank's live
// slice (issue order), keyed by cmd.CID.
type inflight struct {
	cmd     nvme.Command
	slot    int
	prpAddr uint64 // clone location for writes; fill target for reads
	done    sim.Time
}

// bank is one independent controller bank: a slice of the NVDIMM cache
// with its own tag array, queue pair, PRP clone pool, in-flight table
// and persist-mode serialization point. The front-end router steers
// MoS pages to banks by page-interleaving (page mod Banks).
//
// The bank is also the sim.Handler for every event the miss pipeline
// schedules (busy-bit clearing, MSHR retirement, command completion):
// one persistent object demultiplexing on the event kind, so the hot
// path never allocates a closure per event.
type bank struct {
	id        int
	c         *Controller // event dispatch back-pointer
	tags      *tagstore.Store
	qp        *nvme.QueuePair
	prp       *nvme.PRPPool
	live      []inflight
	mshrs     *mshrFile     // non-blocking miss pipeline (nil when MSHRs <= 1)
	cacheBase uint64        // NVDIMM byte offset of this bank's cache slice
	qBase     uint64        // this bank's queue-pair base in the pinned region
	owner     []qos.ClassID // per-slot installing class (QoS only)

	lastIODone  sim.Time // persist-mode serialization point (per bank)
	lastArrival sim.Time // router-enforced nondecreasing arrivals
}

// Event kinds dispatched through bank.OnEvent (ScheduleCall a0).
const (
	evBusyClear     = int64(iota) // a1 = tag-array slot; fires at BusyUntil
	evMSHRRetire                  // a1 = register seq tag
	evCompleteWrite               // a1 = NVMe CID
	evCompleteRead                // a1 = NVMe CID
)

// OnEvent demultiplexes the bank's deferred events. Events scheduled
// before a power failure die with the replaced engine, so every case
// here may also encounter state that no longer exists and must no-op.
func (b *bank) OnEvent(at sim.Time, a0, a1 int64) {
	switch a0 {
	case evBusyClear:
		// A newer install may have extended the slot's busy window; only
		// the event matching the current BusyUntil clears it.
		en := b.tags.Entry(int(a1))
		if en.BusyUntil <= at {
			en.Busy = false
			en.EvictBusy = false
		}
	case evMSHRRetire:
		b.mshrs.RetireSeq(a1)
	case evCompleteWrite:
		b.c.completeWrite(b, uint16(a1))
	case evCompleteRead:
		b.c.completeRead(b, uint16(a1))
	}
}

// removeInflight extracts the in-flight entry with the given CID,
// preserving issue order.
func (b *bank) removeInflight(cid uint16) (inflight, bool) {
	for i := range b.live {
		if b.live[i].cmd.CID == cid {
			inf := b.live[i]
			b.live = append(b.live[:i], b.live[i+1:]...)
			return inf, true
		}
	}
	return inflight{}, false
}

// Stats aggregates controller activity across all banks.
type Stats struct {
	Accesses  int64
	Hits      int64
	Misses    int64
	Evictions int64
	// RedundantSquashed counts misses that parked on a busy victim
	// way. In the 1-way organization these are exactly the redundant
	// evictions the busy bit suppresses (Figure 14); with Ways > 1 a
	// busy victim only occurs when every way is in flight, and the
	// wait may still be followed by a genuine eviction.
	RedundantSquashed int64
	WaitQ             int64 // requests parked in the wait queue
	Fills             int64
	FullPageWrites    int64 // misses that skipped the fill (write covers page)

	// Non-blocking miss-pipeline counters (all zero when MSHRs <= 1).
	// Coalesced counts secondary misses merged onto an in-flight
	// fill's MSHR (they park until the data is resident but compose
	// no command of their own); HitUnderMiss counts hits served
	// without any wait while the bank had at least one fill in
	// flight; MSHRStalls counts primary misses that parked because
	// every register in the bank's file was live.
	Coalesced    int64
	HitUnderMiss int64
	MSHRStalls   int64

	// Latency decomposition (Fig. 18): time attributed to NVDIMM
	// accesses, to interface/DMA transfers, and to SSD internals.
	NVDIMMTime sim.Time
	DMATime    sim.Time
	SSDTime    sim.Time
	WaitTime   sim.Time
	TotalTime  sim.Time

	// ThrottleTime is the total MBA pacing debt the QoS throttle
	// charged (reported via AccessResult.Throttle, applied by the
	// driver at step boundaries; zero when no class is throttled).
	ThrottleTime sim.Time

	Replayed int64 // commands re-issued by power-failure recovery
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Controller is one HAMS instance.
type Controller struct {
	cfg    Config
	engine *sim.Engine
	nvdimm *dram.NVDIMM
	dev    *ssd.Device
	link   *pcie.Link     // loose topology
	dbus   *bus.SharedBus // tight topology

	banks      []*bank
	cacheBytes uint64 // NVDIMM bytes used as MoS cache
	pinnedBase uint64
	capacity   uint64 // MoS address-space size (fixed by the archive's geometry)

	lockFreeAt sim.Time // tight topology: DMA holds the shared bus

	// QoS layer (nil/zero when Config.QoS is nil — the hot path pays
	// one nil check).
	qosMasks []uint64 // per-class effective way masks
	qosThr   *qos.Throttle
	qosMon   *qos.Monitor
	// Dynamic QoS: the controller mutates its private clone of the
	// table (qosTab), never Config.QoS, so the caller's scenario stays
	// reusable with its initial classes intact.
	qosTab       *qos.Table
	qosPolicy    []qos.TimedChange
	qosPolIdx    int
	qosCtl       *qos.Controller
	qosReconfigs int64

	// Steady-state scratch: the devices copy what they are handed and
	// the NVDIMM store copies what it reads out, so one page buffer per
	// role serves every miss without allocating (all-zero pages skip
	// them entirely). split backs the page-splitting loop in run().
	fillBuf  []byte
	evictBuf []byte
	split    []mem.Access

	stats Stats
}

// New builds a controller. The pinned region is laid out at the top of
// the NVDIMM: each bank's queue pair, then its PRP pool (Figure 9),
// banks back to back.
func New(cfg Config) (*Controller, error) {
	if !mem.IsPow2(cfg.PageBytes) {
		return nil, fmt.Errorf("core: page size %d is not a power of two", cfg.PageBytes)
	}
	nv := dram.NewNVDIMM(cfg.NVDIMM)
	if cfg.PinnedBytes >= nv.Capacity() {
		return nil, fmt.Errorf("core: pinned region %d exceeds NVDIMM %d", cfg.PinnedBytes, nv.Capacity())
	}
	if cfg.PRPSlots <= 0 {
		cfg.PRPSlots = 64
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 1
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if err := cfg.QoS.Validate(cfg.Ways); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		engine:   sim.NewEngine(),
		nvdimm:   nv,
		dev:      ssd.New(cfg.SSD),
		fillBuf:  make([]byte, cfg.PageBytes),
		evictBuf: make([]byte, cfg.PageBytes),
	}
	if cfg.QoS != nil {
		c.qosTab = cfg.QoS.Clone()
		c.qosMasks = c.qosTab.Masks(cfg.Ways)
		c.qosThr = qos.NewThrottle(c.qosTab)
		c.qosMon = qos.NewMonitor(c.qosTab, cfg.QoSSamplePeriod)
	}
	if len(cfg.QoSPolicy) > 0 {
		if cfg.QoS == nil {
			return nil, fmt.Errorf("core: QoS policy timeline requires a QoS table")
		}
		if err := qos.ValidateSchedule(cfg.QoSPolicy, cfg.QoS.Len(), cfg.Ways); err != nil {
			return nil, err
		}
		c.qosPolicy = cfg.QoSPolicy
	}
	if cfg.QoSController != nil {
		if cfg.QoS == nil {
			return nil, fmt.Errorf("core: QoS feedback controller requires a QoS table")
		}
		c.qosCtl = cfg.QoSController
		c.qosMon.OnEmit(func(s qos.Sample) {
			for _, act := range c.qosCtl.OnSample(s, c.qosMon.Period()) {
				c.applyChange(act.Class, act.Mask, act.MBps)
			}
		})
	}
	c.capacity = c.dev.Capacity()
	c.cacheBytes = nv.Capacity() - cfg.PinnedBytes
	c.cacheBytes = mem.AlignDown(c.cacheBytes, cfg.PageBytes)
	c.pinnedBase = c.cacheBytes

	totalEntries := int(c.cacheBytes / cfg.PageBytes)
	perBank := totalEntries / cfg.Banks
	perBank -= perBank % cfg.Ways
	if perBank <= 0 {
		return nil, fmt.Errorf("core: cache of %d pages cannot host %d banks × %d ways",
			totalEntries, cfg.Banks, cfg.Ways)
	}

	qBase := c.pinnedBase
	for i := 0; i < cfg.Banks; i++ {
		tags, err := tagstore.New(tagstore.Config{
			Entries: perBank,
			Ways:    cfg.Ways,
			Policy:  cfg.Replacement,
			Seed:    int64(i) + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("core: bank %d: %w", i, err)
		}
		layout := nvme.DefaultLayout(qBase)
		prpBase := mem.AlignUp(layout.CQBase+16+8*1024, cfg.PageBytes)
		pool := nvme.NewPRPPool(prpBase, cfg.PageBytes, cfg.PRPSlots)
		if prpBase+pool.Footprint() > nv.Capacity() {
			return nil, fmt.Errorf("core: pinned region too small for PRP pool")
		}
		bk := &bank{
			id:        i,
			c:         c,
			tags:      tags,
			qp:        nvme.NewQueuePair(nv.Store(), layout),
			prp:       pool,
			cacheBase: uint64(i) * uint64(perBank) * cfg.PageBytes,
			qBase:     qBase,
		}
		if cfg.QoS != nil {
			bk.owner = make([]qos.ClassID, tags.Len())
		}
		if cfg.MSHRs > 1 {
			bk.mshrs = newMSHRFile(cfg.MSHRs)
		}
		c.banks = append(c.banks, bk)
		qBase = mem.AlignUp(prpBase+pool.Footprint(), cfg.PageBytes)
	}

	switch cfg.Topology {
	case Loose:
		c.link = pcie.New(cfg.PCIe)
	case Tight:
		c.dbus = bus.New(cfg.Bus)
	}
	return c, nil
}

// Capacity returns the MoS address-space size exposed to the MMU —
// the exported capacity of the ULL-Flash archive (§IV-A).
func (c *Controller) Capacity() uint64 { return c.capacity }

// PageBytes returns the MoS cache page size.
func (c *Controller) PageBytes() uint64 { return c.cfg.PageBytes }

// CacheEntries returns the total number of tag-array entries across
// all banks.
func (c *Controller) CacheEntries() int {
	n := 0
	for _, b := range c.banks {
		n += b.tags.Len()
	}
	return n
}

// Banks returns the controller bank count.
func (c *Controller) Banks() int { return len(c.banks) }

// MSHRs returns the per-bank miss-status-register depth (1 = the
// paper's blocking miss pipeline).
func (c *Controller) MSHRs() int { return c.cfg.MSHRs }

// PeakQueueDepth returns the highest number of NVMe commands any bank
// queue pair held in flight at once — the memory-level parallelism
// the miss pipeline actually exposed to the device.
func (c *Controller) PeakQueueDepth() int {
	peak := 0
	for _, b := range c.banks {
		if p := b.qp.PeakOutstanding(); p > peak {
			peak = p
		}
	}
	return peak
}

// Ways returns the tag-array associativity.
func (c *Controller) Ways() int { return c.banks[0].tags.Ways() }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Device exposes the archive (for energy accounting).
func (c *Controller) Device() *ssd.Device { return c.dev }

// NVDIMM exposes the module (for energy accounting).
func (c *Controller) NVDIMM() *dram.NVDIMM { return c.nvdimm }

// BusStats exposes lock-register statistics in tight topology.
func (c *Controller) BusStats() bus.Stats {
	if c.dbus == nil {
		return bus.Stats{}
	}
	return c.dbus.Stats()
}

// Outstanding returns in-flight NVMe command count across banks (tests).
func (c *Controller) Outstanding() int {
	n := 0
	for _, b := range c.banks {
		n += len(b.live)
	}
	return n
}

// Warm installs the pages covering [base, base+size) into the MoS
// tag arrays as valid and clean, without charging time — used by the
// experiment harness to reach the steady-state residency a full-length
// (paper-scale) run would have built up. Live state is never
// disturbed: busy entries and dirty ways survive warming. The pages
// are attributed to the default class; WarmClass warms on behalf of a
// specific class.
func (c *Controller) Warm(base, size uint64) { c.WarmClass(base, size, 0) }

// WarmClass warms [base, base+size) on behalf of class cls: installs
// are confined to the class's permitted ways (so a partitioned
// tenant's steady state lands inside its partition, exactly where the
// live run would have built it) and the monitor attributes the
// occupancy to cls. With no QoS table — or a full-mask class — this
// is Warm.
func (c *Controller) WarmClass(base, size uint64, cls qos.ClassID) {
	if size == 0 {
		return
	}
	mask := uint64(0) // 0 = full, resolved per bank below
	if c.qosMasks != nil {
		mask = c.qosMasks[c.classIndex(cls)]
	}
	end := base + size
	if end > c.Capacity() {
		end = c.Capacity()
	}
	for addr := mem.AlignDown(base, c.cfg.PageBytes); addr < end; addr += c.cfg.PageBytes {
		page := addr / c.cfg.PageBytes
		b, set := c.route(page)
		if slot, ok := b.tags.Lookup(set, page); ok {
			e := b.tags.Entry(slot)
			if e.Busy || e.Dirty {
				continue // never disturb live state
			}
			e.ReadyAt = 0
			e.BusyUntil = 0
			e.FreeAt = 0
			b.tags.Touch(slot)
			continue
		}
		var slot int
		var ok bool
		if mask == 0 {
			slot, ok = b.tags.WarmVictim(set)
		} else {
			slot, ok = b.tags.WarmVictimMasked(set, mask)
		}
		if !ok {
			continue // every (permitted) way dirty or busy
		}
		e := b.tags.Entry(slot)
		wasValid := e.Valid
		e.Tag = page
		e.Valid = true
		e.Dirty = false
		e.ReadyAt = 0
		e.BusyUntil = 0
		e.FreeAt = 0
		e.Busy = false
		e.EvictBusy = false
		b.tags.Touch(slot)
		if c.qosMon != nil {
			c.qosMon.Install(cls, b.owner[slot], wasValid)
			b.owner[slot] = cls
		}
	}
}

// classIndex clamps a request's class tag onto the table (stray tags
// fall back to the default class, never out of bounds).
func (c *Controller) classIndex(cls qos.ClassID) int {
	if int(cls) >= len(c.qosMasks) {
		return 0
	}
	return int(cls)
}

// QoSEnabled reports whether the controller carries a QoS table.
func (c *Controller) QoSEnabled() bool { return c.cfg.QoS != nil }

// QoSStats returns the MBM-style per-class counters (nil when QoS is
// disabled).
func (c *Controller) QoSStats() []qos.ClassStats {
	if c.qosMon == nil {
		return nil
	}
	return c.qosMon.Stats()
}

// QoSSamples returns the monitor's sim-time sample history (nil when
// QoS is disabled).
func (c *Controller) QoSSamples() []qos.Sample {
	if c.qosMon == nil {
		return nil
	}
	return c.qosMon.Samples()
}

// Reprogram mutates class cls's way mask and bandwidth cap at
// runtime — the validated entry point behind ad-hoc (non-timeline)
// reconfiguration. Semantics match a hardware CAT/MBA MSR rewrite:
// the new mask confines victim selection from the next miss on, but
// is never retroactive — pages resident in now-forbidden ways stay
// valid and hittable until natural eviction, and an in-flight MSHR
// fill completes into the slot it reserved even if the shrunk mask no
// longer covers that way. The throttle is re-based at the new rate
// with accrued debt intact (qos.Throttle.SetRate). mask 0 = full;
// mbps 0 = unthrottled.
func (c *Controller) Reprogram(cls qos.ClassID, mask uint64, mbps float64) error {
	if c.qosTab == nil {
		return fmt.Errorf("core: Reprogram without a QoS table")
	}
	if int(cls) >= c.qosTab.Len() {
		return fmt.Errorf("core: Reprogram class %d out of range (table has %d)", cls, c.qosTab.Len())
	}
	if mask&^qos.FullMask(c.cfg.Ways) != 0 {
		return fmt.Errorf("core: Reprogram mask %#x selects ways beyond the %d-way array", mask, c.cfg.Ways)
	}
	if mbps < 0 {
		return fmt.Errorf("core: Reprogram negative throttle %.1f MB/s", mbps)
	}
	c.applyChange(cls, mask, mbps)
	return nil
}

// applyChange installs one already-validated class reprogramming.
func (c *Controller) applyChange(cls qos.ClassID, mask uint64, mbps float64) {
	eff := mask
	if eff == 0 {
		eff = qos.FullMask(c.cfg.Ways)
	}
	c.qosMasks[cls] = eff
	c.qosThr.SetRate(cls, mbps)
	// The clone keeps the raw (0 = full) mask so reporting renders it
	// the way it was programmed.
	_ = c.qosTab.Set(cls, mask, mbps)
	c.qosReconfigs++
}

// applyPolicy latches every scheduled change due at or before t.
func (c *Controller) applyPolicy(t sim.Time) {
	for c.qosPolIdx < len(c.qosPolicy) && c.qosPolicy[c.qosPolIdx].At <= t {
		ch := c.qosPolicy[c.qosPolIdx]
		c.qosPolIdx++
		c.applyChange(ch.Class, ch.Mask, ch.MBps)
	}
}

// QoSReconfigs counts runtime class reprogrammings applied this run
// (timeline changes + feedback-controller actions).
func (c *Controller) QoSReconfigs() int64 { return c.qosReconfigs }

// QoSCurrent returns a copy of the current (possibly reprogrammed)
// class table, nil when QoS is disabled. Masks keep the 0 = full
// convention.
func (c *Controller) QoSCurrent() []qos.Class {
	if c.qosTab == nil {
		return nil
	}
	out := make([]qos.Class, len(c.qosTab.Classes))
	copy(out, c.qosTab.Classes)
	return out
}

// bankOf routes a MoS page to its bank (page-interleaved).
func (c *Controller) bankOf(page uint64) *bank {
	return c.banks[page%uint64(len(c.banks))]
}

// bankKey is the bank-local page number used for set indexing. With
// one bank it is the page number itself, matching the seed's
// direct-mapped index.
func (c *Controller) bankKey(page uint64) uint64 {
	return page / uint64(len(c.banks))
}

// route resolves a MoS page to its owning bank and tag-array set —
// the single source of truth for the front-end address mapping shared
// by the timed path, Warm and PeekData.
func (c *Controller) route(page uint64) (*bank, int) {
	b := c.bankOf(page)
	return b, b.tags.SetFor(c.bankKey(page))
}

// cacheAddr returns the NVDIMM byte address of a bank slot's page.
func (c *Controller) cacheAddr(b *bank, slot int) uint64 {
	return b.cacheBase + uint64(slot)*c.cfg.PageBytes
}

func (c *Controller) String() string {
	return fmt.Sprintf("hams(%s,%s, %dKB pages, %d entries, %d×%d-way)",
		c.cfg.Mode, c.cfg.Topology, c.cfg.PageBytes/1024, c.CacheEntries(),
		len(c.banks), c.banks[0].tags.Ways())
}
