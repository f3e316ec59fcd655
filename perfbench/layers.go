package main

import (
	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/experiments"
	"hams/internal/flash"
	"hams/internal/ftl"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/ssd"
)

// simLayers sums the simulated-channel counters of the jobs a traced
// run re-executes, read through the public Stats() getters: run jobs
// via experiments.Run (RunResult.Plat), scenarios via replay.Run
// (which exposes CPU and QoS counters but not its platform).
type simLayers struct {
	cpu    cpu.Stats
	core   core.Stats
	peakQD int
	ssd    ssd.Stats
	ftl    ftl.Stats
	flash  flash.Stats
	// hasCore is set once any job exposed a MoS controller.
	hasCore   bool
	reconfigs int64
	classes   map[string]qos.ClassStats
}

type controllerExposer interface{ Controller() *core.Controller }

func addCPU(dst *cpu.Stats, s cpu.Stats) {
	dst.Instructions += s.Instructions
	dst.MemAccesses += s.MemAccesses
	dst.L1Hits += s.L1Hits
	dst.L1Misses += s.L1Misses
	dst.L2Hits += s.L2Hits
	dst.L2Misses += s.L2Misses
	dst.TLBHits += s.TLBHits
	dst.TLBMisses += s.TLBMisses
	dst.MemStall += s.MemStall
	dst.OverlapStall += s.OverlapStall
	dst.ThrottleStall += s.ThrottleStall
}

// addRun folds one run job's counters in and checks its end-of-run
// invariants.
func (l *simLayers) addRun(t *tally, key string, rr experiments.RunResult) {
	addCPU(&l.cpu, rr.CPU)
	checkCPU(t, key, rr.CPU)
	h, ok := rr.Plat.(controllerExposer)
	if !ok {
		return
	}
	ctl := h.Controller()
	l.hasCore = true
	st := ctl.Stats()
	t.check(st.Hits+st.Misses == st.Accesses,
		"%s: core hits %d + misses %d != accesses %d", key, st.Hits, st.Misses, st.Accesses)
	l.core.Accesses += st.Accesses
	l.core.Hits += st.Hits
	l.core.Misses += st.Misses
	l.core.Evictions += st.Evictions
	l.core.WaitQ += st.WaitQ
	l.core.Coalesced += st.Coalesced
	l.core.HitUnderMiss += st.HitUnderMiss
	l.core.MSHRStalls += st.MSHRStalls
	l.core.NVDIMMTime += st.NVDIMMTime
	l.core.DMATime += st.DMATime
	l.core.SSDTime += st.SSDTime
	l.core.WaitTime += st.WaitTime
	l.core.ThrottleTime += st.ThrottleTime
	l.peakQD = max(l.peakQD, ctl.PeakQueueDepth())

	dev := ctl.Device()
	ds := dev.Stats()
	l.ssd.Reads += ds.Reads
	l.ssd.Writes += ds.Writes
	l.ssd.BufferHits += ds.BufferHits
	l.ssd.BufferMisses += ds.BufferMisses
	fs := dev.FTLStats()
	l.ftl.HostWrites += fs.HostWrites
	l.ftl.GCWrites += fs.GCWrites
	l.ftl.GCRuns += fs.GCRuns
	fl := dev.FlashStats()
	t.check(fl.Programs >= fs.HostWrites+fs.GCWrites,
		"%s: flash programs %d < FTL host writes %d + GC writes %d", key, fl.Programs, fs.HostWrites, fs.GCWrites)
	l.flash.Reads += fl.Reads
	l.flash.Programs += fl.Programs
	l.flash.Erases += fl.Erases
	l.flash.DieBusy += fl.DieBusy

	err := ctl.Quiesce()
	t.check(err == nil && ctl.Outstanding() == 0,
		"%s: controller not quiescent after the run (err %v, %d commands outstanding)", key, err, ctl.Outstanding())
}

// addScenario folds one scenario's counters in and checks its
// invariants.
func (l *simLayers) addScenario(t *tally, key string, res replay.Result) {
	addCPU(&l.cpu, res.CPU)
	checkCPU(t, key, res.CPU)
	var units int64
	for _, ten := range res.Tenants {
		units += ten.Units
	}
	t.check(units == res.Units, "%s: tenant units sum %d != scenario units %d", key, units, res.Units)
	l.reconfigs += res.QoSReconfigs
	if l.classes == nil {
		l.classes = make(map[string]qos.ClassStats)
	}
	for _, c := range res.QoS {
		t.check(c.Hits+c.Misses == c.Accesses,
			"%s: class %s hits %d + misses %d != accesses %d", key, c.Name, c.Hits, c.Misses, c.Accesses)
		t.check(c.Occupancy <= c.OccupancyPeak,
			"%s: class %s occupancy %d above its peak %d", key, c.Name, c.Occupancy, c.OccupancyPeak)
		acc := l.classes[c.Name]
		acc.Occupancy += c.Occupancy
		acc.FillBytes += c.FillBytes
		acc.WBBytes += c.WBBytes
		acc.ThrottleNS += c.ThrottleNS
		l.classes[c.Name] = acc
	}
}

// checkCPU asserts the cache hierarchy's accounting identities.
func checkCPU(t *tally, key string, s cpu.Stats) {
	// The L2 sees every L1 miss plus every dirty L1 victim.
	t.check(s.L2Hits+s.L2Misses >= s.L1Misses,
		"%s: L2 hits %d + misses %d < L1 misses %d", key, s.L2Hits, s.L2Misses, s.L1Misses)
	// Every access translates at least one page.
	t.check(s.TLBHits+s.TLBMisses >= s.MemAccesses,
		"%s: TLB lookups %d < memory accesses %d", key, s.TLBHits+s.TLBMisses, s.MemAccesses)
	t.check(s.OverlapStall <= s.MemStall,
		"%s: overlapped stall %v exceeds memory stall %v", key, s.OverlapStall, s.MemStall)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// record writes every simulated-channel per-layer metric into r.
func (l *simLayers) record(r *ledger) {
	c := l.cpu
	r.set("cpu.l1_hit_rate", ratio(c.L1Hits, c.L1Hits+c.L1Misses))
	r.set("cpu.l2_hit_rate", ratio(c.L2Hits, c.L2Hits+c.L2Misses))
	r.set("cpu.tlb_hit_rate", ratio(c.TLBHits, c.TLBHits+c.TLBMisses))
	r.set("cpu.mem_stall_s", c.MemStall.Seconds())
	r.set("cpu.overlap_stall_s", c.OverlapStall.Seconds())
	r.set("cpu.throttle_stall_s", c.ThrottleStall.Seconds())

	k := l.core
	r.set("core.hit_rate", ratio(k.Hits, k.Accesses))
	r.set("core.evictions", float64(k.Evictions))
	r.set("core.waitq", float64(k.WaitQ))
	r.set("core.coalesced", float64(k.Coalesced))
	r.set("core.hit_under_miss", float64(k.HitUnderMiss))
	r.set("core.mshr_stalls", float64(k.MSHRStalls))
	r.set("core.peak_qd", float64(l.peakQD))
	r.set("core.nvdimm_s", k.NVDIMMTime.Seconds())
	r.set("core.dma_s", k.DMATime.Seconds())
	r.set("core.ssd_s", k.SSDTime.Seconds())
	r.set("core.wait_s", k.WaitTime.Seconds())
	r.set("core.throttle_s", k.ThrottleTime.Seconds())

	r.set("ssd.buffer_hit_rate", ratio(l.ssd.BufferHits, l.ssd.BufferHits+l.ssd.BufferMisses))
	r.set("ftl.gc_runs", float64(l.ftl.GCRuns))
	r.set("ftl.write_amp", ratio(l.ftl.HostWrites+l.ftl.GCWrites, l.ftl.HostWrites))
	r.set("flash.reads", float64(l.flash.Reads))
	r.set("flash.programs", float64(l.flash.Programs))
	r.set("flash.erases", float64(l.flash.Erases))
	r.set("flash.die_busy_s", l.flash.DieBusy.Seconds())

	r.set("qos.reconfigs", float64(l.reconfigs))
	for name, cs := range l.classes {
		if name != classLatency && name != classStream {
			continue
		}
		r.set("qos."+name+".occupancy", float64(cs.Occupancy))
		r.set("qos."+name+".fill_mb", float64(cs.FillBytes)/1e6)
		r.set("qos."+name+".wb_mb", float64(cs.WBBytes)/1e6)
		r.set("qos."+name+".throttle_s", cs.ThrottleNS.Seconds())
	}
	if !l.hasCore {
		r.note("simulated channel: no job exposed a MoS controller, so core/ssd/ftl/flash counters read 0")
	}
}
