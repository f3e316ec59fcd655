package experiments

import (
	"context"
	"fmt"
	"slices"

	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/mem"
	"hams/internal/pcie"
	"hams/internal/platform"
	"hams/internal/report"
	"hams/internal/sim"
	"hams/internal/ssd"
	"hams/internal/stats"
	"hams/internal/workload"
)

// ---------------------------------------------------------------------
// Fig. 5: ULL-Flash vs NVMe SSD device-level characterization.

// qdPoint is one queue-depth measurement.
type qdPoint struct {
	AvgLatUS float64
	BWMBs    float64
}

// sweepDevice runs a closed-loop 4 KB workload at the given queue
// depth against a device behind a PCIe link.
func sweepDevice(devCfg ssd.Config, depth int, nOps int, seq, write bool) qdPoint {
	dev := ssd.New(devCfg)
	link := pcie.New(pcie.Gen3x4())
	// Precondition: fill the target range so reads hit mapped pages
	// (the paper fully preconditions the media, §VI-A).
	span := uint64(nOps) * 4
	for lba := uint64(0); lba < span; lba++ {
		dev.Write(0, lba, make([]byte, 4096), false)
	}
	dev.Flush(0)
	if !write {
		// Reads must exercise the flash path: a real run's working
		// set dwarfs the 512 MB internal DRAM.
		dev.DropCaches(0)
	}
	start := sim.Time(1 * sim.Second) // let preconditioning drain
	inflight := make([]sim.Time, depth)
	for i := range inflight {
		inflight[i] = start
	}
	var totalLat sim.Time
	var lastDone sim.Time
	rng := uint64(12345)
	for i := 0; i < nOps; i++ {
		// Earliest-free slot models the host keeping `depth` in flight.
		slot := 0
		for s := range inflight {
			if inflight[s] < inflight[slot] {
				slot = s
			}
		}
		issue := inflight[slot]
		var lba uint64
		if seq {
			lba = uint64(i) % span
		} else {
			rng = rng*6364136223846793005 + 1442695040888963407
			lba = (rng >> 11) % span
		}
		var done sim.Time
		if write {
			d := link.ToDevice(issue, 4096)
			d2, _ := dev.Write(d, lba, make([]byte, 4096), false)
			done = d2
		} else {
			d, _ := dev.Read(issue, lba, 0)
			done = link.ToHost(d, 4096)
		}
		totalLat += done - issue
		inflight[slot] = done
		if done > lastDone {
			lastDone = done
		}
	}
	elapsed := (lastDone - start).Seconds()
	p := qdPoint{AvgLatUS: float64(totalLat) / float64(nOps) / 1000}
	if elapsed > 0 {
		p.BWMBs = float64(nOps) * 4096 / elapsed / 1e6
	}
	return p
}

// fig5Point is one device-sweep cell output, carrying enough identity
// to serialize into the BENCH artifact.
type fig5Point struct {
	dev   string
	label string
	nOps  int
	p     qdPoint
}

func (f fig5Point) reportCell() report.Cell {
	return report.Cell{
		Platform:    f.dev,
		Workload:    f.label,
		Units:       int64(f.nOps),
		UnitsPerSec: f.p.BWMBs * 1e6 / 4096, // 4 KB IOs/s
		Extra:       map[string]float64{"avg_lat_us": f.p.AvgLatUS, "bw_mbs": f.p.BWMBs},
	}
}

// Fig5 regenerates the three panels of Figure 5. Every (device, depth,
// mode) point is an independent engine cell.
func Fig5(o Options) ([]*stats.Table, error) {
	nOps := 400
	depths := []int{1, 2, 4, 8, 16, 32}
	devs := []struct {
		name string
		cfg  func() ssd.Config
	}{{"ULL-Flash", ssd.ULLFlash}, {"NVMe-SSD", ssd.NVMeSSD}}
	modes := []struct {
		label      string
		seq, write bool
	}{{"seqRd", true, false}, {"rndRd", false, false}, {"seqWr", true, true}, {"rndWr", false, true}}

	var jobs []cellJob
	for _, d := range devs {
		for _, wr := range []bool{false, true} {
			rw := "rndRd"
			if wr {
				rw = "rndWr"
			}
			jobs = append(jobs, cellJob{
				key: fmt.Sprintf("a/%s/%s", d.name, rw),
				fn: func(ctx context.Context, seed int64) (any, error) {
					return fig5Point{d.name, "qd1-" + rw, nOps, sweepDevice(d.cfg(), 1, nOps, false, wr)}, nil
				},
			})
		}
	}
	for _, depth := range depths {
		for _, d := range devs {
			for _, m := range modes {
				jobs = append(jobs, cellJob{
					key: fmt.Sprintf("bc/qd%d/%s/%s", depth, d.name, m.label),
					fn: func(ctx context.Context, seed int64) (any, error) {
						return fig5Point{d.name, fmt.Sprintf("qd%d-%s", depth, m.label), nOps,
							sweepDevice(d.cfg(), depth, nOps, m.seq, m.write)}, nil
					},
				})
			}
		}
	}
	vals, err := runCellJobs(o, "fig5", jobs)
	if err != nil {
		return nil, err
	}

	a := stats.NewTable("Fig. 5a: 4KB access latency (us), QD1", "device", "read", "write")
	a.AddRow("ULL-Flash", stats.F(vals[0].(fig5Point).p.AvgLatUS), stats.F(vals[1].(fig5Point).p.AvgLatUS))
	a.AddRow("NVMe-SSD", stats.F(vals[2].(fig5Point).p.AvgLatUS), stats.F(vals[3].(fig5Point).p.AvgLatUS))

	b := stats.NewTable("Fig. 5b: latency vs queue depth (us)",
		"depth", "ULL seqRd", "ULL rndRd", "ULL seqWr", "ULL rndWr",
		"NVMe seqRd", "NVMe rndRd", "NVMe seqWr", "NVMe rndWr")
	c := stats.NewTable("Fig. 5c: bandwidth vs queue depth (MB/s)",
		"depth", "ULL seqRd", "ULL rndRd", "ULL seqWr", "ULL rndWr",
		"NVMe seqRd", "NVMe rndRd", "NVMe seqWr", "NVMe rndWr")
	i := 4 // past panel a
	for _, d := range depths {
		lat := []string{fmt.Sprint(d)}
		bw := []string{fmt.Sprint(d)}
		for range devs {
			for range modes {
				p := vals[i].(fig5Point).p
				i++
				lat = append(lat, stats.F(p.AvgLatUS))
				bw = append(bw, stats.F(p.BWMBs))
			}
		}
		b.AddRow(lat...)
		c.AddRow(bw...)
	}
	return []*stats.Table{a, b, c}, nil
}

// ---------------------------------------------------------------------
// Fig. 6: MMF-based system performance across SSDs.

// Fig6 regenerates both panels. Every (workload, SSD) point is one
// mmap cell over that SSD.
func Fig6(o Options) ([]*stats.Table, error) {
	ssds := []string{"sata", "nvme", "ull"}
	labels := []string{"SATA-SSD", "NVMe-SSD", "ULL-Flash"}
	micro := []string{"seqRd", "rndRd", "seqWr", "rndWr"}
	sqlite := []string{"seqSel", "rndSel", "seqIns", "rndIns", "update"}

	var cells []matrixCell
	for _, wl := range slices.Concat(micro, sqlite) {
		for _, s := range ssds {
			cells = append(cells, matrixCell{
				key: wl + "/mmap-" + s, platform: "mmap", workload: wl,
				popt: platform.Options{MmapSSD: s}, extra: layerExtras,
			})
		}
	}
	res, err := runMatrix(o, "fig6", cells)
	if err != nil {
		return nil, err
	}

	a := stats.NewTable("Fig. 6a: mmap-bench bandwidth (MB/s)",
		append([]string{"workload"}, labels...)...)
	res = addRows(a, micro, len(ssds), res, func(m matrixOut) string {
		return stats.F(m.run.UnitsPerSec() * 4096 / 1e6) // pages/s -> MB/s
	})
	b := stats.NewTable("Fig. 6b: SQLite latency per op (us)",
		append([]string{"workload"}, labels...)...)
	addRows(b, sqlite, len(ssds), res, func(m matrixOut) string {
		if m.run.Units <= 0 {
			return "-"
		}
		return stats.F(float64(m.run.CPU.Elapsed) / 1000 / float64(m.run.Units))
	})
	return []*stats.Table{a, b}, nil
}

// addRows renders one row per workload, each from the next width
// results, and returns the results past them.
func addRows(t *stats.Table, wls []string, width int, res []matrixOut, cell func(matrixOut) string) []matrixOut {
	for _, wl := range wls {
		row := []string{wl}
		for _, m := range res[:width] {
			row = append(row, cell(m))
		}
		t.AddRow(row...)
		res = res[width:]
	}
	return res
}

// ---------------------------------------------------------------------
// Fig. 7: software overheads and bypass IPC.

var (
	fig7Workloads = []string{"rndRd", "rndWr", "seqRd", "seqWr", "rndIns", "seqIns", "update", "rndSel", "seqSel"}
	// fig7Plats: mmap and its NVDIMM oracle (panel a), then the oracle
	// and the two bypass strategies (panel b).
	fig7Plats = []string{"mmap", "oracle", "ull-direct", "ull-buff"}
)

// Fig7 regenerates the execution breakdown (a) and bypass IPC (b).
func Fig7(o Options) ([]*stats.Table, error) {
	res, err := runMatrix(o, "fig7", grid(fig7Workloads, fig7Plats))
	if err != nil {
		return nil, err
	}
	a := stats.NewTable("Fig. 7a: mmap execution breakdown (shares) + degradation vs NVDIMM",
		"workload", "mmap", "I/O stack", "SSD", "CPU", "degradation")
	b := stats.NewTable("Fig. 7b: IPC of bypass strategies",
		"workload", "NVDIMM", "ULL", "ULL-buff")
	for w, wl := range fig7Workloads {
		pts := res[w*len(fig7Plats) : (w+1)*len(fig7Plats)]
		if total := float64(pts[0].run.CPU.Elapsed); total > 0 {
			ex := pts[0].cell.Extra
			mm, st, sd := ex["layer_ns:mmap"], ex["layer_ns:io_stack"], ex["layer_ns:ssd"]
			sh := stats.Shares(mm, st, sd, total-(mm+st+sd))
			deg := 1 - float64(pts[1].run.CPU.Elapsed)/total
			a.AddRow(wl, stats.Pct(sh[0]), stats.Pct(sh[1]), stats.Pct(sh[2]), stats.Pct(sh[3]), stats.Pct(deg))
		}
		row := []string{wl}
		for _, m := range pts[1:] {
			row = append(row, fmt.Sprintf("%.4f", m.run.CPU.IPC(cpu.DefaultConfig())))
		}
		b.AddRow(row...)
	}
	return []*stats.Table{a, b}, nil
}

// ---------------------------------------------------------------------
// Fig. 10a: DMA share of AMAT under baseline (loose) HAMS.

// ctlDelay sums a HAMS cell's controller delay split (layerExtras).
func ctlDelay(ex map[string]float64) float64 {
	return ex["layer_ns:nvdimm"] + ex["layer_ns:dma"] + ex["layer_ns:ssd"] + ex["layer_ns:wait"]
}

// Fig10 regenerates the DMA-overhead fractions.
func Fig10(o Options) (*stats.Table, error) {
	res, err := runMatrix(o, "fig10", grid(fig7Workloads, []string{"hams-LE"}))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 10a: interface/DMA share of memory access time (hams-L)",
		"workload", "DMA share")
	for i, wl := range fig7Workloads {
		ex := res[i].cell.Extra
		if den := ctlDelay(ex); den > 0 {
			t.AddRow(wl, stats.Pct(ex["layer_ns:dma"]/den))
		} else {
			t.AddRow(wl, "-")
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 16: application performance across the 11 platforms.

// Fig16 regenerates both panels: K pages/s (micro + Rodinia) and SQL
// ops/s (SQLite) over the full 11-platform × 12-workload matrix — the
// heaviest figure and the biggest win from parallelism.
func Fig16(o Options) ([]*stats.Table, error) {
	plats := platform.Names()
	micro := workloadsOf(workload.Micro, workload.Rodinia)
	sqlite := workloadsOf(workload.SQLite)
	res, err := runMatrix(o, "fig16", grid(slices.Concat(micro, sqlite), plats))
	if err != nil {
		return nil, err
	}

	a := stats.NewTable("Fig. 16a: app performance (K pages/s)",
		append([]string{"workload"}, plats...)...)
	res = addRows(a, micro, len(plats), res, func(m matrixOut) string {
		return stats.F(m.run.UnitsPerSec() / 1000)
	})
	b := stats.NewTable("Fig. 16b: SQLite performance (ops/s)",
		append([]string{"workload"}, plats...)...)
	addRows(b, sqlite, len(plats), res, func(m matrixOut) string {
		return stats.F(m.run.UnitsPerSec())
	})
	return []*stats.Table{a, b}, nil
}

// ---------------------------------------------------------------------
// Fig. 17: system-level execution-time breakdown.

var (
	hamsPlats = []string{"hams-LP", "hams-LE", "hams-TP", "hams-TE"}
	// mmapVsHAMS is the grid of Figs. 17 and 19 and the headline: the
	// software baseline first, so each workload's base leads its row.
	mmapVsHAMS = append([]string{"mmap"}, hamsPlats...)
)

// Fig17 regenerates the normalized execution breakdown.
func Fig17(o Options) (*stats.Table, error) {
	wls := workload.Names()
	res, err := runMatrix(o, "fig17", grid(wls, mmapVsHAMS))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 17: execution time breakdown, normalized to mmap",
		"workload", "platform", "OS", "SSD", "app", "norm. total")
	for w, wl := range wls {
		spec, err := workload.ByName(wl)
		if err != nil {
			return nil, err
		}
		threads := float64(spec.Threads)
		pts := res[w*len(mmapVsHAMS) : (w+1)*len(mmapVsHAMS)]
		mmapElapsed := float64(pts[0].run.CPU.Elapsed)
		for _, m := range pts {
			r := m.run
			total := float64(r.CPU.Elapsed)
			// OS/SSD times accumulate across cores; fold them back to
			// wall-clock shares before normalizing to the mmap bar.
			osT := float64(r.CPU.OSTime) / threads
			ssdT := float64(r.CPU.SSDTime+r.CPU.DMATime) / threads
			app := max(total-osT-ssdT, 0)
			norm := 0.0
			if mmapElapsed > 0 {
				norm = total / mmapElapsed
			}
			t.AddRow(wl, r.Platform,
				stats.F(osT/mmapElapsed), stats.F(ssdT/mmapElapsed), stats.F(app/mmapElapsed),
				stats.F(norm))
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 18: memory access delay breakdown across HAMS variants.

// Fig18 regenerates the NVDIMM/DMA/SSD decomposition, normalized to
// hams-LP per workload.
func Fig18(o Options) (*stats.Table, error) {
	wls := workload.Names()
	res, err := runMatrix(o, "fig18", grid(wls, hamsPlats))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 18: memory delay breakdown (normalized to hams-LP)",
		"workload", "platform", "NVDIMM", "DMA", "SSD", "wait", "norm. total")
	for w, wl := range wls {
		pts := res[w*len(hamsPlats) : (w+1)*len(hamsPlats)]
		base := ctlDelay(pts[0].cell.Extra)
		for _, m := range pts {
			if base <= 0 {
				t.AddRow(wl, m.run.Platform, "-", "-", "-", "-", "-")
				continue
			}
			ex := m.cell.Extra
			t.AddRow(wl, m.run.Platform,
				stats.F(ex["layer_ns:nvdimm"]/base), stats.F(ex["layer_ns:dma"]/base),
				stats.F(ex["layer_ns:ssd"]/base), stats.F(ex["layer_ns:wait"]/base),
				stats.F(ctlDelay(ex)/base))
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 19: energy breakdown normalized to mmap.

// Fig19 regenerates the four-component energy decomposition.
func Fig19(o Options) (*stats.Table, error) {
	wls := workload.Names()
	res, err := runMatrix(o, "fig19", grid(wls, mmapVsHAMS))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 19: energy breakdown (normalized to mmap)",
		"workload", "platform", "CPU", "NVDIMM", "int. DRAM", "Z-NAND", "norm. total")
	for w, wl := range wls {
		pts := res[w*len(mmapVsHAMS) : (w+1)*len(mmapVsHAMS)]
		base := pts[0].run.Energy.Total()
		if base <= 0 {
			continue
		}
		for _, m := range pts {
			e := m.run.Energy
			t.AddRow(wl, m.run.Platform,
				stats.F(e.CPU/base), stats.F(e.NVDIMM/base),
				stats.F(e.InternalDRAM/base), stats.F(e.ZNAND/base),
				stats.F(e.Total()/base))
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 20: sensitivity — page sizes and large footprints.

// Fig20 regenerates both panels: the page-size sweep (a) and the
// 44 GB-footprint stress (b), each cell independent on the engine.
func Fig20(o Options) ([]*stats.Table, error) {
	pages := []uint64{4 * mem.KiB, 16 * mem.KiB, 64 * mem.KiB, 128 * mem.KiB, 256 * mem.KiB, 1 * mem.MiB}
	sqlite := []string{"seqSel", "rndSel", "seqIns", "rndIns", "update"}
	stressPlats := []string{"mmap", "hams-TE", "oracle"}

	var cells []matrixCell
	for _, wl := range sqlite {
		for _, pg := range pages {
			cells = append(cells, matrixCell{
				key:      fmt.Sprintf("a/%s/%dKB", wl, pg/mem.KiB),
				platform: "hams-TE", workload: wl,
				popt: platform.Options{HAMS: func(c *core.Config) { c.PageBytes = pg }},
			})
		}
	}
	for _, wl := range sqlite {
		for _, pn := range stressPlats {
			wo := o.wl()
			wo.DatasetBytes = 44 * mem.GiB
			wo.HotBytes = 12 * mem.GiB // footprint outgrows the NVDIMM
			cells = append(cells, matrixCell{
				key:      fmt.Sprintf("b/%s/%s", wl, pn),
				platform: pn, workload: wl, wopt: &wo,
			})
		}
	}
	res, err := runMatrix(o, "fig20", cells)
	if err != nil {
		return nil, err
	}

	opsPerSec := func(m matrixOut) string { return stats.F(m.run.UnitsPerSec()) }
	a := stats.NewTable("Fig. 20a: SQLite ops/s vs MoS page size (hams-TE)",
		"workload", "4KB", "16KB", "64KB", "128KB", "256KB", "1MB")
	res = addRows(a, sqlite, len(pages), res, opsPerSec)
	b := stats.NewTable("Fig. 20b: 44GB-footprint stress (ops/s)",
		"workload", "mmap", "hams-TE", "oracle")
	addRows(b, sqlite, len(stressPlats), res, opsPerSec)
	return []*stats.Table{a, b}, nil
}

// ---------------------------------------------------------------------
// Headline: §VI-B / conclusion numbers.

// Headline reports the paper's abstract-level claims: MIPS and energy
// of the HAMS variants relative to mmap, averaged over all workloads.
func Headline(o Options) (*stats.Table, error) {
	wls := workload.Names()
	res, err := runMatrix(o, "headline", grid(wls, mmapVsHAMS))
	if err != nil {
		return nil, err
	}
	n := len(hamsPlats)
	mips, energyR, hit := make([]float64, n), make([]float64, n), make([]float64, n)
	for w := range wls {
		pts := res[w*len(mmapVsHAMS) : (w+1)*len(mmapVsHAMS)]
		base := pts[0].run
		for k, m := range pts[1:] {
			if base.CPU.MIPS() > 0 {
				mips[k] += m.run.CPU.MIPS() / base.CPU.MIPS()
			}
			if base.Energy.Total() > 0 {
				energyR[k] += m.run.Energy.Total() / base.Energy.Total()
			}
			hit[k] += m.cell.HitRate
		}
	}
	t := stats.NewTable("Headline: HAMS vs software (mmap) NVDIMM design",
		"platform", "avg MIPS ratio", "avg energy ratio", "avg NVDIMM hit rate")
	nw := float64(len(wls))
	for k, pn := range hamsPlats {
		t.AddRow(pn, stats.Ratio(mips[k]/nw), stats.Ratio(energyR[k]/nw), stats.Pct(hit[k]/nw))
	}
	return t, nil
}
