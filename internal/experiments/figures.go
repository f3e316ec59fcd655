package experiments

import (
	"context"
	"fmt"

	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/mem"
	"hams/internal/osmodel"
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

// Fig6 regenerates both panels.
func Fig6(o Options) ([]*stats.Table, error) {
	ssds := []string{"sata", "nvme", "ull"}
	labels := []string{"SATA-SSD", "NVMe-SSD", "ULL-Flash"}

	a := stats.NewTable("Fig. 6a: mmap-bench bandwidth (MB/s)",
		append([]string{"workload"}, labels...)...)
	for _, wl := range []string{"seqRd", "rndRd", "seqWr", "rndWr"} {
		row := []string{wl}
		for _, s := range ssds {
			r, err := Run("mmap", wl, o, platform.Options{MmapSSD: s}, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.F(r.UnitsPerSec()*4096/1e6)) // pages/s -> MB/s
		}
		a.AddRow(row...)
	}

	b := stats.NewTable("Fig. 6b: SQLite latency per op (us)",
		append([]string{"workload"}, labels...)...)
	for _, wl := range []string{"seqSel", "rndSel", "seqIns", "rndIns", "update"} {
		row := []string{wl}
		for _, s := range ssds {
			r, err := Run("mmap", wl, o, platform.Options{MmapSSD: s}, nil)
			if err != nil {
				return nil, err
			}
			if r.Units > 0 {
				row = append(row, stats.F(float64(r.CPU.Elapsed)/1000/float64(r.Units)))
			} else {
				row = append(row, "-")
			}
		}
		b.AddRow(row...)
	}
	return []*stats.Table{a, b}, nil
}

// ---------------------------------------------------------------------
// Fig. 7: software overheads and bypass IPC.

var fig7Workloads = []string{"rndRd", "rndWr", "seqRd", "seqWr", "rndIns", "seqIns", "update", "rndSel", "seqSel"}

// mmfExposer lets the harness reach the MMF model inside the mmap
// platform without exporting the concrete type.
type mmfExposer interface{ MMF() *osmodel.MMF }

// Fig7 regenerates the execution breakdown (a) and bypass IPC (b).
func Fig7(o Options) ([]*stats.Table, error) {
	a := stats.NewTable("Fig. 7a: mmap execution breakdown (shares) + degradation vs NVDIMM",
		"workload", "mmap", "I/O stack", "SSD", "CPU", "degradation")
	for _, wl := range fig7Workloads {
		r, err := Run("mmap", wl, o, platform.Options{}, nil)
		if err != nil {
			return nil, err
		}
		ms := r.Plat.(mmfExposer).MMF().Stats()
		total := float64(r.CPU.Elapsed)
		if total <= 0 {
			continue
		}
		sh := stats.Shares(float64(ms.MmapTime), float64(ms.StackTime), float64(ms.SSDTime),
			total-float64(ms.MmapTime+ms.StackTime+ms.SSDTime))
		or, err := Run("oracle", wl, o, platform.Options{}, nil)
		if err != nil {
			return nil, err
		}
		deg := 1 - float64(or.CPU.Elapsed)/total
		a.AddRow(wl, stats.Pct(sh[0]), stats.Pct(sh[1]), stats.Pct(sh[2]), stats.Pct(sh[3]), stats.Pct(deg))
	}

	b := stats.NewTable("Fig. 7b: IPC of bypass strategies",
		"workload", "NVDIMM", "ULL", "ULL-buff")
	for _, wl := range fig7Workloads {
		row := []string{wl}
		for _, pn := range []string{"oracle", "ull-direct", "ull-buff"} {
			r, err := Run(pn, wl, o, platform.Options{}, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", r.CPU.IPC(cpu.DefaultConfig())))
		}
		b.AddRow(row...)
	}
	return []*stats.Table{a, b}, nil
}

// ---------------------------------------------------------------------
// Fig. 10a: DMA share of AMAT under baseline (loose) HAMS.

// hamsExposer reaches the controller inside a HAMS platform.
type hamsExposer interface{ Controller() *core.Controller }

// Fig10 regenerates the DMA-overhead fractions.
func Fig10(o Options) (*stats.Table, error) {
	t := stats.NewTable("Fig. 10a: interface/DMA share of memory access time (hams-L)",
		"workload", "DMA share")
	for _, wl := range fig7Workloads {
		r, err := Run("hams-LE", wl, o, platform.Options{}, nil)
		if err != nil {
			return nil, err
		}
		cs := r.Plat.(hamsExposer).Controller().Stats()
		den := float64(cs.NVDIMMTime + cs.DMATime + cs.SSDTime + cs.WaitTime)
		if den <= 0 {
			t.AddRow(wl, "-")
			continue
		}
		t.AddRow(wl, stats.Pct(float64(cs.DMATime)/den))
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 16: application performance across the 11 platforms.

// Fig16 regenerates both panels: K pages/s (micro + Rodinia) and SQL
// ops/s (SQLite). The full 11-platform × 12-workload matrix runs as
// independent engine cells — the heaviest figure and the biggest win
// from parallelism.
func Fig16(o Options) ([]*stats.Table, error) {
	plats := platform.Names()
	micro := workloadsOf(workload.Micro, workload.Rodinia)
	sqlite := workloadsOf(workload.SQLite)

	var cells []matrixCell
	for _, s := range append(append([]workload.Spec{}, micro...), sqlite...) {
		for _, pn := range plats {
			cells = append(cells, matrixCell{
				key: s.Name + "/" + pn, platform: pn, workload: s.Name,
			})
		}
	}
	res, err := runMatrix(o, "fig16", cells)
	if err != nil {
		return nil, err
	}

	a := stats.NewTable("Fig. 16a: app performance (K pages/s)",
		append([]string{"workload"}, plats...)...)
	i := 0
	for _, s := range micro {
		row := []string{s.Name}
		for range plats {
			row = append(row, stats.F(res[i].UnitsPerSec()/1000))
			i++
		}
		a.AddRow(row...)
	}

	b := stats.NewTable("Fig. 16b: SQLite performance (ops/s)",
		append([]string{"workload"}, plats...)...)
	for _, s := range sqlite {
		row := []string{s.Name}
		for range plats {
			row = append(row, stats.F(res[i].UnitsPerSec()))
			i++
		}
		b.AddRow(row...)
	}
	return []*stats.Table{a, b}, nil
}

// ---------------------------------------------------------------------
// Fig. 17: system-level execution-time breakdown.

var fig17Plats = []string{"mmap", "hams-LP", "hams-LE", "hams-TP", "hams-TE"}

// Fig17 regenerates the normalized execution breakdown.
func Fig17(o Options) (*stats.Table, error) {
	t := stats.NewTable("Fig. 17: execution time breakdown, normalized to mmap",
		"workload", "platform", "OS", "SSD", "app", "norm. total")
	for _, wl := range workload.Names() {
		spec, err := workload.ByName(wl)
		if err != nil {
			return nil, err
		}
		threads := float64(spec.Threads)
		var mmapElapsed float64
		for _, pn := range fig17Plats {
			r, err := Run(pn, wl, o, platform.Options{}, nil)
			if err != nil {
				return nil, err
			}
			total := float64(r.CPU.Elapsed)
			if pn == "mmap" {
				mmapElapsed = total
			}
			// OS/SSD times accumulate across cores; fold them back to
			// wall-clock shares before normalizing to the mmap bar.
			osT := float64(r.CPU.OSTime) / threads
			ssdT := float64(r.CPU.SSDTime+r.CPU.DMATime) / threads
			app := total - osT - ssdT
			if app < 0 {
				app = 0
			}
			norm := 0.0
			if mmapElapsed > 0 {
				norm = total / mmapElapsed
			}
			t.AddRow(wl, pn,
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
	t := stats.NewTable("Fig. 18: memory delay breakdown (normalized to hams-LP)",
		"workload", "platform", "NVDIMM", "DMA", "SSD", "wait", "norm. total")
	hamses := []string{"hams-LP", "hams-LE", "hams-TP", "hams-TE"}
	for _, wl := range workload.Names() {
		var base float64
		for _, pn := range hamses {
			r, err := Run(pn, wl, o, platform.Options{}, nil)
			if err != nil {
				return nil, err
			}
			cs := r.Plat.(hamsExposer).Controller().Stats()
			total := float64(cs.NVDIMMTime + cs.DMATime + cs.SSDTime + cs.WaitTime)
			if pn == "hams-LP" {
				base = total
			}
			if base <= 0 {
				t.AddRow(wl, pn, "-", "-", "-", "-", "-")
				continue
			}
			t.AddRow(wl, pn,
				stats.F(float64(cs.NVDIMMTime)/base), stats.F(float64(cs.DMATime)/base),
				stats.F(float64(cs.SSDTime)/base), stats.F(float64(cs.WaitTime)/base),
				stats.F(total/base))
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Fig. 19: energy breakdown normalized to mmap.

// Fig19 regenerates the four-component energy decomposition.
func Fig19(o Options) (*stats.Table, error) {
	t := stats.NewTable("Fig. 19: energy breakdown (normalized to mmap)",
		"workload", "platform", "CPU", "NVDIMM", "int. DRAM", "Z-NAND", "norm. total")
	for _, wl := range workload.Names() {
		var base float64
		for _, pn := range fig17Plats {
			r, err := Run(pn, wl, o, platform.Options{}, nil)
			if err != nil {
				return nil, err
			}
			e := r.Energy
			if pn == "mmap" {
				base = e.Total()
			}
			if base <= 0 {
				continue
			}
			t.AddRow(wl, pn,
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

	a := stats.NewTable("Fig. 20a: SQLite ops/s vs MoS page size (hams-TE)",
		"workload", "4KB", "16KB", "64KB", "128KB", "256KB", "1MB")
	i := 0
	for _, wl := range sqlite {
		row := []string{wl}
		for range pages {
			row = append(row, stats.F(res[i].UnitsPerSec()))
			i++
		}
		a.AddRow(row...)
	}

	b := stats.NewTable("Fig. 20b: 44GB-footprint stress (ops/s)",
		"workload", "mmap", "hams-TE", "oracle")
	for _, wl := range sqlite {
		row := []string{wl}
		for range stressPlats {
			row = append(row, stats.F(res[i].UnitsPerSec()))
			i++
		}
		b.AddRow(row...)
	}
	return []*stats.Table{a, b}, nil
}

// ---------------------------------------------------------------------
// Headline: §VI-B / conclusion numbers.

// Headline reports the paper's abstract-level claims: MIPS and energy
// of the HAMS variants relative to mmap, averaged over all workloads.
func Headline(o Options) (*stats.Table, error) {
	t := stats.NewTable("Headline: HAMS vs software (mmap) NVDIMM design",
		"platform", "avg MIPS ratio", "avg energy ratio", "avg NVDIMM hit rate")
	plats := []string{"hams-LP", "hams-LE", "hams-TP", "hams-TE"}
	type agg struct {
		mips, energyR, hit float64
		n                  int
	}
	sums := make(map[string]*agg)
	for _, pn := range plats {
		sums[pn] = &agg{}
	}
	for _, wl := range workload.Names() {
		base, err := Run("mmap", wl, o, platform.Options{}, nil)
		if err != nil {
			return nil, err
		}
		for _, pn := range plats {
			r, err := Run(pn, wl, o, platform.Options{}, nil)
			if err != nil {
				return nil, err
			}
			s := sums[pn]
			if base.CPU.MIPS() > 0 {
				s.mips += r.CPU.MIPS() / base.CPU.MIPS()
			}
			if base.Energy.Total() > 0 {
				s.energyR += r.Energy.Total() / base.Energy.Total()
			}
			s.hit += r.Plat.(hamsExposer).Controller().Stats().HitRate()
			s.n++
		}
	}
	for _, pn := range plats {
		s := sums[pn]
		if s.n == 0 {
			continue
		}
		n := float64(s.n)
		t.AddRow(pn, stats.Ratio(s.mips/n), stats.Ratio(s.energyR/n), stats.Pct(s.hit/n))
	}
	return t, nil
}
