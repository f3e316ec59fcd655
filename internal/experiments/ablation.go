package experiments

import (
	"fmt"

	"hams/internal/core"
	"hams/internal/flash"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/stats"
)

// Ablation quantifies the design choices DESIGN.md calls out, each as
// a throughput ratio against the corresponding default configuration.
//
//   - hardware automation: hams-LE vs the §VII software-assisted
//     variant (hams-SW) that takes a page fault per miss;
//   - Z-NAND medium: the archive with Z-NAND vs conventional TLC;
//   - channel parallelism: 16 vs 4 flash channels;
//   - PRP clone pool: 64 vs 4 slots (hazard-management headroom);
//   - MoS page size: 128 KiB vs 4 KiB and 1 MiB (Fig. 20a endpoints).
func Ablation(o Options) (*stats.Table, error) {
	t := stats.NewTable("Ablation: design choices (throughput ratio, variant / default)",
		"design choice", "workload", "default", "variant", "ratio")

	// Each row runs the base platform at its defaults against the
	// variant platform under edit (nil = its defaults too).
	type row struct {
		label    string
		workload string
		basePlat string
		varPlat  string
		edit     func(*core.Config)
	}
	tlc := func(c *core.Config) { c.SSD.Timing = flash.VNANDTLC() }
	page := func(n uint64) func(*core.Config) { return func(c *core.Config) { c.PageBytes = n } }
	rows := []row{
		{"hardware automation (vs page-fault per miss)", "update", "hams-LE", "hams-SW", nil},
		{"hardware automation (vs page-fault per miss)", "seqRd", "hams-LE", "hams-SW", nil},
		{"Z-NAND medium (vs TLC archive)", "seqRd", "hams-TE", "hams-TE", tlc},
		{"Z-NAND medium (vs TLC archive)", "rndIns", "hams-TE", "hams-TE", tlc},
		{"16 flash channels (vs 4)", "seqRd", "hams-TE", "hams-TE",
			func(c *core.Config) { c.SSD.Geometry.Channels = 4 }},
		{"PRP pool 64 slots (vs 4)", "rndIns", "hams-LE", "hams-LE",
			func(c *core.Config) { c.PRPSlots = 4 }},
		{"128 KiB MoS page (vs 4 KiB)", "seqSel", "hams-TE", "hams-TE", page(4 * mem.KiB)},
		{"128 KiB MoS page (vs 1 MiB)", "rndIns", "hams-TE", "hams-TE", page(mem.MiB)},
	}
	// Each row is two engine cells (base + variant); keys carry the row
	// index because several rows reuse the same base configuration.
	var cells []matrixCell
	for i, r := range rows {
		cells = append(cells,
			matrixCell{key: fmt.Sprintf("r%02d/base", i),
				platform: r.basePlat, workload: r.workload},
			matrixCell{key: fmt.Sprintf("r%02d/variant", i),
				platform: r.varPlat, workload: r.workload, popt: platform.Options{HAMS: r.edit}})
	}
	res, err := runMatrix(o, "ablation", cells)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		base, v := res[2*i], res[2*i+1]
		ratio := 0.0
		if base.UnitsPerSec() > 0 {
			ratio = v.UnitsPerSec() / base.UnitsPerSec()
		}
		t.AddRow(r.label, r.workload,
			fmt.Sprintf("%s %.0f/s", r.basePlat, base.UnitsPerSec()),
			fmt.Sprintf("%.0f/s", v.UnitsPerSec()),
			stats.Ratio(ratio))
	}
	return t, nil
}
