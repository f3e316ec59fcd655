package experiments

import (
	"context"
	"fmt"

	"hams/internal/core"
	"hams/internal/osmodel"
	"hams/internal/platform"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/stats"
	"hams/internal/workload"
)

// cellJob is one engine cell of a figure: a stable key (unique within
// the target), the workload name whose seed stream the cell draws
// (empty = no randomness), and the work itself. fn receives the
// derived per-cell seed so results cannot depend on execution order.
type cellJob struct {
	key     string
	seedKey string
	fn      func(ctx context.Context, seed int64) (any, error)
}

// reportable lets non-RunResult cell outputs (e.g. Fig. 5 device
// sweeps) contribute metrics to the BENCH artifact.
type reportable interface{ reportCell() report.Cell }

// runCellJobs executes a target's cells through the worker-pool
// engine, records them into o.Recorder, and returns the outputs in
// canonical (input) order.
func runCellJobs(o Options, target string, jobs []cellJob) ([]any, error) {
	cells := make([]runner.Cell, len(jobs))
	for i, j := range jobs {
		seed := o.Seed
		if j.seedKey != "" {
			seed = runner.DeriveSeed(o.Seed, j.seedKey)
		}
		fn := j.fn
		cells[i] = runner.Cell{
			Key: target + "/" + j.key,
			Fn:  func(ctx context.Context) (any, error) { return fn(ctx, seed) },
		}
	}
	var cr runner.CellRunner = runner.Engine{Workers: o.Parallel, ShuffleSeed: o.Shuffle}
	if o.Runner != nil {
		cr = o.Runner
	}
	var onResult func(runner.Result)
	if o.Progress != nil {
		onResult = func(r runner.Result) { o.Progress(reportCellFor(target, r)) }
	}
	results, err := cr.RunCells(o.ctx(), cells, onResult)
	if err != nil {
		// Name a failing cell: in a 100+-cell matrix "unknown platform"
		// alone would leave the bad configuration to bisection.
		for _, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("cell %s: %w", r.Key, r.Err)
			}
		}
		return nil, err
	}
	out := make([]any, len(results))
	for i, r := range results {
		out[i] = r.Value
		if o.Recorder != nil {
			o.Recorder.Add(reportCellFor(target, r))
		}
	}
	return out, nil
}

// reportCellFor converts one engine result into its artifact record.
// Cells with metrics implement reportable (matrix cells via matrixOut,
// device sweeps via fig5Point); anything else — the static tables —
// records identity and wall time only.
func reportCellFor(target string, r runner.Result) report.Cell {
	var c report.Cell
	if v, ok := r.Value.(reportable); ok {
		c = v.reportCell()
	}
	// The one sanctioned WallNS feed: the runner's measured wall time
	// enters the cell here on its way into Recorder.Add, which derives
	// HostUnitsPerSec from it; Canonical zeroes both again.
	//hamslint:allow statszero — engine→Recorder glue, the single sanctioned host-channel write
	c.Key, c.Target, c.WallNS = r.Key, target, int64(r.Wall)
	return c
}

// hamsExposer reaches the controller inside a HAMS platform, and
// mmfExposer the MMF model inside the mmap platform, without exporting
// the concrete platform types.
type (
	hamsExposer interface{ Controller() *core.Controller }
	mmfExposer  interface{ MMF() *osmodel.MMF }
)

// runReportCell extracts one Run's artifact metrics. It must be called
// while the result still holds its platform (Plat carries the hit-rate
// counters).
func runReportCell(v RunResult) report.Cell {
	c := report.Cell{
		Platform:    v.Platform,
		Workload:    v.Workload,
		SimNS:       int64(v.CPU.Elapsed),
		Units:       v.Units,
		UnitsPerSec: v.UnitsPerSec(),
		EnergyJ:     v.Energy.Total(),
	}
	if h, ok := v.Plat.(hamsExposer); ok {
		c.HitRate = h.Controller().Stats().HitRate()
	}
	return c
}

// layerExtras is a grid cell's extra hook: the per-layer split of its
// simulated time as "layer_ns:<layer>" metrics. A HAMS platform records
// the controller's NVDIMM/DMA/SSD/wait split (Figs. 10a, 18), mmap the
// MMF's fault/I-O-stack/SSD split (Fig. 7a); other platforms none.
func layerExtras(r RunResult) map[string]float64 {
	switch p := r.Plat.(type) {
	case hamsExposer:
		cs := p.Controller().Stats()
		return map[string]float64{
			"layer_ns:nvdimm": float64(cs.NVDIMMTime),
			"layer_ns:dma":    float64(cs.DMATime),
			"layer_ns:ssd":    float64(cs.SSDTime),
			"layer_ns:wait":   float64(cs.WaitTime),
		}
	case mmfExposer:
		ms := p.MMF().Stats()
		return map[string]float64{
			"layer_ns:mmap":     float64(ms.MmapTime),
			"layer_ns:io_stack": float64(ms.StackTime),
			"layer_ns:ssd":      float64(ms.SSDTime),
		}
	}
	return nil
}

// matrixCell is the common cell shape: one Run of a workload on a
// platform under a config. keepPlat retains the simulated platform on
// the result for callers that read controller stats afterwards (the
// sweep, mlp); all other cells drop it inside the worker so a wide
// matrix doesn't hold every platform's device state until the figure
// renders — what a table needs from the platform rides in extra.
type matrixCell struct {
	key      string
	platform string
	workload string
	popt     platform.Options
	wopt     *workload.Options
	keepPlat bool
	// extra, when set, records target-specific metrics into the BENCH
	// cell; it runs inside the worker while the platform is still
	// attached to the result.
	extra func(RunResult) map[string]float64
}

// matrixOut pairs a cell's RunResult with its artifact record,
// precomputed while the platform was still attached. Tables that read
// the record (extras, hit rate) render exactly what the artifact holds.
type matrixOut struct {
	run  RunResult
	cell report.Cell
}

func (m matrixOut) reportCell() report.Cell { return m.cell }

// grid lays out one cell per (workload, platform) point, workload-major,
// keyed "<workload>/<platform>", each recording its per-layer split.
func grid(wls, plats []string) []matrixCell {
	cells := make([]matrixCell, 0, len(wls)*len(plats))
	for _, wl := range wls {
		for _, pn := range plats {
			cells = append(cells, matrixCell{key: wl + "/" + pn, platform: pn, workload: wl, extra: layerExtras})
		}
	}
	return cells
}

// runMatrix executes a (platform × workload × config) matrix through
// the engine and returns its outputs in cell order. Each cell's
// workload seed derives from (Options.Seed, workload name), so the
// same workload stays stream-paired across platforms and configs —
// the paired-comparison property every "X vs Y" figure relies on.
func runMatrix(o Options, target string, cells []matrixCell) ([]matrixOut, error) {
	jobs := make([]cellJob, len(cells))
	for i, mc := range cells {
		jobs[i] = cellJob{
			key:     mc.key,
			seedKey: mc.workload,
			fn: func(ctx context.Context, seed int64) (any, error) {
				return mc.execute(o, seed)
			},
		}
	}
	vals, err := runCellJobs(o, target, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]matrixOut, len(vals))
	for i, v := range vals {
		mo, ok := v.(matrixOut)
		if !ok {
			return nil, fmt.Errorf("experiments: %s cell %s returned %T", target, cells[i].key, v)
		}
		out[i] = mo
	}
	return out, nil
}

// execute is the body of every matrix cell: one Run at the cell's seed,
// under the -mshrs override, with the artifact record taken while the
// platform is still attached.
func (mc matrixCell) execute(o Options, seed int64) (matrixOut, error) {
	co := o
	co.Seed = seed
	wopt := mc.wopt
	if wopt != nil {
		w := *wopt
		w.Seed = seed
		wopt = &w
	}
	r, err := Run(mc.platform, mc.workload, co, o.applyMSHRs(mc.popt), wopt)
	if err != nil {
		return matrixOut{}, err
	}
	out := matrixOut{run: r, cell: runReportCell(r)}
	if mc.extra != nil {
		out.cell.Extra = mc.extra(r)
	}
	if !mc.keepPlat {
		out.run.Plat = nil
	}
	return out, nil
}

// RunOne executes a single workload × platform run as one engine cell
// (key "run/<workload>@<platform>") — the execution path of job-API
// `run` jobs and the hamssim CLI, shared so a flag set and a JSON body
// produce byte-identical runs. Unlike matrix cells the workload seed
// is Options.Seed itself (no per-cell derivation): a one-shot run has
// no sibling cells to stay decorrelated from, and hamssim's documented
// -seed semantics predate the engine.
func RunOne(o Options, platName, wlName string, popt platform.Options) (RunResult, error) {
	mc := matrixCell{platform: platName, workload: wlName, popt: popt}
	vals, err := runCellJobs(o, "run", []cellJob{{
		key: wlName + "@" + platName,
		fn: func(ctx context.Context, seed int64) (any, error) {
			return mc.execute(o, seed)
		},
	}})
	if err != nil {
		return RunResult{}, err
	}
	mo, ok := vals[0].(matrixOut)
	if !ok {
		return RunResult{}, fmt.Errorf("experiments: run cell returned %T", vals[0])
	}
	return mo.run, nil
}

// StaticTables renders the paper's static tables (I-III) through the
// engine — each table is one cell, so even the static targets report
// wall time into the artifact and exercise the concurrent path.
func StaticTables(o Options, names ...string) ([]*stats.Table, error) {
	builders := map[string]func() *stats.Table{
		"table1": Table1, "table2": Table2, "table3": Table3,
	}
	jobs := make([]cellJob, len(names))
	for i, n := range names {
		build, ok := builders[n]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown static table %q", n)
		}
		jobs[i] = cellJob{key: n, fn: func(ctx context.Context, seed int64) (any, error) {
			return build(), nil
		}}
	}
	vals, err := runCellJobs(o, "tables", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Table, len(vals))
	for i, v := range vals {
		out[i] = v.(*stats.Table)
	}
	return out, nil
}
