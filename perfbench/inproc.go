package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"hams/internal/api"
	"hams/internal/experiments"
	"hams/internal/mem"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/runner"
)

// Class names of the co-location scenarios (colocate, and the
// service mix's scenario jobs).
const (
	classLatency = "latency"
	classStream  = "stream"
)

// warmDivisor shrinks a job's scale for the set-up warm-up run: enough
// to fault in the heap and code paths, small next to a measured job.
const warmDivisor = 10

// namedSpec is one job of a workload: the JobSpec and the label its
// seam timer and checks report under.
type namedSpec struct {
	name string
	spec api.JobSpec
}

// colocateSpecs reproduces the autoqos "auto" co-location: a
// latency-sensitive BFS service next to a sequential-write streamer,
// way-partitioned, with the SLO feedback controller defending the
// service's p99. Tenant seeds derive from the benchmark seed.
func colocateSpecs(seed int64) []namedSpec {
	return []namedSpec{{name: "colocate", spec: api.JobSpec{
		Kind: api.KindScenario, Name: "colocate", Platform: "hams-LE",
		Ways: 8, NVDIMM: 64 * mem.MiB,
		QoS: []api.ClassSpec{
			{Name: classLatency, WayMask: "0xfe"},
			{Name: classStream, WayMask: "0x01"},
		},
		SLO: &api.SLOSpec{Class: classLatency, TargetP99NS: 6000},
		Tenants: []api.TenantSpec{
			{Name: classLatency, Workload: "BFS", Class: classLatency,
				Seed: runner.DeriveSeed(seed, "colocate/latency"), Scale: 1e-5,
				HotBytes: 4 * mem.MiB, HotFrac: 1},
			{Name: classStream, Workload: "seqWr", Class: classStream,
				Seed: runner.DeriveSeed(seed, "colocate/stream"), Scale: 1e-4,
				Base: 64 * mem.GiB},
		},
	}}}
}

// archiveSpecs are two run jobs whose working sets dwarf the MoS
// cache: read-only rndSel (clean victims, a miss is a fill) and
// read-modify-write update (dirty victims, a miss is a writeback plus
// a fill).
func archiveSpecs(seed int64) []namedSpec {
	var out []namedSpec
	for _, wl := range []string{"rndSel", "update"} {
		out = append(out, namedSpec{name: wl, spec: api.JobSpec{
			Kind: api.KindRun, Platform: "hams-LE", Workload: wl,
			Scale: 2e-5, Seed: runner.DeriveSeed(seed, "archive/"+wl),
			MSHRs: 4, NVDIMM: 64 * mem.MiB,
		}})
	}
	return out
}

func runColocate(e env) (*ledger, error) { return runInproc(e, colocateSpecs(e.seed)) }
func runArchive(e env) (*ledger, error)  { return runInproc(e, archiveSpecs(e.seed)) }

// shrink returns the spec at 1/warmDivisor of its scale.
func shrink(s api.JobSpec) api.JobSpec {
	if s.Scale > 0 {
		s.Scale /= warmDivisor
	}
	s.Tenants = append([]api.TenantSpec(nil), s.Tenants...)
	for i := range s.Tenants {
		if s.Tenants[i].Scale > 0 {
			s.Tenants[i].Scale /= warmDivisor
		}
	}
	return s
}

// setupInproc is the in-process set-up: validate and build every
// spec, then run each once at reduced scale.
func setupInproc(specs []namedSpec) error {
	for _, s := range specs {
		if err := api.Validate(s.spec); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		var err error
		if s.spec.Kind == api.KindScenario {
			_, err = s.spec.Scenario(nil, nil)
		} else {
			_, err = s.spec.PlatformOptions()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if _, err := api.Execute(shrink(s.spec), api.ExecOptions{}); err != nil {
			return fmt.Errorf("%s warm-up: %w", s.name, err)
		}
	}
	return nil
}

// canonical renders cells without their host wall-clock fields, the
// only nondeterministic ones, for byte comparison.
func canonical(cells []report.Cell) []byte {
	cs := make([]report.Cell, len(cells))
	copy(cs, cells)
	for i := range cs {
		cs[i].WallNS, cs[i].HostUnitsPerSec = 0, 0
	}
	b, err := json.Marshal(cs)
	if err != nil {
		panic(err) // report.Cell is plain data
	}
	return b
}

// simRates collects the simulated throughput (units per simulated
// second) of each distinct job's cells.
type simRates []float64

func (s *simRates) add(cells []report.Cell) {
	for _, c := range cells {
		if c.UnitsPerSec > 0 {
			*s = append(*s, c.UnitsPerSec)
		}
	}
}

func cellUnits(cells []report.Cell) int64 {
	var n int64
	for _, c := range cells {
		n += c.Units
	}
	return n
}

// runInproc is the in-process closed loop: one caller submits the
// workload's jobs back to back through api.Execute, whole rounds at a
// time, until the window has passed.
func runInproc(e env, specs []namedSpec) (*ledger, error) {
	r := newLedger()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := setupInproc(specs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	if e.trace {
		return r, traceInproc(e, specs, r)
	}

	first := make([][]byte, len(specs))
	perKind := make(map[string][]float64)
	var (
		lat   []float64
		busy  float64
		units int64
		sim   simRates
	)
	// Each job starts from a collected heap returned to the OS, as a
	// fresh process would; its peak RSS is read before the next.
	rss, err := newPeakSampler("self", 1, math.MaxInt, debug.FreeOSMemory)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < e.seconds; rounds++ {
		for i, s := range specs {
			t0 := time.Now()
			cells, err := api.Execute(s.spec, api.ExecOptions{})
			d := time.Since(t0).Seconds()
			rss.jobDone()
			if err != nil {
				r.job(s.name, api.StateFailed)
				r.finding("%s: %v", s.name, err)
				continue
			}
			r.job(s.name, api.StateDone)
			lat = append(lat, d)
			perKind[s.name] = append(perKind[s.name], d)
			busy += d
			units += cellUnits(cells)
			c := canonical(cells)
			if first[i] == nil {
				first[i] = c
				sim.add(cells)
				if s.name == "colocate" && len(cells) == 1 {
					r.note("sim_victim_p99_ns = %g ns (tenant %s, deterministic)", cells[0].Extra["p99_ns:"+classLatency], classLatency)
				}
				continue
			}
			r.check(bytes.Equal(first[i], c), "%s: repeated job's cells differ from its first run", s.name)
		}
	}
	wall := time.Since(start).Seconds()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	peak, err := rss.median()
	if err != nil {
		return nil, err
	}
	r.set("units_per_host_s", float64(units)/busy)
	r.set("job_p50_s", kindMedian(perKind))
	r.set("jobs_per_s", float64(len(lat))/wall)
	r.set("peak_rss_mb", peak)
	r.set("sim_units_per_s", geomean(sim))
	r.note("jobs: %d in %.2fs (1 caller, closed loop)", len(lat), wall)
	r.note("%s", describeTail("job_p95_s", lat, 95, "s"))
	r.note("failed_frac = %.4f (%d of %d operations)", r.failedFrac(), r.failed, r.attempted)
	return r, nil
}

// traceInproc is the traced run: two untraced reference rounds, then
// rounds under the CPU profiler for the window, then a re-execution
// of every job through the lower-level entry points for the
// simulated-channel counters.
func traceInproc(e env, specs []namedSpec, r *ledger) error {
	ref := make([][]byte, len(specs))
	var refUnits int64
	for i, s := range specs {
		cells, err := api.Execute(s.spec, api.ExecOptions{})
		r.job(s.name, outcome(err))
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		ref[i] = canonical(cells)
		refUnits += cellUnits(cells)
		if s.name == "colocate" && len(cells) == 1 {
			r.set("sim_victim_p99_ns", cells[0].Extra["p99_ns:"+classLatency])
		}
	}
	// The first round warmed the heap; the second is the untraced
	// timing reference.
	t0 := time.Now()
	for i, s := range specs {
		cells, err := api.Execute(s.spec, api.ExecOptions{})
		r.job(s.name, outcome(err))
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.check(bytes.Equal(ref[i], canonical(cells)), "%s: repeated job's cells differ from its first run", s.name)
	}
	untraced := time.Since(t0).Seconds()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	prof, err := startProfile(e.build)
	if err != nil {
		return err
	}
	perJob := make(map[string][]float64)
	var lat []float64
	rounds := 0
	start := time.Now()
	for ; rounds == 0 || time.Since(start) < e.seconds; rounds++ {
		for i, s := range specs {
			t0 := time.Now()
			cells, err := api.Execute(s.spec, api.ExecOptions{})
			d := time.Since(t0).Seconds()
			r.job(s.name, outcome(err))
			if err != nil {
				r.finding("%s: %v", s.name, err)
				continue
			}
			perJob[s.name] = append(perJob[s.name], d)
			lat = append(lat, d)
			r.check(bytes.Equal(ref[i], canonical(cells)), "%s: traced cells differ from untraced", s.name)
		}
	}
	traced := time.Since(start).Seconds()
	if err := prof.stop(r); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	r.set("host.trace_overhead", traced/float64(rounds)/untraced)
	r.set("host.alloc_bytes_per_unit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(refUnits*int64(rounds)))
	r.set("host.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	for name, xs := range perJob {
		r.set("api.execute_s."+name, median(xs))
	}
	r.set("api.validate_s", timeValidate(specs))
	r.set("job_p95_s", 0)
	if v, ok := tailPercentile(lat, 95); ok {
		r.set("job_p95_s", v)
	}

	var layers simLayers
	for i, s := range specs {
		if err := inprocLayers(r, &layers, api.ExecOptions{}, s, ref[i]); err != nil {
			return err
		}
	}
	layers.record(r)
	r.set("failed_frac", r.failedFrac())
	return nil
}

func outcome(err error) string {
	if err != nil {
		return api.StateFailed
	}
	return api.StateDone
}

// timeValidate returns the median time of one api.Validate call over
// the specs.
func timeValidate(specs []namedSpec) float64 {
	var xs []float64
	for rep := 0; rep < 100; rep++ {
		for _, s := range specs {
			t0 := time.Now()
			if err := api.Validate(s.spec); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s no longer validates: %v\n", s.name, err)
			}
			xs = append(xs, time.Since(t0).Seconds())
		}
	}
	return median(xs)
}

// inprocLayers re-executes one job through the entry point beneath
// api.Execute — experiments.Run for a run job, replay.Run for a
// scenario — with the seed derivation the engine applies, checks that
// the result matches the job's cell, and folds its counters in.
func inprocLayers(r *ledger, layers *simLayers, eo api.ExecOptions, s namedSpec, refCells []byte) error {
	o, err := s.spec.ExperimentOptions()
	if err != nil {
		return err
	}
	var want []report.Cell
	if err := json.Unmarshal(refCells, &want); err != nil || len(want) != 1 {
		return fmt.Errorf("%s: reference cells: %v", s.name, err)
	}
	w := want[0]
	switch s.spec.Kind {
	case api.KindRun:
		popt, err := s.spec.PlatformOptions()
		if err != nil {
			return err
		}
		rr, err := experiments.Run(s.spec.Platform, s.spec.Workload, o, popt, nil)
		if err != nil {
			return fmt.Errorf("%s: experiments.Run: %w", s.name, err)
		}
		r.check(rr.Units == w.Units && int64(rr.CPU.Elapsed) == w.SimNS && rr.UnitsPerSec() == w.UnitsPerSec,
			"%s: experiments.Run (units %d, sim %dns) differs from its cell (units %d, sim %dns)",
			s.name, rr.Units, int64(rr.CPU.Elapsed), w.Units, w.SimNS)
		layers.addRun(&r.tally, s.name, rr)
	case api.KindScenario:
		sc, err := s.spec.Scenario(eo.Traces, eo.Checkpoints)
		if err != nil {
			return err
		}
		res, err := replay.Run(sc, replay.Options{Scale: o.Scale, Seed: runner.DeriveSeed(o.Seed, sc.Name)})
		if err != nil {
			return fmt.Errorf("%s: replay.Run: %w", s.name, err)
		}
		r.check(res.Units == w.Units && int64(res.CPU.Elapsed) == w.SimNS && res.UnitsPerSec() == w.UnitsPerSec,
			"%s: replay.Run (units %d, sim %dns) differs from its cell (units %d, sim %dns)",
			s.name, res.Units, int64(res.CPU.Elapsed), w.Units, w.SimNS)
		for _, ten := range res.Tenants {
			r.check(float64(ten.P99) == w.Extra["p99_ns:"+ten.Name],
				"%s: replay.Run tenant %s p99 %d differs from its cell's %g", s.name, ten.Name, ten.P99, w.Extra["p99_ns:"+ten.Name])
		}
		layers.addScenario(&r.tally, s.name, res)
	}
	return nil
}
