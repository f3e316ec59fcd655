package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hams/internal/api"
	"hams/internal/checkpoint"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/replay"
	"hams/internal/report"
	"hams/internal/runner"
	"hams/internal/trace"
	"hams/internal/workload"
)

// The service workload starts the hamsd binary on loopback and drives
// it as a closed loop: each of svcConns connections submits a job,
// streams its /cells to the end, reads the job's status, then submits
// the next, cycling through passes of a seeded job mix. Every job of
// the mix runs at least once per run, so the deterministic metrics
// cover the whole mix.
const (
	svcConns = 2
	// svcScale sizes the run and scenario jobs: small, so fixed
	// per-job costs (decode, admission, platform build and warm-up,
	// dispatch, NDJSON encoding) dominate.
	svcScale = 2e-7
	// scrapeEvery is how many jobs a connection completes between
	// /metrics scrapes.
	scrapeEvery = 25
	// ckptWarmup is the warm-up length, in steps per thread, of the
	// checkpointed scenario.
	ckptWarmup = 100
	// svcRestores is how many checkpoint-restore jobs (and as many
	// live warm-up twins) a pass holds.
	svcRestores = 6
	// rssPasses is how many passes of the mix hamsd's peak RSS is
	// sampled over, in half-pass intervals: a fixed amount of work, so
	// a faster daemon (more jobs retained in the window) does not read
	// as a larger one.
	rssPasses = 3
)

// Job kinds of the mix; api.execute_s.<kind> reports each.
const (
	mixRun      = "run"
	mixScenario = "scenario"
	mixTrace    = "trace"
	mixRestore  = "restore"
	mixLive     = "live"
)

// hamsKnobs are the controller settings of the HAMS run jobs. Each
// Table III workload runs hams-SW under the first set and hams-LP,
// -LE, -TP and -TE under the other four, in an order the seed picks,
// so the mix's composition does not depend on the seed. The last set's
// nvdimm_bytes is 16 MiB for even-numbered workloads and 32 MiB for
// odd ones. Both pass api.Validate but fail at run time ("core:
// pinned region too small for PRP pool") — a known defect the mix
// keeps visible.
var hamsKnobs = []api.JobSpec{
	{},
	{Ways: 2, Banks: 1, MSHRs: 2, Policy: "lru", NVDIMM: 64 * mem.MiB},
	{Ways: 4, Banks: 2, MSHRs: 4, Policy: "clock", NVDIMM: 128 * mem.MiB},
	{Ways: 8, Banks: 4, Policy: "random", NVDIMM: 256 * mem.MiB},
	{Ways: 4, Banks: 2, MSHRs: 2, Policy: "lru", NVDIMM: 16 * mem.MiB},
}

// mixJob is one job of the service mix.
type mixJob struct {
	kind string
	spec api.JobSpec
	// twin is the index of a restore job's live warm-up twin (-1
	// otherwise): the two must produce identical cells.
	twin int
}

// svcInputs are the set-up's generated uploads, kept in memory for
// the in-process comparison runs.
type svcInputs struct {
	traceBytes, ckptBytes []byte
	traceID, ckptID       string
	traces                map[string]*trace.File
	ckpts                 map[string]*checkpoint.Image
}

// Trace and Checkpoint resolve upload IDs in-process, as hamsd does.
func (in *svcInputs) Trace(ref string) (*trace.File, error) {
	if tf, ok := in.traces[ref]; ok {
		return tf, nil
	}
	return nil, fmt.Errorf("unknown trace %q", ref)
}

func (in *svcInputs) Checkpoint(ref string) (*checkpoint.Image, error) {
	if img, ok := in.ckpts[ref]; ok {
		return img, nil
	}
	return nil, fmt.Errorf("unknown checkpoint %q", ref)
}

func (in *svcInputs) execOptions() api.ExecOptions {
	return api.ExecOptions{Traces: in, Checkpoints: in}
}

// ckptSpec is the checkpointed scenario: restore jobs run it from the
// uploaded image, live twins with the same warm-up run live.
func ckptSpec(seed int64) api.JobSpec {
	return api.JobSpec{Kind: api.KindScenario, Platform: "hams-LE", Name: "restored", Scale: 1e-6,
		Tenants: []api.TenantSpec{
			{Name: "seqRd", Workload: "seqRd", Seed: runner.DeriveSeed(seed, "ckpt/seqRd")},
			{Name: "rndRd", Workload: "rndRd", Seed: runner.DeriveSeed(seed, "ckpt/rndRd")},
		}}
}

// seamTimes are the traced set-up's timings of the upload pipeline.
type seamTimes struct {
	record, warmup, encode, decode float64
}

// genInputs records the trace and warms up the checkpoint image.
func genInputs(seed int64) (*svcInputs, seamTimes, error) {
	var st seamTimes
	in := &svcInputs{}
	var tb bytes.Buffer
	wo := workload.DefaultOptions()
	wo.Scale, wo.Seed = svcScale, runner.DeriveSeed(seed, "trace")
	t0 := time.Now()
	if _, err := replay.RecordWorkload(&tb, "rndRd", wo, replay.AllThreads); err != nil {
		return nil, st, fmt.Errorf("recording trace: %w", err)
	}
	st.record = time.Since(t0).Seconds()
	in.traceBytes = tb.Bytes()

	warm := ckptSpec(seed)
	warm.Warmup = ckptWarmup
	sc, err := warm.Scenario(nil, nil)
	if err != nil {
		return nil, st, err
	}
	t0 = time.Now()
	img, err := replay.Warmup(sc, replay.Options{Scale: warm.Scale})
	if err != nil {
		return nil, st, fmt.Errorf("checkpoint warm-up: %w", err)
	}
	st.warmup = time.Since(t0).Seconds()
	var cb bytes.Buffer
	t0 = time.Now()
	if err := checkpoint.Encode(&cb, img); err != nil {
		return nil, st, fmt.Errorf("encoding checkpoint: %w", err)
	}
	st.encode = time.Since(t0).Seconds()
	in.ckptBytes = cb.Bytes()
	t0 = time.Now()
	if _, err := checkpoint.Decode(bytes.NewReader(in.ckptBytes)); err != nil {
		return nil, st, fmt.Errorf("decoding checkpoint: %w", err)
	}
	st.decode = time.Since(t0).Seconds()
	return in, st, nil
}

// serviceMix builds one pass of the seeded job mix: every platform ×
// every Table III workload as a small run job (the HAMS ones under
// the hamsKnobs sets), 16 two-tenant QoS scenarios, 8 trace-backed
// scenarios, and checkpoint-restore scenarios with their live twins.
// The seed picks which HAMS platform gets which knob set, derives
// every job's seed and shuffles the order.
func serviceMix(seed int64, in *svcInputs) []mixJob {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	var hamsPlats, hwPlats []string
	for _, p := range platform.AllNames() {
		if strings.HasPrefix(p, "hams-") {
			hamsPlats = append(hamsPlats, p)
			if p != "hams-SW" {
				hwPlats = append(hwPlats, p)
			}
		}
	}
	var mix []mixJob
	for wi, spec := range workload.All() {
		w := spec.Name
		knobsOf := map[string]api.JobSpec{"hams-SW": hamsKnobs[0]}
		for i, k := range rng.Perm(len(hwPlats)) {
			kn := hamsKnobs[1+k]
			if 1+k == len(hamsKnobs)-1 && wi%2 == 1 {
				kn.NVDIMM = 32 * mem.MiB
			}
			knobsOf[hwPlats[i]] = kn
		}
		for _, p := range platform.AllNames() {
			s := knobsOf[p]
			s.Kind, s.Platform, s.Workload, s.Scale = api.KindRun, p, w, svcScale
			s.Seed = runner.DeriveSeed(seed, "run/"+p+"/"+w)
			mix = append(mix, mixJob{kind: mixRun, spec: s, twin: -1})
		}
	}

	masks := [][2]string{{"0xfc", "0x03"}, {"0xf0", "0x0f"}, {"0xfe", "0x01"}, {"full", "full"}}
	victims := []string{"rndRd", "BFS", "rndSel", "KMN"}
	streams := []string{"seqWr", "rndWr", "seqIns", "update"}
	for i := 0; i < len(victims)*len(streams); i++ {
		m := masks[(i+i/len(victims))%len(masks)]
		var mbps float64
		if i%2 == 1 {
			mbps = 200
		}
		name := "colo-" + strconv.Itoa(i)
		mix = append(mix, mixJob{kind: mixScenario, twin: -1, spec: api.JobSpec{
			Kind: api.KindScenario, Name: name, Platform: hamsPlats[i%len(hamsPlats)],
			Ways: 8, NVDIMM: 64 * mem.MiB, Scale: svcScale,
			QoS: []api.ClassSpec{
				{Name: classLatency, WayMask: m[0]},
				{Name: classStream, WayMask: m[1], MBps: mbps},
			},
			Tenants: []api.TenantSpec{
				{Name: classLatency, Workload: victims[i%len(victims)], Class: classLatency,
					Seed: runner.DeriveSeed(seed, name+"/latency")},
				{Name: classStream, Workload: streams[i/len(victims)], Class: classStream,
					Seed: runner.DeriveSeed(seed, name+"/stream"), Scale: 2 * svcScale, Base: 64 * mem.GiB},
			},
		}})
	}
	for i := 0; i < 8; i++ {
		mix = append(mix, mixJob{kind: mixTrace, twin: -1, spec: api.JobSpec{
			Kind: api.KindScenario, Name: "trace-" + strconv.Itoa(i), Platform: hamsPlats[i%len(hamsPlats)],
			Tenants: []api.TenantSpec{{Trace: in.traceID}},
		}})
	}
	for i := 0; i < svcRestores; i++ {
		live := ckptSpec(seed)
		live.Warmup = ckptWarmup
		restore := ckptSpec(seed)
		restore.Checkpoint = in.ckptID
		mix = append(mix,
			mixJob{kind: mixLive, spec: live, twin: -1},
			mixJob{kind: mixRestore, spec: restore, twin: len(mix)})
	}
	// Shuffle, keeping restore→twin links valid.
	perm := rng.Perm(len(mix))
	pos := make([]int, len(mix))
	for to, from := range perm {
		pos[from] = to
	}
	out := make([]mixJob, len(mix))
	for from, j := range mix {
		if j.twin >= 0 {
			j.twin = pos[j.twin]
		}
		out[pos[from]] = j
	}
	return out
}

// svcSetup is one service set-up: start the daemon, generate and
// upload the trace and checkpoint, build and validate the mix, and
// warm the daemon with one small run job per platform.
type svcSetup struct {
	d      *daemon
	in     *svcInputs
	mix    []mixJob
	seams  seamTimes
	upload map[string]float64
}

func setupService(e env) (*svcSetup, error) {
	d, err := startDaemon(e.build)
	if err != nil {
		return nil, err
	}
	s := &svcSetup{d: d, upload: make(map[string]float64)}
	if err := s.prepare(e); err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

func (s *svcSetup) prepare(e env) error {
	in, seams, err := genInputs(e.seed)
	if err != nil {
		return err
	}
	s.in, s.seams = in, seams
	c := newConn(s.d.base)
	defer c.close()
	t0 := time.Now()
	if in.traceID, err = c.upload("/v1/traces", in.traceBytes); err != nil {
		return err
	}
	s.upload["trace"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if in.ckptID, err = c.upload("/v1/checkpoints", in.ckptBytes); err != nil {
		return err
	}
	s.upload["checkpoint"] = time.Since(t0).Seconds()
	tf, err := trace.Decode(bytes.NewReader(in.traceBytes))
	if err != nil {
		return err
	}
	img, err := checkpoint.Decode(bytes.NewReader(in.ckptBytes))
	if err != nil {
		return err
	}
	in.traces = map[string]*trace.File{in.traceID: tf}
	in.ckpts = map[string]*checkpoint.Image{in.ckptID: img}

	s.mix = serviceMix(e.seed, in)
	for i, j := range s.mix {
		if err := api.Validate(j.spec); err != nil {
			return fmt.Errorf("mix job %d (%s): %w", i, j.kind, err)
		}
	}
	for _, p := range platform.AllNames() {
		st, refusal, err := c.submit(api.JobSpec{Kind: api.KindRun, Platform: p, Workload: "rndRd", Scale: svcScale})
		if err != nil || refusal != "" {
			return fmt.Errorf("warm-up job on %s: %v %s", p, err, refusal)
		}
		if _, err := c.cells(st.ID); err != nil {
			return fmt.Errorf("warm-up job on %s: %w", p, err)
		}
	}
	return nil
}

// completion is one finished job of the closed loop.
type completion struct {
	idx      int
	outcome  string
	errMsg   string
	latency  float64 // submit → last cell received
	submit   float64 // POST round trip
	received time.Time
	cells    []report.Cell
	status   api.JobStatus
}

// loopResult is the closed loop's harvest.
type loopResult struct {
	done    []completion
	scrapes []float64
	wall    float64
	// peakMB is hamsd's median half-pass peak RSS over the first
	// rssPasses passes of the mix.
	peakMB float64
}

// closedLoop drives hamsd with svcConns connections until the window
// has passed and every job of the mix has been submitted once.
func closedLoop(d *daemon, mix []mixJob, window time.Duration) (loopResult, error) {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		res    loopResult
		errs   = make([]error, svcConns)
		wg     sync.WaitGroup
		start  = time.Now()
		hardAt = start.Add(window + 60*time.Second)
	)
	rss, err := newPeakSampler(d.pid(), len(mix)/2, rssPasses*len(mix), nil)
	if err != nil {
		return res, err
	}
	for ci := 0; ci < svcConns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newConn(d.base)
			defer c.close()
			var done []completion
			var scrapes []float64
			for n := 1; ; n++ {
				i := int(next.Add(1) - 1)
				now := time.Now()
				if (i >= len(mix) && now.Sub(start) >= window) || now.After(hardAt) {
					break
				}
				comp, err := runJob(c, i%len(mix), mix[i%len(mix)].spec)
				if err != nil {
					errs[ci] = err
					break
				}
				done = append(done, comp)
				rss.jobDone()
				if n%scrapeEvery == 0 {
					t0 := time.Now()
					if err := c.scrape(); err != nil {
						errs[ci] = err
						break
					}
					scrapes = append(scrapes, time.Since(t0).Seconds())
				}
			}
			mu.Lock()
			res.done = append(res.done, done...)
			res.scrapes = append(res.scrapes, scrapes...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	var peakErr error
	res.peakMB, peakErr = rss.median()
	return res, errors.Join(append(errs, peakErr)...)
}

// runJob submits one job, streams its cells and reads its final
// status.
func runJob(c *conn, idx int, spec api.JobSpec) (completion, error) {
	comp := completion{idx: idx}
	t0 := time.Now()
	st, refusal, err := c.submit(spec)
	if err != nil {
		return comp, err
	}
	comp.submit = time.Since(t0).Seconds()
	if refusal != "" {
		comp.outcome, comp.errMsg = refused, refusal
		comp.latency = time.Since(t0).Seconds()
		return comp, nil
	}
	cells, err := c.cells(st.ID)
	if err != nil {
		return comp, err
	}
	comp.received = time.Now()
	comp.latency = comp.received.Sub(t0).Seconds()
	comp.cells = cells
	// The stream ends when the job is terminal; only its status says
	// whether it succeeded (a failed cell still streams a record).
	if comp.status, err = c.status(st.ID); err != nil {
		return comp, err
	}
	comp.outcome, comp.errMsg = comp.status.State, comp.status.Error
	return comp, nil
}

// runService is the service workload.
func runService(e env) (*ledger, error) {
	r := newLedger()
	var (
		setups []float64
		s      *svcSetup
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cur, err := setupService(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			cur.d.stop()
			continue
		}
		s = cur
	}
	defer s.d.stop()
	r.set("setup_s", median(setups))
	if e.trace {
		return r, traceService(e, s, r)
	}

	lr, err := closedLoop(s.d, s.mix, e.seconds)
	if err != nil {
		return nil, err
	}
	s.d.stop()

	first := tallyCompletions(r, s.mix, lr.done)
	var (
		lat   []float64
		units int64
		sim   simRates
	)
	for _, c := range lr.done {
		if c.outcome == api.StateDone {
			lat = append(lat, c.latency)
			units += cellUnits(c.cells)
		}
	}
	for _, c := range first {
		if c != nil && c.outcome == api.StateDone {
			sim.add(c.cells)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	checkInProcess(r, s.in, s.mix, first)

	r.set("units_per_host_s", float64(units)/lr.wall)
	r.set("job_p50_s", median(lat))
	r.set("jobs_per_s", float64(len(lat))/lr.wall)
	r.set("peak_rss_mb", lr.peakMB)
	r.set("sim_units_per_s", geomean(sim))
	r.note("jobs: %d completed of %d submitted in %.2fs (%d connections, closed loop, %d-job mix)",
		len(lat), len(lr.done), lr.wall, svcConns, len(s.mix))
	r.note("%s", describeTail("job_p95_s", lat, 95, "s"))
	r.note("failed_frac = %.4f (%d of %d operations)", r.failedFrac(), r.failed, r.attempted)
	return r, nil
}

// tallyCompletions counts each mix job's outcomes as one operation,
// checks each repeat of a job against its first completion and each restore job against its
// live twin, and returns the first completion per mix index.
func tallyCompletions(r *ledger, mix []mixJob, done []completion) []*completion {
	first := make([]*completion, len(mix))
	firstBytes := make([][]byte, len(mix))
	failures := make(map[string]int)
	for i := range done {
		c := &done[i]
		r.job(fmt.Sprintf("mix job %d", c.idx), c.outcome)
		if c.outcome != api.StateDone {
			failures[c.outcome+": "+c.errMsg]++
		}
		b := canonical(c.cells)
		if first[c.idx] == nil {
			first[c.idx], firstBytes[c.idx] = c, b
			continue
		}
		r.check(first[c.idx].outcome == c.outcome && bytes.Equal(firstBytes[c.idx], b),
			"mix job %d (%s): repeat differs from its first run", c.idx, mix[c.idx].kind)
	}
	for msg, n := range failures {
		r.note("%d jobs ended %s", n, msg)
	}
	for i, j := range mix {
		if j.kind != mixRestore || first[i] == nil || first[j.twin] == nil {
			continue
		}
		r.check(first[i].outcome == api.StateDone && bytes.Equal(firstBytes[i], firstBytes[j.twin]),
			"mix job %d: checkpoint restore differs from live warm-up plus measure (%s)", i, first[i].errMsg)
	}
	return first
}

// checkInProcess runs every distinct mix job through api.Execute
// in-process and checks that hamsd streamed the same cells (or failed
// the same way).
func checkInProcess(r *ledger, in *svcInputs, mix []mixJob, first []*completion) {
	for i, j := range mix {
		got := first[i]
		if got == nil {
			continue
		}
		cells, err := api.Execute(j.spec, in.execOptions())
		if err != nil {
			r.check(got.outcome == api.StateFailed,
				"mix job %d (%s): in-process api.Execute failed (%v) but hamsd answered %s", i, j.kind, err, got.outcome)
			continue
		}
		r.check(got.outcome == api.StateDone && bytes.Equal(canonical(cells), canonical(got.cells)),
			"mix job %d (%s): hamsd cells differ from in-process api.Execute", i, j.kind)
	}
}

// traceService is the traced run: the hamsd seam timings from a closed
// loop that also fetches every JobStatus, then the host profile and
// simulated-channel counters from the same mix run in-process the way
// hamsd runs it (api.Execute on a shared two-worker pool, cells
// encoded as NDJSON).
func traceService(e env, s *svcSetup, r *ledger) error {
	r.set("trace.record_s", s.seams.record)
	r.set("replay.warmup_s", s.seams.warmup)
	r.set("checkpoint.encode_s", s.seams.encode)
	r.set("checkpoint.decode_s", s.seams.decode)
	r.set("hamsd.upload_s.trace", s.upload["trace"])
	r.set("hamsd.upload_s.checkpoint", s.upload["checkpoint"])

	rssBase, err := procStatusMB(s.d.pid(), "VmRSS")
	if err != nil {
		return err
	}
	lr, err := closedLoop(s.d, s.mix, e.seconds/2)
	if err != nil {
		return err
	}
	rssEnd, err := procStatusMB(s.d.pid(), "VmRSS")
	if err != nil {
		return err
	}
	s.d.stop()
	first := tallyCompletions(r, s.mix, lr.done)
	var lat, submits, waits, runs, tails []float64
	for _, c := range lr.done {
		submits = append(submits, c.submit)
		if c.outcome != api.StateDone {
			continue
		}
		lat = append(lat, c.latency)
		st := c.status
		waits = append(waits, st.Started.Sub(st.Submitted).Seconds())
		runs = append(runs, st.Finished.Sub(st.Started).Seconds())
		tails = append(tails, c.received.Sub(st.Finished).Seconds())
	}
	r.set("hamsd.submit_s", median(submits))
	r.set("hamsd.queue_wait_p95_s", 0)
	if v, ok := tailPercentile(waits, 95); ok {
		r.set("hamsd.queue_wait_p95_s", v)
	}
	r.set("hamsd.run_p50_s", median(runs))
	r.set("hamsd.stream_tail_s", median(tails))
	r.set("hamsd.metrics_scrape_s", median(lr.scrapes))
	r.set("hamsd.rss_growth_mb", rssEnd-rssBase)
	r.set("job_p95_s", 0)
	if v, ok := tailPercentile(lat, 95); ok {
		r.set("job_p95_s", v)
	}

	// The in-process replica: an untraced pass for reference cells, a
	// second timed one, then profiled passes for the rest of the
	// window.
	pool := runner.NewPool(svcConns)
	defer pool.Close()
	eo := s.in.execOptions()
	eo.Runner = pool
	ref := replicaPass(s.mix, eo, nil)
	t0 := time.Now()
	warm := replicaPass(s.mix, eo, nil)
	untraced := time.Since(t0).Seconds()
	var refUnits int64
	for i, p := range ref {
		refUnits += p.units
		r.check((p.err == nil) == (warm[i].err == nil) && bytes.Equal(p.cells, warm[i].cells),
			"mix job %d (%s): repeated in-process cells differ", i, s.mix[i].kind)
		got := first[i]
		if got == nil {
			continue
		}
		r.check((p.err == nil) == (got.outcome == api.StateDone) && (p.err != nil || bytes.Equal(p.cells, canonical(got.cells))),
			"mix job %d (%s): hamsd cells differ from in-process api.Execute", i, s.mix[i].kind)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	prof, err := startProfile(e.build)
	if err != nil {
		return err
	}
	perKind := make(map[string][]float64)
	passes := 0
	start := time.Now()
	for ; passes == 0 || time.Since(start) < e.seconds/2; passes++ {
		got := replicaPass(s.mix, eo, perKind)
		for i, p := range got {
			r.check((p.err == nil) == (ref[i].err == nil) && bytes.Equal(p.cells, ref[i].cells),
				"mix job %d (%s): traced cells differ from untraced", i, s.mix[i].kind)
		}
	}
	traced := time.Since(start).Seconds()
	if err := prof.stop(r); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	r.set("host.trace_overhead", traced/float64(passes)/untraced)
	r.set("host.alloc_bytes_per_unit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(refUnits*int64(passes)))
	r.set("host.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	for kind, xs := range perKind {
		r.set("api.execute_s."+kind, median(xs))
	}
	specs := make([]namedSpec, len(s.mix))
	for i, j := range s.mix {
		specs[i] = namedSpec{name: j.kind, spec: j.spec}
	}
	r.set("api.validate_s", timeValidate(specs))

	var layers simLayers
	for i, j := range s.mix {
		if ref[i].err != nil {
			continue
		}
		if err := inprocLayers(r, &layers, s.in.execOptions(), namedSpec{name: fmt.Sprintf("mix job %d (%s)", i, j.kind), spec: j.spec}, ref[i].cells); err != nil {
			return err
		}
	}
	layers.record(r)
	r.set("failed_frac", r.failedFrac())
	r.note("%d hamsd jobs traced; %d in-process replica passes profiled", len(lr.done), passes)
	return nil
}

// replicaResult is one mix job's in-process outcome.
type replicaResult struct {
	cells []byte
	units int64
	err   error
}

// replicaPass runs the mix once in-process with svcConns callers on
// the shared pool, encoding each job's cells as NDJSON the way hamsd
// streams them. perKind, when set, collects api.Execute times by job
// kind.
func replicaPass(mix []mixJob, eo api.ExecOptions, perKind map[string][]float64) []replicaResult {
	out := make([]replicaResult, len(mix))
	times := make([]float64, len(mix))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < svcConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc := json.NewEncoder(io.Discard)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(mix) {
					return
				}
				t0 := time.Now()
				cells, err := api.Execute(mix[i].spec, eo)
				for _, c := range cells {
					_ = enc.Encode(c) // io.Discard cannot fail
				}
				times[i] = time.Since(t0).Seconds()
				out[i] = replicaResult{cells: canonical(cells), units: cellUnits(cells), err: err}
			}
		}()
	}
	wg.Wait()
	if perKind != nil {
		for i, j := range mix {
			kind := j.kind
			if kind == mixLive {
				kind = mixScenario // a live twin is a scenario with a warm-up phase
			}
			if out[i].err == nil {
				perKind[kind] = append(perKind[kind], times[i])
			}
		}
	}
	return out
}
