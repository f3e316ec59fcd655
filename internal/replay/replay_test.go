package replay_test

// External test package: it drives replay through the same
// internal/experiments entry points the harness uses, which would be
// an import cycle from package replay itself.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hams/internal/core"
	"hams/internal/cpu"
	"hams/internal/experiments"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/trace"
	"hams/internal/workload"
)

// recordFile round-trips a workload's streams through the v2 codec.
func recordFile(t *testing.T, wlName string, wo workload.Options) *trace.File {
	t.Helper()
	var buf bytes.Buffer
	if _, err := replay.RecordWorkload(&buf, wlName, wo, replay.AllThreads); err != nil {
		t.Fatal(err)
	}
	f, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRecordReplayGolden is the determinism guarantee the replay
// subsystem is pinned by: replaying a recorded trace reproduces the
// live run's simulated statistics bit-for-bit — the full cpu.Stats
// struct, the work-unit count, the energy total, and the rendered
// stats text. One workload per generator family, on a HAMS platform
// and the mmap software baseline.
func TestRecordReplayGolden(t *testing.T) {
	render := func(st cpu.Stats, units int64, energy float64) string {
		return fmt.Sprintf("%+v|units=%d|energy=%.9f", st, units, energy)
	}
	cases := []struct{ platform, workload string }{
		{"hams-LE", "rndRd"},  // micro, 4 threads
		{"hams-LE", "rndIns"}, // SQLite, 1 thread
		{"hams-LE", "KMN"},    // Rodinia, 4 threads
		{"mmap", "seqWr"},     // software baseline
	}
	for _, tc := range cases {
		t.Run(tc.workload+"@"+tc.platform, func(t *testing.T) {
			o := experiments.Options{Scale: 1e-7, Seed: 7}
			live, err := experiments.Run(tc.platform, tc.workload, o, platform.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			wo := workload.DefaultOptions()
			wo.Scale = 1e-7
			wo.Seed = 7
			f := recordFile(t, tc.workload, wo)
			rep, err := replay.Run(replay.Scenario{
				Name:     tc.workload,
				Platform: tc.platform,
				Tenants:  []replay.Tenant{{Name: tc.workload, Trace: f}},
			}, replay.Options{})
			if err != nil {
				t.Fatal(err)
			}
			liveGold := render(live.CPU, live.Units, live.Energy.Total())
			repGold := render(rep.CPU, rep.Units, rep.Energy.Total())
			if liveGold != repGold {
				t.Fatalf("replay diverged from live run:\nlive   %s\nreplay %s", liveGold, repGold)
			}
		})
	}
}

// TestRecordReplayGoldenMSHR extends the determinism guarantee to
// the non-blocking miss pipeline: a trace recorded once replays
// bit-for-bit against an MSHR-enabled platform too, and the
// non-blocking run differs from the blocking one (the knob reached
// the controller).
func TestRecordReplayGoldenMSHR(t *testing.T) {
	// A small cache under a compact, low-locality dataset keeps the
	// run in the dirty-eviction regime, where the two pipelines
	// schedule differently.
	o := experiments.Options{Scale: 2e-6, Seed: 42}
	shape := func(c *core.Config) {
		c.SetNVDIMMBytes(32 * 1024 * 1024)
		c.PRPSlots = 32
	}
	popt := platform.Options{HAMS: func(c *core.Config) {
		shape(c)
		c.MSHRs = 4
	}}
	wo := workload.DefaultOptions()
	wo.Scale = 2e-6
	wo.Seed = 42
	wo.HotFraction = 0.05
	wo.HotBytes = 16 * 1024 * 1024
	wo.DatasetBytes = 256 * 1024 * 1024
	live, err := experiments.Run("hams-LE", "rndWr", o, popt, &wo)
	if err != nil {
		t.Fatal(err)
	}
	f := recordFile(t, "rndWr", wo)
	sc := replay.Scenario{
		Name:     "rndWr-mshr4",
		Platform: "hams-LE",
		PlatOpts: popt,
		Tenants:  []replay.Tenant{{Name: "rndWr", Trace: f}},
	}
	rep, err := replay.Run(sc, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if live.CPU != rep.CPU || live.Units != rep.Units {
		t.Fatalf("MSHR replay diverged from live run:\nlive   %+v\nreplay %+v", live.CPU, rep.CPU)
	}
	bopt := platform.Options{HAMS: shape}
	blocking, err := experiments.Run("hams-LE", "rndWr", o, bopt, &wo)
	if err != nil {
		t.Fatal(err)
	}
	if blocking.CPU == live.CPU {
		t.Fatal("MSHRs=4 and the blocking pipeline produced identical stats — the knob did not reach the controller")
	}
}

// TestQoSFullMaskParityMSHR: the QoS-transparency pin holds under the
// non-blocking pipeline — full-mask, unthrottled classes on an
// MSHRs=4 platform are bit-for-bit the same scenario without a QoS
// table. MSHR occupancy respects CAT masks through the same victim
// path, so a full mask must not perturb it; MBA debt still lands on
// the requesting class only (zero here, so timings match exactly).
func TestQoSFullMaskParityMSHR(t *testing.T) {
	popt := platform.Options{HAMS: func(c *core.Config) {
		c.MSHRs = 4
		c.SetNVDIMMBytes(64 * 1024 * 1024)
	}}
	base := replay.Scenario{
		Name:     "parity-mshr",
		Platform: "hams-LE",
		PlatOpts: popt,
		Tenants: []replay.Tenant{
			{Name: "reader", Workload: "rndRd", Seed: 11},
			{Name: "writer", Workload: "rndWr", Seed: 22},
		},
	}
	o := replay.Options{Scale: 1e-7, Seed: 3}
	plain, err := replay.Run(base, o)
	if err != nil {
		t.Fatal(err)
	}
	qosed := base
	qosed.QoS = &qos.Table{Classes: []qos.Class{{Name: "rd"}, {Name: "wr"}}}
	qosed.Tenants = []replay.Tenant{
		{Name: "reader", Workload: "rndRd", Seed: 11, Class: "rd"},
		{Name: "writer", Workload: "rndWr", Seed: 22, Class: "wr"},
	}
	full, err := replay.Run(qosed, o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CPU != full.CPU {
		t.Fatalf("cpu stats diverged under MSHRs:\nplain %+v\nqos   %+v", plain.CPU, full.CPU)
	}
	for i := range plain.Tenants {
		p, q := plain.Tenants[i], full.Tenants[i]
		if p.Mean != q.Mean || p.P99 != q.P99 || p.Max != q.Max {
			t.Fatalf("tenant %s stats diverged under MSHRs:\nplain %+v\nqos   %+v", p.Name, p, q)
		}
	}
}

// TestScenarioDeterministic: a scenario's result is a pure function of
// (Scenario, Options) — two runs are deeply equal.
func TestScenarioDeterministic(t *testing.T) {
	sc := replay.Scenario{
		Name:     "det",
		Platform: "hams-LE",
		Tenants: []replay.Tenant{
			{Name: "reader", Workload: "rndRd", Seed: 11},
			{Name: "oltp", Workload: "update", Seed: 22},
		},
	}
	o := replay.Options{Scale: 1e-7, Seed: 3}
	a, err := replay.Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay.Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scenario not deterministic:\na %+v\nb %+v", a, b)
	}
}

// TestMultiTenantStats: tenants progress concurrently, and the
// latency percentiles are populated and ordered.
func TestMultiTenantStats(t *testing.T) {
	sc := replay.Scenario{
		Name:     "mix",
		Platform: "hams-LE",
		Tenants: []replay.Tenant{
			{Name: "reader", Workload: "rndRd", Seed: 1},
			{Name: "writer", Workload: "seqWr", Seed: 2},
		},
	}
	res, err := replay.Run(sc, replay.Options{Scale: 1e-7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(res.Tenants))
	}
	var units int64
	for _, ten := range res.Tenants {
		units += ten.Units
		if ten.Units == 0 {
			t.Errorf("tenant %s made no progress", ten.Name)
		}
		if ten.Accesses == 0 {
			t.Errorf("tenant %s has no latency samples", ten.Name)
		}
		if ten.P50 > ten.P95 || ten.P95 > ten.P99 || ten.P99 > ten.Max {
			t.Errorf("tenant %s percentiles unordered: p50=%d p95=%d p99=%d max=%d",
				ten.Name, ten.P50, ten.P95, ten.P99, ten.Max)
		}
	}
	if units != res.Units {
		t.Fatalf("tenant units %d != total %d", units, res.Units)
	}
	if res.CPU.Elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

// TestTraceAndSyntheticMix: a trace-backed tenant co-runs with a
// synthetic one.
func TestTraceAndSyntheticMix(t *testing.T) {
	wo := workload.DefaultOptions()
	wo.Scale = 1e-7
	wo.Seed = 9
	f := recordFile(t, "rndIns", wo)
	res, err := replay.Run(replay.Scenario{
		Name:     "hybrid",
		Platform: "hams-LE",
		Tenants: []replay.Tenant{
			{Name: "recorded", Trace: f},
			{Name: "synthetic", Workload: "BFS", Seed: 13},
		},
	}, replay.Options{Scale: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants[0].Units == 0 || res.Tenants[1].Units == 0 {
		t.Fatalf("a tenant made no progress: %+v", res.Tenants)
	}
}

// TestFromFile: label grouping into tenants.
func TestFromFile(t *testing.T) {
	multi := &trace.File{
		Version: trace.Version2,
		Name:    "two-tenants",
		Threads: []trace.Thread{
			{Label: "a", Steps: []cpu.Step{{Compute: 1}}},
			{Label: "b", Steps: []cpu.Step{{Compute: 2}}},
			{Label: "a", Steps: []cpu.Step{{Compute: 3}}},
		},
	}
	tens := replay.FromFile(multi)
	if len(tens) != 2 || tens[0].Name != "a" || tens[1].Name != "b" {
		t.Fatalf("FromFile = %+v", tens)
	}
	single := &trace.File{Version: trace.Version1, Threads: []trace.Thread{{}}}
	tens = replay.FromFile(single)
	if len(tens) != 1 || tens[0].Name != "trace" || tens[0].TraceLabel != "" {
		t.Fatalf("FromFile(v1) = %+v", tens)
	}
	// Mixed labeled/unlabeled threads cannot be split unambiguously.
	mixed := &trace.File{Version: trace.Version2, Name: "m", Threads: []trace.Thread{
		{Label: "a"}, {Label: ""},
	}}
	tens = replay.FromFile(mixed)
	if len(tens) != 1 || tens[0].TraceLabel != "" {
		t.Fatalf("FromFile(mixed labels) = %+v", tens)
	}
}

// TestRunErrors: empty scenarios, unknown platforms/workloads, and
// label misses fail loudly instead of simulating nothing.
func TestRunErrors(t *testing.T) {
	if _, err := replay.Run(replay.Scenario{Name: "empty", Platform: "hams-LE"}, replay.Options{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
	bad := replay.Scenario{Name: "p", Platform: "no-such", Tenants: []replay.Tenant{{Name: "x", Workload: "rndRd"}}}
	if _, err := replay.Run(bad, replay.Options{}); err == nil {
		t.Fatal("unknown platform accepted")
	}
	bad = replay.Scenario{Name: "w", Platform: "hams-LE", Tenants: []replay.Tenant{{Name: "x", Workload: "no-such"}}}
	if _, err := replay.Run(bad, replay.Options{Scale: 1e-8}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	f := &trace.File{Version: trace.Version2, Threads: []trace.Thread{{Label: "a"}}}
	bad = replay.Scenario{Name: "l", Platform: "hams-LE", Tenants: []replay.Tenant{{Name: "x", Trace: f, TraceLabel: "zzz"}}}
	if _, err := replay.Run(bad, replay.Options{}); err == nil {
		t.Fatal("label miss accepted")
	}
}

// TestDuplicateTenantNamesRejected: two tenants with the same label
// would silently merge into one TenantStats bucket (and share a
// derived seed); the scenario must be rejected before any simulation.
func TestDuplicateTenantNamesRejected(t *testing.T) {
	sc := replay.Scenario{
		Name:     "dup",
		Platform: "hams-LE",
		Tenants: []replay.Tenant{
			{Name: "twin", Workload: "rndRd", Seed: 1},
			{Name: "twin", Workload: "seqWr", Seed: 2},
		},
	}
	_, err := replay.Run(sc, replay.Options{Scale: 1e-8})
	if err == nil {
		t.Fatal("duplicate tenant names accepted")
	}
	if !strings.Contains(err.Error(), "twin") {
		t.Fatalf("error does not name the duplicate: %v", err)
	}
}

// TestQoSClassResolutionErrors: naming a class without a table, or an
// unknown class, fails up front.
func TestQoSClassResolutionErrors(t *testing.T) {
	sc := replay.Scenario{
		Name:     "noclos",
		Platform: "hams-LE",
		Tenants:  []replay.Tenant{{Name: "a", Workload: "rndRd", Class: "latency"}},
	}
	if _, err := replay.Run(sc, replay.Options{Scale: 1e-8}); err == nil {
		t.Fatal("class without QoS table accepted")
	}
	sc.QoS = &qos.Table{Classes: []qos.Class{{Name: "default"}}}
	if _, err := replay.Run(sc, replay.Options{Scale: 1e-8}); err == nil {
		t.Fatal("unknown class name accepted")
	}
}

// TestQoSFullMaskParity is the QoS subsystem's parity pin: a scenario
// where every tenant rides a full-way-mask, unthrottled CLOS must
// reproduce the same scenario without any QoS table bit-for-bit —
// same cpu.Stats, units, energy, and per-tenant latency percentiles.
// The QoS layer may observe (occupancy and bandwidth counters are
// live) but must not perturb.
func TestQoSFullMaskParity(t *testing.T) {
	base := replay.Scenario{
		Name:     "parity",
		Platform: "hams-LE",
		Tenants: []replay.Tenant{
			{Name: "reader", Workload: "rndRd", Seed: 11},
			{Name: "writer", Workload: "seqWr", Seed: 22},
		},
	}
	o := replay.Options{Scale: 1e-7, Seed: 3}
	plain, err := replay.Run(base, o)
	if err != nil {
		t.Fatal(err)
	}

	qosed := base
	qosed.QoS = &qos.Table{Classes: []qos.Class{
		{Name: "rd"}, // zero mask = full, no throttle
		{Name: "wr"},
	}}
	qosed.Tenants = []replay.Tenant{
		{Name: "reader", Workload: "rndRd", Seed: 11, Class: "rd"},
		{Name: "writer", Workload: "seqWr", Seed: 22, Class: "wr"},
	}
	full, err := replay.Run(qosed, o)
	if err != nil {
		t.Fatal(err)
	}

	if plain.CPU != full.CPU {
		t.Fatalf("cpu stats diverged:\nplain %+v\nqos   %+v", plain.CPU, full.CPU)
	}
	if plain.Units != full.Units || plain.Energy.Total() != full.Energy.Total() {
		t.Fatalf("units/energy diverged: %d/%g vs %d/%g",
			plain.Units, plain.Energy.Total(), full.Units, full.Energy.Total())
	}
	for i := range plain.Tenants {
		p, q := plain.Tenants[i], full.Tenants[i]
		if p.Accesses != q.Accesses || p.Mean != q.Mean || p.P50 != q.P50 ||
			p.P95 != q.P95 || p.P99 != q.P99 || p.Max != q.Max || p.Units != q.Units {
			t.Fatalf("tenant %s latency stats diverged:\nplain %+v\nqos   %+v", p.Name, p, q)
		}
	}
	// And the monitor actually watched: both classes saw traffic and
	// occupancy landed somewhere.
	if len(full.QoS) != 2 {
		t.Fatalf("QoS stats = %+v", full.QoS)
	}
	for _, cs := range full.QoS {
		if cs.Accesses == 0 {
			t.Fatalf("class %s observed no traffic: %+v", cs.Name, cs)
		}
	}
	if full.Tenants[0].QoS.Name != "rd" || full.Tenants[1].QoS.Name != "wr" {
		t.Fatalf("tenant QoS blocks misattributed: %+v / %+v", full.Tenants[0].QoS, full.Tenants[1].QoS)
	}
}
