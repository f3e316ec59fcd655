package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"hams/internal/api"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomeanAndKindMedian(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Error("geomean of nothing should be 0")
	}
	// Five short jobs and two long ones: the per-kind medians (1 and
	// 9) combine to 3 whatever the counts.
	got := kindMedian(map[string][]float64{"rndSel": {1, 1, 1, 0.9, 1.1}, "update": {9, 9}})
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("kindMedian = %v, want 3", got)
	}
}

// TestTailPercentileNeedsTenBeyond: a percentile is reported only when
// at least ten samples lie beyond it — p95 needs 200 samples.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{200, 95, 190, 10, true},
		{199, 95, 190, 9, false},
		{1000, 95, 950, 50, true},
		{100, 50, 50, 50, true},
		{19, 50, 10, 9, false},
		{8, 95, 8, 0, false},
	} {
		v, beyond := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("percentile(n=%d, p%g) = %v with %d beyond, want %v with %d", c.n, c.p, v, beyond, c.want, c.beyond)
		}
		if _, ok := tailPercentile(seq(c.n), c.p); ok != c.ok {
			t.Errorf("tailPercentile(n=%d, p%g) reportable = %v, want %v", c.n, c.p, ok, c.ok)
		}
	}
	if s := describeTail("job_p95_s", seq(8), 95, "s"); !strings.Contains(s, "not reported") || !strings.Contains(s, "n=8") {
		t.Errorf("withheld percentile renders as %q", s)
	}
	if s := describeTail("job_p95_s", seq(200), 95, "s"); !strings.Contains(s, "= 190 s (n=200)") {
		t.Errorf("reported percentile renders as %q", s)
	}
}

// TestFailedFracCountsRefusedAndFailed: every outcome but done is a
// failure, and failed output checks count too.
func TestFailedFracCountsRefusedAndFailed(t *testing.T) {
	var tl tally
	for i, o := range []string{api.StateDone, api.StateDone, refused, api.StateFailed, api.StateCanceled} {
		tl.job(fmt.Sprint(i), o)
	}
	tl.check(true, "ok")
	tl.check(false, "cells differ")
	if tl.attempted != 7 || tl.failed != 4 || tl.checkFailures != 1 {
		t.Fatalf("tally = %+v", tl)
	}
	if got := tl.failedFrac(); got != 4.0/7 {
		t.Fatalf("failedFrac = %v, want %v", got, 4.0/7)
	}
	var empty tally
	if empty.failedFrac() != 0 {
		t.Fatal("failedFrac of nothing should be 0")
	}
}

// TestTallyCountsRepeatsOnce: a job or check repeated by the window is
// one operation, failed if any repeat failed, so the tally does not
// grow with the number of repeats.
func TestTallyCountsRepeatsOnce(t *testing.T) {
	var tl tally
	for i := 0; i < 3; i++ {
		tl.job("ok", api.StateDone)
		tl.job("flaky", []string{api.StateDone, api.StateFailed, api.StateDone}[i])
		tl.job("broken", api.StateFailed)
		tl.check(true, "mix job %d: repeat", 1)
		tl.check(i != 1, "cells differ")
	}
	if tl.attempted != 5 || tl.failed != 3 || tl.checkFailures != 1 {
		t.Fatalf("tally = %+v", tl)
	}
	if len(tl.findings) != 1 {
		t.Fatalf("findings = %q, want the failed check once", tl.findings)
	}
}

// TestCatalogMatchesBenchmarkJSON: the metric names and units this
// program prints are the ones BENCHMARK.json declares, in order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		got  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		if len(c.got) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.got), len(c.defs))
		}
		for i, d := range c.defs {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestResultLine: an untraced result carries exactly the end-to-end
// metrics and refuses a missing one; a traced result carries every
// per-layer metric, unexercised ones as 0.
func TestResultLine(t *testing.T) {
	r := newLedger()
	r.job("a", api.StateDone)
	for _, d := range endToEnd[1:] {
		r.set(d.name, 1)
	}
	if _, err := r.result(false); err == nil {
		t.Fatal("missing setup_s accepted")
	}
	r.set("setup_s", 1)
	out, err := r.result(false)
	if err != nil || len(out.Metrics) != len(endToEnd) || !out.Correct || out.Attempted != 1 {
		t.Fatalf("untraced result %+v, %v", out, err)
	}
	out, err = r.result(true)
	if err != nil || len(out.Metrics) != len(perLayer) || out.Metrics["host.cpu_share"].Unit != "ratio" {
		t.Fatalf("traced result %+v, %v", out, err)
	}
}
