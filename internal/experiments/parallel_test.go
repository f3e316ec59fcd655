package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"hams/internal/report"
)

// renderAll runs every engine-ported target and concatenates the
// rendered tables — the byte stream the determinism contract covers.
func renderAll(t *testing.T, o Options) string {
	t.Helper()
	var b strings.Builder
	tabs, err := StaticTables(o, "table1", "table2", "table3")
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	f20, err := Fig20(o)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := AssocShardSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Replay(o)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := Mixed(o)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := MLPSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tabs {
		b.WriteString(tb.String())
	}
	for _, tb := range f5 {
		b.WriteString(tb.String())
	}
	for _, tb := range f20 {
		b.WriteString(tb.String())
	}
	b.WriteString(abl.String())
	for _, tb := range sw {
		b.WriteString(tb.String())
	}
	for _, tb := range rp {
		b.WriteString(tb.String())
	}
	for _, tb := range mx {
		b.WriteString(tb.String())
	}
	for _, tb := range ml {
		b.WriteString(tb.String())
	}
	for _, name := range []string{"fig6", "fig7", "fig10", "fig17", "fig18", "fig19", "headline"} {
		tbs, err := RunTarget(name, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tbs {
			b.WriteString(tb.String())
		}
	}
	return b.String()
}

// The tentpole's acceptance bar: serial (-parallel=1), parallel
// (-parallel=8) and shuffled-dispatch runs must render byte-identical
// tables for every ported target.
func TestParallelMatchesSerialByteForByte(t *testing.T) {
	base := tiny
	serial := base
	serial.Parallel = 1
	want := renderAll(t, serial)
	for _, o := range []Options{
		{Scale: base.Scale, Seed: base.Seed, Parallel: 8},
		{Scale: base.Scale, Seed: base.Seed, Parallel: 0},
		{Scale: base.Scale, Seed: base.Seed, Parallel: 8, Shuffle: 12345},
		{Scale: base.Scale, Seed: base.Seed, Parallel: 3, Shuffle: 999},
	} {
		if got := renderAll(t, o); got != want {
			t.Fatalf("parallel=%d shuffle=%d output diverged from serial",
				o.Parallel, o.Shuffle)
		}
	}
}

// artifactBytes runs the ported targets with a recorder and returns
// the canonical (timestamp- and wall-time-free) artifact encoding.
func artifactBytes(t *testing.T, o Options) []byte {
	t.Helper()
	o.Recorder = &report.Recorder{}
	renderAll(t, o)
	art := o.Recorder.Artifact("determinism", o.Scale, o.Seed, o.Parallel)
	b, err := art.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Satellite: BENCH artifacts are byte-identical (modulo timestamps,
// which Canonical strips) for -parallel=1, -parallel=8, and shuffled
// worker completion order.
func TestArtifactBytesDeterministic(t *testing.T) {
	serial := Options{Scale: tiny.Scale, Seed: tiny.Seed, Parallel: 1}
	want := artifactBytes(t, serial)
	if !bytes.Contains(want, []byte(`"units_per_sec"`)) {
		t.Fatalf("artifact carries no throughput cells:\n%s", want[:min(len(want), 600)])
	}
	for _, o := range []Options{
		{Scale: tiny.Scale, Seed: tiny.Seed, Parallel: 8},
		{Scale: tiny.Scale, Seed: tiny.Seed, Parallel: 8, Shuffle: 4242},
	} {
		got := artifactBytes(t, o)
		if !bytes.Equal(got, want) {
			t.Fatalf("artifact bytes diverged for parallel=%d shuffle=%d", o.Parallel, o.Shuffle)
		}
	}
}

// Cancelling the harness context must abort figure generation with the
// context's error instead of hanging or finishing the matrix.
func TestFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tiny
	o.Ctx = ctx
	if _, err := Fig20(o); err == nil {
		t.Fatal("cancelled Fig20 returned no error")
	}
	if _, err := AssocShardSweep(o); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if _, err := Fig17(o); err == nil {
		t.Fatal("cancelled Fig17 returned no error")
	}
}

// Figures that share a (workload, platform) point run the same cell:
// both draw DeriveSeed(seed, workload) under default options, so fig17
// and fig16 must agree on every deterministic field but the key.
func TestGridCellsPairedAcrossFigures(t *testing.T) {
	cellOf := func(run func(Options) error, key string) report.Cell {
		t.Helper()
		o := tiny
		o.Recorder = &report.Recorder{}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		for _, c := range report.CanonicalCells(o.Recorder.Cells()) {
			if c.Key == key {
				c.Key, c.Target = "", ""
				return c
			}
		}
		t.Fatalf("no cell %s", key)
		return report.Cell{}
	}
	f16 := cellOf(func(o Options) error { _, err := Fig16(o); return err }, "fig16/rndWr/hams-TE")
	f17 := cellOf(func(o Options) error { _, err := Fig17(o); return err }, "fig17/rndWr/hams-TE")
	if !reflect.DeepEqual(f16, f17) {
		t.Fatalf("fig16 and fig17 disagree on rndWr/hams-TE:\n%+v\n%+v", f16, f17)
	}
	if f17.Extra["layer_ns:dma"] <= 0 {
		t.Fatalf("grid cell carries no per-layer split: %+v", f17.Extra)
	}
}

// The recorder must label cells with platform/workload identity and
// record simulated throughput for matrix cells.
func TestRecorderCellShape(t *testing.T) {
	o := tiny
	o.Recorder = &report.Recorder{}
	if _, err := Fig20(o); err != nil {
		t.Fatal(err)
	}
	art := o.Recorder.Artifact("fig20", o.Scale, o.Seed, o.Parallel)
	if len(art.Cells) != 45 { // 5 wl × 6 pages + 5 wl × 3 platforms
		t.Fatalf("fig20 recorded %d cells, want 45", len(art.Cells))
	}
	c := art.Cells[0]
	if c.Key != "fig20/a/seqSel/4KB" || c.Platform != "hams-TE" || c.Workload != "seqSel" {
		t.Fatalf("first cell mislabeled: %+v", c)
	}
	for _, c := range art.Cells {
		if c.UnitsPerSec <= 0 {
			t.Fatalf("cell %s has no throughput", c.Key)
		}
		if c.WallNS <= 0 {
			t.Fatalf("cell %s has no wall time", c.Key)
		}
	}
}
