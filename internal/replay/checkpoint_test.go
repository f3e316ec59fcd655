package replay_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"hams/internal/checkpoint"
	"hams/internal/core"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/sim"
)

// cpScenario is the checkpoint tests' workhorse: a contended two-
// tenant co-location on a small NVDIMM, so the warm-up phase leaves
// nontrivial state in every layer (tag arrays, FTL maps, QoS
// counters) for the checkpoint to carry.
func cpScenario(warmup int64) replay.Scenario {
	return replay.Scenario{
		Name:     "cp",
		Platform: "hams-LE",
		PlatOpts: platform.Options{HAMS: func(c *core.Config) {
			c.Ways, c.MSHRs = 4, 4
			c.SetNVDIMMBytes(64 * mem.MiB)
		}},
		QoS: &qos.Table{Classes: []qos.Class{
			{Name: "svc", WayMask: 0x3},
			{Name: "bulk", WayMask: 0xc},
		}},
		Tenants: []replay.Tenant{
			{Name: "svc", Workload: "rndRd", Seed: 11, Class: "svc",
				Scale: 2e-6, Hot: 4 * mem.MiB, HotFrac: 0.8},
			{Name: "bulk", Workload: "rndWr", Seed: 22, Class: "bulk",
				Scale: 2e-6, Base: 64 * mem.GiB},
		},
		Warmup: warmup,
	}
}

// TestRestoreMatchesLive is the subsystem's central guarantee: a
// measured phase continued live after a warm-up and a measured phase
// resumed from a checkpoint of that warm-up produce bit-identical
// results — the full Result struct, CPU stats and latency percentiles
// and QoS counters included.
func TestRestoreMatchesLive(t *testing.T) {
	const warmup = 40
	o := replay.Options{}

	live, err := replay.Run(cpScenario(warmup), o)
	if err != nil {
		t.Fatal(err)
	}
	if live.CPU.Instructions == 0 || live.Units == 0 {
		t.Fatalf("measured phase did no work: %+v", live.CPU)
	}

	img, err := replay.Warmup(cpScenario(warmup), o)
	if err != nil {
		t.Fatal(err)
	}
	if img.Warmup != warmup || img.SimTime <= 0 {
		t.Fatalf("image header = warmup %d simTime %d", img.Warmup, img.SimTime)
	}

	restoredSc := cpScenario(0)
	restoredSc.Checkpoint = img
	restored, err := replay.Run(restoredSc, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, restored) {
		t.Fatalf("restored run diverged from live:\nlive     %+v\nrestored %+v", live, restored)
	}

	// Fan-out determinism: a second restore from the same image is
	// equally identical (restore mutates nothing in the image).
	sc2 := cpScenario(warmup)
	sc2.Checkpoint = img
	again, err := replay.Run(sc2, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, again) {
		t.Fatal("second restore from the same image diverged")
	}
}

// TestRestoreAfterWireRoundTrip proves the wire format carries the
// whole state: the image is encoded to bytes, decoded back, and the
// restored run still matches the live one bit-for-bit.
func TestRestoreAfterWireRoundTrip(t *testing.T) {
	const warmup = 40
	o := replay.Options{}
	live, err := replay.Run(cpScenario(warmup), o)
	if err != nil {
		t.Fatal(err)
	}
	img, err := replay.Warmup(cpScenario(warmup), o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	decoded, err := checkpoint.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sc := cpScenario(0)
	sc.Checkpoint = decoded
	restored, err := replay.Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, restored) {
		t.Fatalf("wire round trip lost state:\nlive     %+v\nrestored %+v", live, restored)
	}
}

// TestSLOTrajectoryRestored extends the guarantee to the AIMD
// feedback controller: its reconfiguration trajectory — part of the
// platform state the image carries — continues identically after a
// restore.
func TestSLOTrajectoryRestored(t *testing.T) {
	base := func() replay.Scenario {
		sc := sloScenario(t, false)
		sc.Warmup = 30
		return sc
	}
	o := replay.Options{}
	live, err := replay.Run(base(), o)
	if err != nil {
		t.Fatal(err)
	}
	img, err := replay.Warmup(base(), o)
	if err != nil {
		t.Fatal(err)
	}
	sc := base()
	sc.Warmup = 0
	sc.Checkpoint = img
	restored, err := replay.Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, restored) {
		t.Fatalf("SLO trajectory diverged after restore:\nlive     %+v\nrestored %+v", live, restored)
	}
}

// TestSampledStats: interval sampling produces a strict subset of the
// full measurement without perturbing it.
func TestSampledStats(t *testing.T) {
	o := replay.Options{}
	full, err := replay.Run(cpScenario(0), o)
	if err != nil {
		t.Fatal(err)
	}
	sc := cpScenario(0)
	sc.Sample = checkpoint.Sampler{Measure: 20 * int64(sim.Microsecond), Skip: 80 * int64(sim.Microsecond)}
	sampled, err := replay.Run(sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Sampled == nil {
		t.Fatal("Sampled stats missing")
	}
	// Observation gating must not perturb the simulation.
	if full.CPU != sampled.CPU || full.Units != sampled.Units {
		t.Fatalf("sampling perturbed the run:\nfull    %+v\nsampled %+v", full.CPU, sampled.CPU)
	}
	var fullAcc, sampAcc int64
	for i := range sampled.Sampled {
		fullAcc += sampled.Tenants[i].Accesses
		sampAcc += sampled.Sampled[i].Accesses
	}
	if sampAcc <= 0 || sampAcc >= fullAcc {
		t.Fatalf("sampled %d of %d accesses, want a strict nonempty subset", sampAcc, fullAcc)
	}
}

// TestCheckpointValidation covers the refusal paths: bad warm-up
// configs, platform mismatches and unsupported platforms all fail
// with typed errors before any simulation state is touched.
func TestCheckpointValidation(t *testing.T) {
	o := replay.Options{}
	if _, err := replay.Warmup(cpScenario(0), o); err == nil {
		t.Fatal("Warmup accepted a zero warm-up")
	}
	img, err := replay.Warmup(cpScenario(40), o)
	if err != nil {
		t.Fatal(err)
	}
	sc := cpScenario(40)
	sc.Checkpoint = img
	if _, err := replay.Warmup(sc, o); err == nil {
		t.Fatal("Warmup accepted a checkpoint-restoring scenario")
	}

	contradicting := cpScenario(41)
	contradicting.Checkpoint = img
	if _, err := replay.Run(contradicting, o); err == nil {
		t.Fatal("Run accepted a warm-up contradicting the image")
	}

	wrongPlat := cpScenario(0)
	wrongPlat.Platform = "hams-TE"
	wrongPlat.Checkpoint = img
	if _, err := replay.Run(wrongPlat, o); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("restore onto hams-TE: err = %v, want ErrMismatch", err)
	}

	unsupported := replay.Scenario{
		Name:       "mm",
		Platform:   "mmap",
		Tenants:    []replay.Tenant{{Name: "a", Workload: "rndRd"}},
		Checkpoint: img,
	}
	if _, err := replay.Run(unsupported, replay.Options{Scale: 1e-7}); !errors.Is(err, checkpoint.ErrUnsupported) {
		t.Fatalf("restore onto mmap: err = %v, want ErrUnsupported", err)
	}

	negative := cpScenario(-1)
	if _, err := replay.Run(negative, o); err == nil {
		t.Fatal("Run accepted a negative warm-up")
	}
}
