package replay_test

// Dynamic-QoS determinism pins: a scenario carrying a policy timeline
// or an SLO feedback controller replays bit-for-bit — trace-backed
// tenants reproduce the synthetic run's controller trajectory and
// therefore its statistics exactly, because every controller input is
// a pure function of simulated time.

import (
	"reflect"
	"strings"
	"testing"

	"hams/internal/core"
	"hams/internal/mem"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/sim"
	"hams/internal/workload"
)

// dynScenario is the two-tenant victim/aggressor co-location every
// dynamic-QoS test runs: synthetic when traced is false, trace-backed
// (recorded through the v2 codec at the same scale/seeds) when true.
func dynScenario(t *testing.T, traced bool) replay.Scenario {
	t.Helper()
	sc := replay.Scenario{
		Name:     "dynamic",
		Platform: "hams-LE",
		PlatOpts: platform.Options{HAMS: func(c *core.Config) { c.Ways = 4 }},
		QoS: &qos.Table{Classes: []qos.Class{
			{Name: "svc"},
			{Name: "bulk"},
		}},
		Tenants: []replay.Tenant{
			{Name: "svc", Workload: "rndRd", Seed: 11, Class: "svc"},
			{Name: "bulk", Workload: "seqWr", Seed: 22, Class: "bulk"},
		},
	}
	if !traced {
		return sc
	}
	for i, ten := range sc.Tenants {
		wo := workload.DefaultOptions()
		wo.Scale = 1e-7
		wo.Seed = ten.Seed
		sc.Tenants[i] = replay.Tenant{
			Name:  ten.Name,
			Trace: recordFile(t, ten.Workload, wo),
			Class: ten.Class,
		}
	}
	return sc
}

// TestPolicyChangeReplayGolden: a scheduled CLOS timeline latches at
// the same simulated instants live and replayed — the full Result
// (stats, per-tenant percentiles, reconfig count, final table) is
// bit-for-bit identical.
func TestPolicyChangeReplayGolden(t *testing.T) {
	policy := []replay.PolicyChange{
		{At: 50 * sim.Microsecond, Class: "bulk", Mask: 0x1, MBps: 100},
		{At: 200 * sim.Microsecond, Class: "bulk", Mask: 0, MBps: 400},
	}
	o := replay.Options{Scale: 1e-7}

	live := dynScenario(t, false)
	live.Policy = policy
	a, err := replay.Run(live, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.QoSReconfigs != int64(len(policy)) {
		t.Fatalf("QoSReconfigs = %d, want both timeline entries latched", a.QoSReconfigs)
	}
	cur := a.QoSFinal
	if len(cur) != 2 || cur[1].WayMask != 0 || cur[1].MBps != 400 {
		t.Fatalf("final table = %+v, want bulk at full mask / 400 MB/s", cur)
	}

	rep := dynScenario(t, true)
	rep.Policy = policy
	b, err := replay.Run(rep, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed policy run diverged from live:\nlive   %+v\nreplay %+v", a, b)
	}
}

// sloScenario is the contention-heavy co-location the SLO tests run:
// a cache-partitioned BFS service whose tail is inflicted by a
// streamer sweeping the whole array, so the controller sees sustained
// violations to act on (the dynScenario pair goes all-hits after
// warmup and the rolling window never trips). Tenant scales are
// pinned per tenant, like the qos experiment scenario.
func sloScenario(t *testing.T, traced bool) replay.Scenario {
	t.Helper()
	sc := replay.Scenario{
		Name:     "slo",
		Platform: "hams-LE",
		PlatOpts: platform.Options{HAMS: func(c *core.Config) {
			c.Ways = 8
			c.SetNVDIMMBytes(64 * mem.MiB)
		}},
		QoS: &qos.Table{Classes: []qos.Class{
			{Name: "svc", WayMask: 0xfe},
			{Name: "bulk", WayMask: 0x01},
		}},
		Tenants: []replay.Tenant{
			{Name: "svc", Workload: "BFS", Seed: 11, Class: "svc",
				Scale: 5e-6, Hot: 4 * mem.MiB, HotFrac: 1.0},
			{Name: "bulk", Workload: "seqWr", Seed: 22, Class: "bulk",
				Scale: 5e-5, Base: 64 * mem.GiB},
		},
		SLO: &qos.SLO{Class: "svc", TargetP99: 3 * sim.Microsecond,
			Window: 128, MinMBps: 10, Hold: 2},
	}
	if !traced {
		return sc
	}
	for i, ten := range sc.Tenants {
		wo := workload.DefaultOptions()
		wo.Scale = ten.Scale
		wo.Seed = ten.Seed
		if ten.Hot != 0 {
			wo.HotBytes = ten.Hot
		}
		if ten.HotFrac > 0 {
			wo.HotFraction = ten.HotFrac
		}
		sc.Tenants[i] = replay.Tenant{
			Name:  ten.Name,
			Trace: recordFile(t, ten.Workload, wo),
			Class: ten.Class,
			Base:  ten.Base,
		}
	}
	return sc
}

// TestSLOControllerReplayGolden: the AIMD feedback controller's
// trajectory is reproduced bit-for-bit by a trace-backed replay, and a
// second live run of the same scenario is equally identical (a fresh
// controller is built per Run — no state leaks across runs).
func TestSLOControllerReplayGolden(t *testing.T) {
	o := replay.Options{}

	live := sloScenario(t, false)
	a, err := replay.Run(live, o)
	if err != nil {
		t.Fatal(err)
	}
	// The streamer keeps the victim's tail above target, so the
	// controller must have clamped it at least once.
	if a.QoSReconfigs == 0 {
		t.Fatal("controller never acted against sustained contention")
	}
	if len(a.QoSFinal) != 2 {
		t.Fatalf("final table = %+v", a.QoSFinal)
	}

	a2, err := replay.Run(live, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, a2) {
		t.Fatal("second live run diverged: controller state leaked across Run calls")
	}

	rep := sloScenario(t, true)
	b, err := replay.Run(rep, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed SLO run diverged from live:\nlive   reconfigs=%d %+v\nreplay reconfigs=%d %+v",
			a.QoSReconfigs, a.QoSFinal, b.QoSReconfigs, b.QoSFinal)
	}
}

// TestDynamicQoSValidationErrors: timelines and SLOs that cannot be
// resolved against the scenario fail before any simulation.
func TestDynamicQoSValidationErrors(t *testing.T) {
	o := replay.Options{Scale: 1e-8}

	sc := dynScenario(t, false)
	sc.QoS = nil
	sc.Tenants[0].Class, sc.Tenants[1].Class = "", ""
	sc.Policy = []replay.PolicyChange{{At: 100, Class: "bulk"}}
	if _, err := replay.Run(sc, o); err == nil {
		t.Fatal("policy without a QoS table accepted")
	}
	sc.Policy = nil
	sc.SLO = &qos.SLO{Class: "svc", TargetP99: 1000}
	if _, err := replay.Run(sc, o); err == nil {
		t.Fatal("SLO without a QoS table accepted")
	}

	sc = dynScenario(t, false)
	sc.Policy = []replay.PolicyChange{{At: 100, Class: "nope"}}
	if _, err := replay.Run(sc, o); err == nil {
		t.Fatal("unknown policy class accepted")
	}

	sc = dynScenario(t, false)
	sc.Policy = []replay.PolicyChange{{At: 0, Class: "bulk"}}
	if _, err := replay.Run(sc, o); err == nil {
		t.Fatal("t=0 policy change accepted")
	} else if err2 := err; !strings.Contains(err2.Error(), "t=0") {
		t.Fatalf("t=0 rejection does not say why: %v", err2)
	}

	sc = dynScenario(t, false)
	sc.SLO = &qos.SLO{Class: "nope", TargetP99: 1000}
	if _, err := replay.Run(sc, o); err == nil {
		t.Fatal("unknown SLO class accepted")
	}
}
