package experiments

import (
	"fmt"
	"strings"

	"hams/internal/qos"
	"hams/internal/sim"
	"hams/internal/stats"
)

// This file hosts the `autoqos` target: the dynamic-QoS closed loop
// against the static policy sweep. The same stream+latency co-location
// scenario as the `qos` target runs under five policies — the four
// static CLOS tables (shared/cat/mba/cat+mba, numerically identical to
// the `qos` target's cells since the seeds derive from the same key)
// plus "auto": an initially partitioned table driven by the SLO
// feedback controller (internal/qos.Controller), which adapts the
// streamer's way mask and bandwidth cap at runtime to hold the
// service's rolling p99 at the target while letting the streamer draw
// every MB/s the target tolerates.
//
// The auto cell's extras carry the controller trajectory (reconfig
// count, final mask/cap per class); AutoQoSMarkdown renders the
// controller-vs-static delta table for CI step summaries. The CI
// acceptance relation — auto victim p99 ≤ the best static policy's
// while auto aggressor units/s strictly exceeds static cat+mba — is
// pinned by TestAutoQoSAcceptance.

// autoVariantName labels the feedback-controlled cell.
const autoVariantName = "auto"

// Built-in SLO for the auto cell (CLI-overridable target via
// -slo-p99). The initial table starts fully partitioned — the service
// holds 7 of 8 ways, the streamer 1, uncapped — and the controller
// meters the streamer's archive bandwidth from there: the victim's
// working set fits its partition, so its tail is pure bank/archive
// contention, exactly the axis an MBA cap controls.
const (
	autoVictimMask    = 0xfe
	autoAggressorMask = 0x01
	// autoSLOTargetP99 is the default rolling-p99 objective, sized
	// between the cat+mba tail floor (~3.3µs at bench scale) and the
	// cat-only tail (~9µs) of the built-in scenario: tight enough that
	// the controller clamps the streamer's bursts (holding the victim's
	// full-run p99 under every static policy's), loose enough that the
	// cap recovers to MaxMBps between bursts instead of oscillating.
	autoSLOTargetP99 = 6 * sim.Microsecond
)

// autoSLO assembles the controller objective for the auto cell.
func autoSLO(o Options) qos.SLO {
	target := sim.Time(autoSLOTargetP99)
	if o.SLOTargetP99 > 0 {
		target = o.SLOTargetP99
	}
	return qos.SLO{
		Class:     qosVictim,
		TargetP99: target,
		Window:    512,
		MinMBps:   50,
		MaxMBps:   4000,
		AddMBps:   200,
		MinWays:   1,
		Hold:      2,
	}
}

// autoTable is the auto cell's initial CLOS table.
func autoTable() *qos.Table {
	return &qos.Table{Classes: []qos.Class{
		{Name: qosVictim, WayMask: autoVictimMask},
		{Name: qosAggressor, WayMask: autoAggressorMask},
	}}
}

// autoVariant is the auto cell: the initially partitioned table under
// the SLO feedback controller.
func autoVariant(o Options) qosVariant {
	slo := autoSLO(o)
	return qosVariant{name: autoVariantName, qos: autoTable(), slo: &slo}
}

// autoQoSCell runs the feedback-controlled variant.
func autoQoSCell(o Options, seed int64) (qosOut, error) {
	return qosCell(o, autoVariant(o), seed)
}

// AutoQoS runs the dynamic-vs-static sweep (console tables only).
func AutoQoS(o Options) ([]*stats.Table, error) {
	tables, _, err := AutoQoSWithSummary(o)
	return tables, err
}

// AutoQoSWithSummary runs the sweep and also renders the markdown
// controller-vs-static delta table for CI step summaries.
func AutoQoSWithSummary(o Options) ([]*stats.Table, string, error) {
	outs, err := qosSweep(o, "autoqos", append(qosVariants(o), autoVariant(o)))
	if err != nil {
		return nil, "", err
	}
	t := stats.NewTable("AutoQoS: SLO feedback control vs static CLOS policies",
		"scenario", "policy", "tenant", "p50", "p95", "p99", "occ(pages)", "fill MB/s", "throttled", "units/s", "reconfigs")
	for _, q := range outs {
		for _, ten := range q.rep.Tenants {
			t.AddRow(q.rep.Scenario, q.variant, ten.Name,
				fmt.Sprintf("%dns", ten.P50), fmt.Sprintf("%dns", ten.P95), fmt.Sprintf("%dns", ten.P99),
				fmt.Sprint(ten.QoS.Occupancy),
				stats.F(ten.QoS.FillMBps(q.rep.CPU.Elapsed)),
				fmt.Sprintf("%v", ten.QoS.ThrottleNS),
				"", "")
		}
		t.AddRow(q.rep.Scenario, q.variant, "(all)", "", "", "", "", "", "",
			fmt.Sprintf("%.0f", q.rep.UnitsPerSec()),
			fmt.Sprint(q.rep.QoSReconfigs))
	}
	return []*stats.Table{t}, AutoQoSMarkdown(outs), nil
}

// AutoQoSMarkdown renders the controller-vs-static delta table: the
// victim's tail under every policy next to the aggressor's progress,
// with the controller's trajectory on the auto row.
func AutoQoSMarkdown(outs []qosOut) string {
	var auto *qosOut
	for i := range outs {
		if outs[i].variant == autoVariantName {
			auto = &outs[i]
		}
	}
	var b strings.Builder
	b.WriteString("### AutoQoS: SLO feedback control vs static policies\n\n")
	if auto == nil || len(outs) == 0 {
		b.WriteString("No feedback-controlled cell recorded.\n")
		return b.String()
	}
	autop99 := tenantStat(auto.rep, qosVictim).P99
	b.WriteString("| policy | victim p99 | Δp99 vs auto | aggressor units | aggressor fill MB/s | reconfigs | final streamer cap |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	for _, q := range outs {
		vict := tenantStat(q.rep, qosVictim)
		aggr := tenantStat(q.rep, qosAggressor)
		delta := "—"
		if q.variant != autoVariantName && autop99 > 0 {
			delta = fmt.Sprintf("%+.1f%%", (float64(vict.P99)-float64(autop99))/float64(autop99)*100)
		}
		reconfigs, finalCap := "—", "—"
		if q.variant == autoVariantName {
			reconfigs = fmt.Sprint(q.rep.QoSReconfigs)
			for _, cl := range q.rep.QoSFinal {
				if cl.Name == qosAggressor {
					if cl.MBps > 0 {
						finalCap = fmt.Sprintf("%.0f MB/s", cl.MBps)
					} else {
						finalCap = "uncapped"
					}
				}
			}
		}
		fmt.Fprintf(&b, "| %s | %dns | %s | %d | %.0f | %s | %s |\n",
			q.variant, vict.P99, delta, aggr.Units,
			aggr.QoS.FillMBps(q.rep.CPU.Elapsed), reconfigs, finalCap)
	}
	return b.String()
}
