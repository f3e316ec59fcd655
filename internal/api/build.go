package api

import (
	"fmt"

	"hams/internal/core"
	"hams/internal/core/tagstore"
	"hams/internal/experiments"
	"hams/internal/platform"
	"hams/internal/qos"
	"hams/internal/replay"
	"hams/internal/sim"
)

// The builders in this file turn a validated JobSpec into the engine's
// native option structs. They are the extracted common half of what
// each CLI used to assemble from its flags inline — hamssim, hamstrace
// and hamsbench now build a JobSpec and call these, so a flag set and
// a JSON body are literally one construction path. Call Validate
// first; the builders still surface parse errors rather than panic,
// but they do not re-check cross-field rules.

// PlatformOptions builds the platform option set of a run or scenario
// job: one edit of the HAMS controller configuration that carries
// every knob the spec sets (zero keeps the variant's default). This is
// the one place a JobSpec knob maps onto core.Config. For run jobs a
// single-class QoS budget (qos_masks/qos_mbps with one name) becomes a
// one-class table bounding the whole workload, the hamssim
// -qos-mask/-qos-mbps semantics.
func (s JobSpec) PlatformOptions() (platform.Options, error) {
	pol, err := tagstore.ParsePolicy(s.Policy)
	if err != nil {
		return platform.Options{}, fmt.Errorf("api: policy: %w", err)
	}
	var table *qos.Table
	var timeline []qos.TimedChange
	if s.Kind == KindRun {
		cls, err := s.runClass()
		if err != nil {
			return platform.Options{}, err
		}
		if cls == nil && len(s.QoSPolicy) > 0 {
			// A timeline with no static budget still needs the class to
			// exist: the policy's class name defines a full-mask,
			// unthrottled class for the changes to reprogram.
			cls = &qos.Class{Name: s.QoSPolicy[0].Class}
		}
		if cls != nil {
			table = &qos.Table{Classes: []qos.Class{*cls}}
		}
		if len(s.QoSPolicy) > 0 {
			timeline, err = s.qosTimeline(func(name string) (qos.ClassID, bool) {
				return 0, cls != nil && name == cls.Name
			})
			if err != nil {
				return platform.Options{}, err
			}
		}
	}
	return platform.Options{HAMS: func(c *core.Config) {
		if s.PageBytes != 0 {
			c.PageBytes = s.PageBytes
		}
		if s.Ways != 0 {
			c.Ways = s.Ways
		}
		if s.Banks != 0 {
			c.Banks = s.Banks
		}
		c.Replacement = pol
		if s.MSHRs != 0 {
			c.MSHRs = s.MSHRs
		}
		if s.QueueDepth != 0 {
			c.QueueDepth = s.QueueDepth
		}
		if s.NVDIMM != 0 {
			c.SetNVDIMMBytes(s.NVDIMM)
		}
		c.QoS = table
		c.QoSPolicy = timeline
	}}, nil
}

// qosTimeline resolves the wire policy schedule into qos.TimedChange
// entries via the given class-name resolver.
func (s JobSpec) qosTimeline(byName func(string) (qos.ClassID, bool)) ([]qos.TimedChange, error) {
	out := make([]qos.TimedChange, len(s.QoSPolicy))
	for i, ch := range s.QoSPolicy {
		id, ok := byName(ch.Class)
		if !ok {
			return nil, fmt.Errorf("api: qos_policy[%d]: unknown QoS class %q", i, ch.Class)
		}
		mask, err := qos.ParseMask(ch.WayMask)
		if err != nil {
			return nil, fmt.Errorf("api: qos_policy[%d].way_mask: %w", i, err)
		}
		out[i] = qos.TimedChange{At: sim.Time(ch.AtNS), Class: id, Mask: mask, MBps: ch.MBps}
	}
	return out, nil
}

// runClass folds a run job's single-name qos_masks/qos_mbps entries
// into one qos.Class, or nil when neither bounds anything (an explicit
// empty/"full" mask with no throttle is the unbounded default, exactly
// as hamssim treats its flag defaults).
func (s *JobSpec) runClass() (*qos.Class, error) {
	name := ""
	for _, n := range qos.AssignmentNames(s.QoSMasks) {
		name = n
	}
	for n := range s.QoSMBps {
		name = n
	}
	if name == "" {
		return nil, nil
	}
	mask, err := qos.ParseMask(s.QoSMasks[name])
	if err != nil {
		return nil, fmt.Errorf("api: qos_masks: %w", err)
	}
	mbps := s.QoSMBps[name]
	if mask == 0 && mbps <= 0 {
		return nil, nil
	}
	return &qos.Class{Name: name, WayMask: mask, MBps: mbps}, nil
}

// qosTable builds a scenario job's CLOS table (nil when the spec
// declares no classes: unpartitioned sharing).
func (s JobSpec) qosTable() (*qos.Table, error) {
	if len(s.QoS) == 0 {
		return nil, nil
	}
	t := &qos.Table{Classes: make([]qos.Class, len(s.QoS))}
	for i, c := range s.QoS {
		mask, err := qos.ParseMask(c.WayMask)
		if err != nil {
			return nil, fmt.Errorf("api: qos[%d].way_mask: %w", i, err)
		}
		t.Classes[i] = qos.Class{Name: c.Name, WayMask: mask, MBps: c.MBps}
	}
	return t, nil
}

// Scenario materializes a scenario job: trace references resolve
// through tr, a checkpoint reference resolves through cr (nil cr
// fails any checkpoint-backed spec), and a sole unnamed trace tenant
// expands to one tenant per recorded label (replay.FromFile — the
// hamstrace-replay shape).
func (s JobSpec) Scenario(tr TraceResolver, cr CheckpointResolver) (replay.Scenario, error) {
	popt, err := s.PlatformOptions()
	if err != nil {
		return replay.Scenario{}, err
	}
	table, err := s.qosTable()
	if err != nil {
		return replay.Scenario{}, err
	}
	sc := replay.Scenario{
		Name:     s.Name,
		Platform: s.Platform,
		PlatOpts: popt,
		QoS:      table,
		Warmup:   s.Warmup,
	}
	if sc.Name == "" {
		sc.Name = "scenario"
	}
	if s.Checkpoint != "" {
		if cr == nil {
			return replay.Scenario{}, fmt.Errorf("api: no checkpoint resolver for %q", s.Checkpoint)
		}
		img, err := cr.Checkpoint(s.Checkpoint)
		if err != nil {
			return replay.Scenario{}, fmt.Errorf("api: checkpoint: %w", err)
		}
		sc.Checkpoint = img
	}
	for i, ch := range s.QoSPolicy {
		mask, err := qos.ParseMask(ch.WayMask)
		if err != nil {
			return replay.Scenario{}, fmt.Errorf("api: qos_policy[%d].way_mask: %w", i, err)
		}
		sc.Policy = append(sc.Policy, replay.PolicyChange{
			At: sim.Time(ch.AtNS), Class: ch.Class, Mask: mask, MBps: ch.MBps,
		})
	}
	if s.SLO != nil {
		sc.SLO = &qos.SLO{Class: s.SLO.Class, TargetP99: sim.Time(s.SLO.TargetP99NS)}
	}
	for i, t := range s.Tenants {
		if t.Trace == "" {
			sc.Tenants = append(sc.Tenants, replay.Tenant{
				Name:     t.Name,
				Workload: t.Workload,
				Seed:     t.Seed,
				Class:    t.Class,
				Base:     t.Base,
				Scale:    t.Scale,
				Hot:      t.HotBytes,
				HotFrac:  t.HotFrac,
			})
			continue
		}
		if tr == nil {
			return replay.Scenario{}, fmt.Errorf("api: tenants[%d]: no trace resolver for %q", i, t.Trace)
		}
		tf, err := tr.Trace(t.Trace)
		if err != nil {
			return replay.Scenario{}, fmt.Errorf("api: tenants[%d]: %w", i, err)
		}
		if t.Name == "" {
			// The unnamed sole-tenant form: the container's own labels
			// name the tenants. Class/Base still apply to every one.
			for _, exp := range replay.FromFile(tf) {
				exp.Class = t.Class
				exp.Base = t.Base
				sc.Tenants = append(sc.Tenants, exp)
			}
			continue
		}
		sc.Tenants = append(sc.Tenants, replay.Tenant{
			Name:       t.Name,
			Trace:      tf,
			TraceLabel: t.TraceLabel,
			Class:      t.Class,
			Base:       t.Base,
		})
	}
	return sc, nil
}

// ExperimentOptions builds the harness options of a job. Zero scale
// and seed map to the harness defaults (3e-6, 42) — the same defaults
// every CLI flag set carries.
func (s JobSpec) ExperimentOptions() (experiments.Options, error) {
	o := experiments.DefaultOptions()
	if s.Scale > 0 {
		o.Scale = s.Scale
	}
	if s.Seed != 0 {
		o.Seed = s.Seed
	}
	o.Parallel = s.Parallel
	o.MSHRs = s.MSHRs
	if s.SLO != nil {
		o.SLOTargetP99 = sim.Time(s.SLO.TargetP99NS)
	}
	if s.Kind == KindTarget {
		// Target jobs thread qos_masks/qos_mbps through to the qos
		// target as policy overrides rather than a platform table.
		if len(s.QoSMasks) > 0 {
			masks := make(map[string]uint64, len(s.QoSMasks))
			for name, v := range s.QoSMasks {
				m, err := qos.ParseMask(v)
				if err != nil {
					return o, fmt.Errorf("api: qos_masks: class %q: %w", name, err)
				}
				masks[name] = m
			}
			o.QoSMasks = masks
		}
		if len(s.QoSMBps) > 0 {
			mbps := make(map[string]float64, len(s.QoSMBps))
			for name, v := range s.QoSMBps {
				mbps[name] = v
			}
			o.QoSMBps = mbps
		}
	}
	return o, nil
}
