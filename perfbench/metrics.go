package main

// metricDef names one reported metric and its unit. The two lists are
// the benchmark's contract: BENCHMARK.json at the repository root
// declares the same names and units in the same order (pinned by
// TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd is reported by every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_host_s", "1/s"},
	{"job_p50_s", "s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"sim_units_per_s", "1/s"},
}

// hostBuckets are the host-profile attribution buckets: the simulator
// packages under hams/internal, plus gc (background collection) and
// other (everything with no simulator frame).
var hostBuckets = []string{
	"cpu", "core", "qos", "dram", "nvme", "ssd", "ftl", "flash", "mem",
	"sim", "bus", "pcie", "energy", "osmodel", "platform", "replay",
	"workload", "stats", "checkpoint", "trace", "api", "runner", "report",
	"experiments", "gc", "other",
}

// perLayer is reported by every workload with tracing on; a layer the
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range hostBuckets {
		defs = append(defs, metricDef{"host." + b + "_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"host.alloc_bytes_per_unit", "B"},
		metricDef{"host.gc_cycles", "count"},
		metricDef{"host.trace_overhead", "ratio"},

		metricDef{"api.validate_s", "s"},
		metricDef{"api.execute_s.colocate", "s"},
		metricDef{"api.execute_s.rndSel", "s"},
		metricDef{"api.execute_s.update", "s"},
		metricDef{"api.execute_s.run", "s"},
		metricDef{"api.execute_s.scenario", "s"},
		metricDef{"api.execute_s.trace", "s"},
		metricDef{"api.execute_s.restore", "s"},
		metricDef{"replay.warmup_s", "s"},
		metricDef{"checkpoint.encode_s", "s"},
		metricDef{"checkpoint.decode_s", "s"},
		metricDef{"trace.record_s", "s"},

		metricDef{"hamsd.submit_s", "s"},
		metricDef{"hamsd.queue_wait_p95_s", "s"},
		metricDef{"hamsd.run_p50_s", "s"},
		metricDef{"hamsd.stream_tail_s", "s"},
		metricDef{"hamsd.upload_s.trace", "s"},
		metricDef{"hamsd.upload_s.checkpoint", "s"},
		metricDef{"hamsd.metrics_scrape_s", "s"},
		metricDef{"hamsd.rss_growth_mb", "MB"},

		metricDef{"cpu.l1_hit_rate", "ratio"},
		metricDef{"cpu.l2_hit_rate", "ratio"},
		metricDef{"cpu.tlb_hit_rate", "ratio"},
		metricDef{"cpu.mem_stall_s", "s"},
		metricDef{"cpu.overlap_stall_s", "s"},
		metricDef{"cpu.throttle_stall_s", "s"},

		metricDef{"core.hit_rate", "ratio"},
		metricDef{"core.evictions", "count"},
		metricDef{"core.waitq", "count"},
		metricDef{"core.coalesced", "count"},
		metricDef{"core.hit_under_miss", "count"},
		metricDef{"core.mshr_stalls", "count"},
		metricDef{"core.peak_qd", "count"},
		metricDef{"core.nvdimm_s", "s"},
		metricDef{"core.dma_s", "s"},
		metricDef{"core.ssd_s", "s"},
		metricDef{"core.wait_s", "s"},
		metricDef{"core.throttle_s", "s"},

		metricDef{"ssd.buffer_hit_rate", "ratio"},
		metricDef{"ftl.gc_runs", "count"},
		metricDef{"ftl.write_amp", "ratio"},
		metricDef{"flash.reads", "count"},
		metricDef{"flash.programs", "count"},
		metricDef{"flash.erases", "count"},
		metricDef{"flash.die_busy_s", "s"},

		metricDef{"qos.reconfigs", "count"},
	)
	for _, cls := range []string{classLatency, classStream} {
		defs = append(defs,
			metricDef{"qos." + cls + ".occupancy", "count"},
			metricDef{"qos." + cls + ".fill_mb", "MB"},
			metricDef{"qos." + cls + ".wb_mb", "MB"},
			metricDef{"qos." + cls + ".throttle_s", "s"},
		)
	}
	// End-to-end figures that apply to one workload only. The result
	// line must carry every end-to-end metric on every workload, so
	// these ride in the traced ledger (0 where they do not apply).
	defs = append(defs,
		metricDef{"job_p95_s", "s"},
		metricDef{"failed_frac", "ratio"},
		metricDef{"sim_victim_p99_ns", "ns"},
	)
	return defs
}()

// unitOf returns the declared unit of a metric name ("" if unknown).
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
