package main

import (
	"slices"

	"repro/internal/trace"
)

// metric describes one reported number. The tables below are the single
// source of the names: BENCHMARK.json and README.md are checked against
// them by the tests.
type metric struct {
	name   string
	unit   string
	clock  string  // "sim" (simulated, bit-identical per seed) or "host" (CPU time of the process, Go runtime)
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
}

// endToEnd is what a user of the system sees on every workload.
var endToEnd = []metric{
	{name: "sim_kiops", unit: "kiops", clock: "sim", better: "higher", bound: 0.03},
	{name: "sim_p50_us", unit: "us", clock: "sim", better: "lower", bound: 0.10},
	{name: "sim_p99_us", unit: "us", clock: "sim", better: "lower", bound: 0.10},
	{name: "sim_init_cpu_us_per_op", unit: "us", clock: "sim", better: "lower", bound: 0.03},
	{name: "sim_tgt_cpu_us_per_op", unit: "us", clock: "sim", better: "lower", bound: 0.03},
	{name: "host_ns_per_op", unit: "ns", clock: "host", better: "lower", bound: 0.15},
	{name: "go_allocs_per_op", unit: "count", clock: "host", better: "lower", bound: 0.02},
	{name: "go_bytes_per_op", unit: "B", clock: "host", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", clock: "host", better: "lower", bound: 0.25},
}

// endToEndOnOne are the end-to-end metrics that exist on one workload:
// the first two on openloop_knee, the last on crash_recover. The report
// prints them in that workload's end-to-end table and -selfcheck holds them
// to their bounds. The driver's contract wants every end_to_end name on
// every workload and never 0, so BENCHMARK.json lists them under
// per_layer, where a number a workload does not produce reads 0.
var endToEndOnOne = []metric{
	{name: "sim_p99_us.o800", unit: "us", clock: "sim", better: "lower", bound: 0.25},
	{name: "sim_max_kiops_in_slo", unit: "kiops", clock: "sim", better: "higher", bound: 0.01},
	{name: "sim_recovery_ms", unit: "ms", clock: "sim", better: "lower", bound: 0.05},
}

// allEndToEnd is both tables, in report order.
func allEndToEnd() []metric { return append(slices.Clone(endToEnd), endToEndOnOne...) }

// simMetric reports whether an end-to-end metric is on the simulated
// clock and so must repeat bit for bit for a seed.
func (m metric) simMetric() bool { return m.clock == "sim" }

func lower(unit, clock string, names ...string) []metric {
	var out []metric
	for _, n := range names {
		out = append(out, metric{name: n, unit: unit, clock: clock, better: "lower"})
	}
	return out
}

func higher(unit, clock string, names ...string) []metric {
	var out []metric
	for _, n := range names {
		out = append(out, metric{name: n, unit: unit, clock: clock, better: "higher"})
	}
	return out
}

// uncalibrated is the host clock as read (see yardstick.go): CPU time and
// wall time of the measure windows per op, and the CPU time of one
// yardstick round trip around them. host_ns_per_op is the first scaled,
// step by step, by the third.
var uncalibrated = lower("ns", "host", "host.cpu_ns_per_op", "host.wall_ns_per_op", "host.yardstick_ns")

// perLayer is every single-layer number, not gated. ".ns"/".allocs"/
// ".host_ns" come from the timed loops in layers.go (workload
// independent); the rest are window deltas, tracer output or profile
// shares of the workload at hand.
var perLayer = func() []metric {
	var m []metric
	add := func(ms []metric) { m = append(m, ms...) }
	add(lower("ns", "host", "sim.at_run.ns", "sim.proc_sleep.ns", "sim.queue_handoff.ns",
		"sim.resource_use.ns", "sim.cond_signal.ns"))
	add(lower("count", "host", "sim.at_run.allocs", "sim.proc_sleep.allocs"))
	add(lower("ns", "host", "order.gate_inorder.ns", "order.gate_park_drain.ns",
		"order.slot_retire.ns", "order.quorum_ack.ns"))
	add(lower("count", "sim", "order.holdbacks_per_kcmd", "order.gate_audit"))
	add(lower("ns", "host", "nvmeof.attr_roundtrip.ns", "nvmeof.vector8_encode_check.ns",
		"nvmeof.cqevector8_encode_check.ns"))
	add(lower("ns", "host", "core.log_append_persist_retire.ns", "core.seq_submit_complete.ns",
		"core.merge_split.ns", "core.scan_region.ns_per_entry", "core.analyze.ns_per_entry"))
	add(lower("count", "host", "core.seq_submit_complete.allocs"))
	add(lower("count", "sim", "core.pmr_appends_per_cmd", "core.pmr_toggles_per_cmd"))
	add(lower("ns", "host", "blockdev.extents.ns", "blockdev.fuserun16.ns"))
	add(lower("count", "host", "blockdev.extents.allocs"))
	add(lower("ns", "host", "fabric.send_deliver.ns", "ssd.write_complete.ns"))
	add(lower("count", "host", "fabric.send_deliver.allocs", "ssd.write_complete.allocs"))
	add(higher("share", "sim", "ssd.channel_util"))
	add(lower("count", "sim", "ssd.writes_per_op", "ssd.flushes_per_kop"))
	add(lower("share", "sim", "ssd.flush_busy_share"))
	add(lower("us", "sim", "ssd.sat_stall_us_per_op"))
	add(lower("ns", "host", "metrics.hist_record.ns", "metrics.hist_p99.ns", "trace.span_cycle.ns"))
	add(lower("count", "host", "trace.span_cycle.allocs"))
	add(lower("%", "host", "trace.host_overhead_pct"))
	add(higher("share", "sim", "trace.budget_p99_ratio"))
	add(higher("count", "sim", "trace.sampled"))
	add(higher("count", "sim", "stack.batch_occupancy", "stack.cqe_batch_occupancy"))
	add(lower("count", "sim", "stack.completion_msgs_per_op", "stack.tx_msgs_per_op"))
	add(lower("B", "sim", "stack.tx_bytes_per_op"))
	add(lower("count", "sim", "stack.wire_cmds_per_op"))
	add(higher("share", "sim", "stack.fused_share", "stack.pool_hit_rate"))
	add(lower("ns", "sim", "stack.reap_cpu_ns_per_op"))
	add(lower("count", "sim", "stack.submit_stalls_per_kop", "stack.gov_switches"))
	add(higher("share", "sim", "stack.rcache_hit_rate"))
	add(lower("count", "sim", "stack.rcache_evictions_per_kop"))
	add(higher("share", "sim", "stack.readahead_hit_share"))
	add(lower("count", "sim", "stack.relay_agg_fires_per_op"))
	for i := 0; i < trace.NumStages; i++ {
		add(lower("us", "sim", "stage."+trace.StageName(i)+".p99_us"))
	}
	for w := trace.Wait(0); w < trace.NumWaits; w++ {
		add(lower("us", "sim", "wait."+trace.WaitName(w)+".us_per_op"))
	}
	add(lower("ns", "host", "fs.append_fsync.host_ns"))
	add(lower("count", "host", "fs.append_fsync.allocs"))
	add(lower("us", "sim", "fs.fsync.ddispatch_us", "fs.fsync.jmdispatch_us",
		"fs.fsync.jcdispatch_us", "fs.fsync.waitio_us"))
	add(lower("ns", "host", "kv.put.host_ns", "kv.get_hit.host_ns", "kv.get_absent.host_ns"))
	add(lower("us", "sim", "kv.put_p99_us", "kv.get_p99_us"))
	add(higher("share", "sim", "kv.bloom_negative_share"))
	add(lower("ns", "host", "rio.write_wait.host_ns"))
	add(lower("count", "host", "rio.write_wait.allocs"))
	add(lower("us", "sim", "bench.submit_call.p99_us", "bench.wait_call.p99_us"))
	add(lower("us", "sim", "loadgen.lateness_us"))
	add(lower("us", "sim", "knee.p99_us.o1000", "knee.p99_us.o1200"))
	add(higher("kiops", "sim", "knee.kiops.o1200"))
	for _, b := range hostShareNames {
		add(lower("share", "host", "host_share."+b))
	}
	add(higher("kiops", "sim", "ref.orderless_kiops", "ref.horae_kiops", "ref.linux_kiops"))
	add(uncalibrated)
	return m
}()
