package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one metric. BENCHMARK.json carries the same lists; a
// unit test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system would feel, defined for
// every workload (README.md says what one "operation" is on each). They
// are measured with tracing off and gated by the bounds in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"restart_ms", "ms"},
}

// perLayer are the ledger's metrics, prefix = module. A metric that a
// workload does not exercise reads 0 there, which is itself the "should
// not move" prediction of README.md.
var perLayer = []metricDef{
	{"client.samples", "count"},
	{"client.op_p50_ms", "ms"},
	{"client.op_p99_ms", "ms"},
	{"client.op_p999_ms", "ms"},
	{"client.op_max_ms", "ms"},
	{"client.op_tail_pct", "%"},
	{"client.op_tail_ms", "ms"},
	{"client.trace_overhead_frac", "frac"},
	{"client.trace_sum_frac", "frac"},
	{"client.trace_incomplete_frac", "frac"},
	{"client.cpu_calib_drift_frac", "frac"},
	{"client.unsteady", "count"},
	{"client.peak_rss_mb", "MB"},
	{"client.goroutine_leak", "count"},
	{"client.ladder_fn_us", "us"},

	{"jobservice.submit_p50_ms", "ms"},
	{"jobservice.submit_rtt_p50_ms", "ms"},
	{"jobservice.accept_p50_ms", "ms"},
	{"jobservice.queue_p50_ms", "ms"},
	{"jobservice.queue_p90_ms", "ms"},
	{"jobservice.complete_p50_ms", "ms"},
	{"jobservice.notify_p50_ms", "ms"},
	{"jobservice.inproc_roundtrip_us", "us"},
	{"jobservice.self_us", "us"},
	{"jobservice.http_self_us", "us"},
	{"jobservice.stream_lines_per_job", "count"},
	{"jobservice.retained_bytes_per_job", "B"},
	{"jobservice.refused", "count"},

	{"durable.fsyncs_per_job", "count"},
	{"durable.records_per_job", "count"},
	{"durable.journal_bytes_per_job", "B"},
	{"durable.snapshots", "count"},
	{"durable.append_p50_ms", "ms"},
	{"durable.append_p90_ms", "ms"},
	{"durable.append_nosync_us", "us"},
	{"durable.raw_fsync_ms", "ms"},
	{"durable.self_ms", "ms"},
	{"durable.open_ms_per_kjob", "ms"},
	{"durable.compact_ms", "ms"},

	{"taskfabric.roundtrip_us", "us"},
	{"taskfabric.self_us", "us"},
	{"taskfabric.dispatch_p50_us", "us"},
	{"taskfabric.remote_p50_ms", "ms"},
	{"taskfabric.group_makespan_ms", "ms"},
	{"taskfabric.steals_per_kjob", "count"},
	{"taskfabric.peer_steals_per_kjob", "count"},
	{"taskfabric.brokered_fallbacks", "count"},
	{"taskfabric.resends", "count"},
	{"taskfabric.local_task_frac", "frac"},
	{"taskfabric.rmem_bytes_per_job", "B"},

	{"mcapi.pkt_roundtrip_us", "us"},
	{"mcapi.self_us", "us"},
	{"mtapi.start_wait_us", "us"},

	{"offload.codec_us", "us"},
	{"offload.region_p50_ms", "ms"},
	{"offload.parallel_for_ms", "ms"},
	{"offload.chunks_per_region", "count"},
	{"offload.local_chunk_frac", "frac"},
	{"offload.resends", "count"},

	{"mrapi.rmem_write_read_us", "us"},
	{"mrapi.rmem_us_per_kib", "us"},
	{"mrapi.mutex_pair_ns", "ns"},
	{"syncq.wait_signal_ns", "ns"},

	{"core.mca_native_ratio", "ratio"},
	{"core.native_mix_per_s", "1/s"},
	{"core.parallel_us", "us"}, {"core.parallel_ratio", "ratio"},
	{"core.for_us", "us"}, {"core.for_ratio", "ratio"},
	{"core.barrier_us", "us"}, {"core.barrier_ratio", "ratio"},
	{"core.critical_us", "us"}, {"core.critical_ratio", "ratio"},
	{"core.single_us", "us"}, {"core.single_ratio", "ratio"},
	{"core.reduction_us", "us"}, {"core.reduction_ratio", "ratio"},
	{"core.task_us", "us"}, {"core.task_ratio", "ratio"},
	{"core.lease_hit_frac", "frac"},
	{"core.task_steals_per_kmix", "count"},
}

// metrics is one run's named values.
type metrics map[string]float64

// complete checks that m holds exactly the metrics of defs, filling the
// ones a workload does not exercise with 0 when fill is set.
func (m metrics) complete(defs []metricDef, fill bool) error {
	known := make(map[string]bool, len(defs))
	var missing []string
	for _, d := range defs {
		known[d.name] = true
		if _, ok := m[d.name]; !ok {
			if fill {
				m[d.name] = 0
			} else {
				missing = append(missing, d.name)
			}
		}
	}
	var extra []string
	for name := range m {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing [%s], undeclared [%s]", strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return nil
}
