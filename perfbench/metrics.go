package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; the tests keep the two in step.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are printed by every -trace 0 run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"success_ratio", "ratio"},
	{"period_f1", "ratio"},
	{"max_rss_mb", "MB"},
}

// perLayerMetrics are printed by every -trace 1 run. A layer the
// workload never calls reports 0 (see notExercised).
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"core.detect_ms", "ms"},
		{"core.children_ms", "ms"},
		{"core.allocs_per_series", "count"},
		{"core.alloc_bytes_per_series", "B"},
		{"core.levels_selected", "count"},
		{"core.series", "count"},
		{"hp.detrend_ms", "ms"},
		{"wavelet.modwt_ms", "ms"},
		{"wavelet.ranking_ms", "ms"},
		{"detect.single_ms", "ms"},
		{"detect.calls_per_series", "count"},
		{"spectrum.periodogram_ms", "ms"},
		{"spectrum.solver_iters", "count"},
		{"spectrum.prefilter_skips", "count"},
		{"spectrum.warm_hits", "count"},
		{"spectrum.passband_bins", "count"},
		{"spectrum.prefilter_skip_ratio", "ratio"},
		{"fft.autocorr_ms", "ms"},
	}
	for _, n := range fftLengths {
		defs = append(defs, metricDef{fmt.Sprintf("fft.real_us.%d", n), "us"})
	}
	return append(defs, []metricDef{
		{"serve.requests", "count"},
		{"serve.request_ms", "ms"},
		{"serve.outside_handler_ms", "ms"},
		{"serve.cache_lookups", "count"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.alloc_bytes_per_request", "B"},
		{"serve.gc_cycles_per_1k_requests", "count"},
		{"jobs.submitted", "count"},
		{"jobs.queue_wait_ms", "ms"},
		{"jobs.exec_ms", "ms"},
		{"jobs.server_elapsed_ms", "ms"},
		{"jobs.coalesce_ratio", "ratio"},
		{"jobs.polls_per_job", "count"},
		{"wal.append_ms", "ms"},
		{"wal.fsync_ms", "ms"},
		{"wal.appends_per_job", "count"},
		{"wal.bytes_per_job", "B"},
		{"wal.fsyncs_per_s", "1/s"},
		{"trace_overhead_ratio", "ratio"},
	}...)
}()

// notExercised reports 0 for every per-layer metric under the given
// prefixes: the workload makes no call into those layers.
func notExercised(out map[string]metric, prefixes ...string) {
	for _, d := range perLayerMetrics {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				out[d.name] = metric{0, d.unit}
			}
		}
	}
}

// checkMetrics verifies that out holds exactly the metrics of defs,
// each with its defined unit.
func checkMetrics(out map[string]metric, defs []metricDef) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.name] = d.unit
		m, ok := out[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, defined as %q", d.name, m.Unit, d.unit)
		}
	}
	var extra []string
	for name := range out {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics not defined for this mode: %s", strings.Join(extra, ", "))
	}
	return nil
}
