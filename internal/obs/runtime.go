package obs

import (
	"math"
	"runtime/metrics"

	"robustperiod/internal/registry"
)

// Runtime gauges sourced from the runtime/metrics package. A scrape
// does a single metrics.Read into a buffer of its own, so concurrent
// scrapes (/metrics next to /debug/vars) share nothing, and renders
// straight into the exposition, no intermediate maps.

// runtimeSamples are the runtime/metrics keys scraped per exposition.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// WriteRuntimeProm samples the runtime and emits the rp_go_* gauge
// families.
func WriteRuntimeProm(p *PromWriter) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	get := func(name string) metrics.Sample {
		for _, s := range samples {
			if s.Name == name {
				return s
			}
		}
		return metrics.Sample{}
	}
	gauge := func(promName, help, key string) {
		s := get(key)
		var v float64
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v = s.Value.Float64()
		default:
			return // bad/unavailable on this runtime: omit the family
		}
		//lint:ignore rplint/registry promName is forwarded verbatim from the registry constants below
		p.Family(promName, help, "gauge")
		p.Sample(promName, nil, v)
	}
	gauge(registry.MetricGoGoroutines, "Current number of live goroutines.",
		"/sched/goroutines:goroutines")
	gauge(registry.MetricGoHeapObjectsBytes, "Bytes of memory occupied by live heap objects.",
		"/memory/classes/heap/objects:bytes")
	gauge(registry.MetricGoMemoryTotalBytes, "All memory mapped by the Go runtime.",
		"/memory/classes/total:bytes")
	gauge(registry.MetricGoGCCyclesTotal, "Completed GC cycles since process start.",
		"/gc/cycles/total:gc-cycles")
	gauge(registry.MetricGoHeapAllocsBytes, "Cumulative bytes allocated on the heap.",
		"/gc/heap/allocs:bytes")

	histGauges := func(promName, help, key string) {
		s := get(key)
		if s.Value.Kind() != metrics.KindFloat64Histogram {
			return
		}
		// Buckets are the len(Counts)+1 bucket edges, -Inf first and
		// +Inf last; the finite upper bounds are the ones in between.
		h := s.Value.Float64Histogram()
		bounds, counts := h.Buckets[1:], h.Counts
		if n := len(bounds); n > 0 && math.IsInf(bounds[n-1], 1) {
			bounds = bounds[:n-1]
		} else {
			counts = append(counts[:len(counts):len(counts)], 0)
		}
		//lint:ignore rplint/registry promName is forwarded verbatim from the registry constants below
		p.Family(promName, help, "gauge")
		p.QuantileGauges(promName, nil, BucketQuantiles(bounds, counts))
	}
	histGauges(registry.MetricGoGCPauseSeconds, "Distribution of stop-the-world GC pause latencies (quantiles).",
		"/gc/pauses:seconds")
	histGauges(registry.MetricGoSchedLatencySeconds, "Distribution of goroutine scheduling latencies (quantiles).",
		"/sched/latencies:seconds")
}
