package serve

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"robustperiod/internal/jobs"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
	"robustperiod/internal/slo"
	"robustperiod/internal/trace"
)

// latencyBucketsMS are the endpoint-histogram bucket upper bounds, in
// milliseconds. The spread covers everything from a cache hit (<1ms)
// to a robust periodogram over a very long series (tens of seconds).
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// stageBucketsMS are the pipeline-stage bucket upper bounds, in
// milliseconds. Stages are one to two orders of magnitude faster than
// whole requests — the HP filter or variance ranking over a modest
// series finishes in tens of microseconds — so the stage histograms
// start at 10µs instead of 1ms; sharing the endpoint buckets would
// collapse most stages into the first bucket and hide every
// regression below a millisecond.
var stageBucketsMS = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 5000}

// histogram is a fixed-bucket latency histogram. Its counts back the
// _bucket/_sum/_count series on /metrics and, through BucketQuantiles,
// the _quantile gauges and the ?debug=1 stage quantiles.
type histogram struct {
	bounds []float64 // upper bounds in milliseconds
	mu     sync.Mutex
	counts []uint64 // one per bucket, plus a final +Inf bucket
	total  uint64
	sumMS  float64
	// ex holds the latest exemplar per bucket (seconds), lazily
	// allocated on the first traced observation so histograms that
	// never see a sampled request stay exemplar-free.
	ex []bucketExemplar
}

// bucketExemplar is the newest sampled observation of one bucket: the
// trace to look at when asking "what does a request in this latency
// band look like".
type bucketExemplar struct {
	traceID string
	value   float64 // seconds, <= the bucket bound by construction
	ts      float64 // unix seconds
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one duration and, when the observation came from a
// sampled request (traceID non-empty), pins its trace ID as the
// bucket's exemplar.
func (h *histogram) Observe(d time.Duration, traceID string) {
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(h.bounds, ms)
	var now time.Time
	if traceID != "" {
		now = time.Now()
	}
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sumMS += ms
	if traceID != "" {
		if h.ex == nil {
			h.ex = make([]bucketExemplar, len(h.counts))
		}
		h.ex[i] = bucketExemplar{
			traceID: traceID,
			value:   ms / 1000,
			ts:      float64(now.UnixMilli()) / 1000,
		}
	}
	h.mu.Unlock()
}

// countUnder reports how many observations landed in buckets bounded
// at or under boundMS, and the total observation count — the latency
// SLO's good/total pair.
func (h *histogram) countUnder(boundMS float64) (under, total float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.bounds {
		if b <= boundMS {
			under += float64(h.counts[i])
		}
	}
	return under, float64(h.total)
}

// snapshot copies the counts and per-bucket exemplars for rendering
// outside the lock; ex is nil when no traced observation ever landed.
func (h *histogram) snapshot() (counts []uint64, total uint64, sumMS float64, ex []obs.Exemplar) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts = make([]uint64, len(h.counts))
	copy(counts, h.counts)
	if h.ex != nil {
		ex = make([]obs.Exemplar, len(h.counts))
		for i, e := range h.ex {
			if e.traceID == "" {
				continue
			}
			ex[i] = obs.Exemplar{
				Labels: []obs.Label{{Name: "trace_id", Value: e.traceID}},
				Value:  e.value,
				Ts:     e.ts,
			}
		}
	}
	return counts, h.total, h.sumMS, ex
}

// metrics aggregates every counter the service exports, as plain
// atomics and histograms owned by one Server, so several servers (in
// tests) never share state. GET /metrics renders them as the text
// exposition, and /debug/vars serves that same exposition as JSON.
type metrics struct {
	endpoint map[string]*endpointStats // fixed at construction
	stageLat map[string]*histogram     // per pipeline stage, fixed at construction
	jobLat   *histogram                // async submit-to-completion latency

	inFlight        atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	panicsRecovered atomic.Int64
	degradedTotal   atomic.Int64 // detections that returned degradation annotations
	tracesSampled   atomic.Int64
	traceSpans      atomic.Int64
	profileCaptures atomic.Int64

	endpoints []string // sorted, for deterministic exposition order
	stages    []string

	// Snapshot hooks into the rest of the server, set by New, for the
	// gauge families of the exposition.
	queueDepth  func() int
	cacheLen    func() int
	corruptions func() int64
	breakers    map[string]*breaker
	jobsMgr     *jobs.Manager
	jobEWMA     func() float64
	tenants     *tenantCounts
	sloStatus   func() []slo.Status
}

// endpointStats is one endpoint's request accounting.
type endpointStats struct {
	requests atomic.Int64 // requests served
	errors   atomic.Int64 // answered with status >= 400
	shed     atomic.Int64 // shed before compute (429 or 503)
	latency  *histogram
}

func newMetrics(endpoints []string, queueDepth, cacheLen func() int) *metrics {
	m := &metrics{
		endpoint:   make(map[string]*endpointStats, len(endpoints)),
		stageLat:   make(map[string]*histogram),
		jobLat:     newHistogram(latencyBucketsMS),
		queueDepth: queueDepth,
		cacheLen:   cacheLen,
	}
	for _, ep := range endpoints {
		m.endpoint[ep] = &endpointStats{latency: newHistogram(latencyBucketsMS)}
		m.endpoints = append(m.endpoints, ep)
	}
	sort.Strings(m.endpoints)
	for _, st := range trace.PipelineStages() {
		m.stageLat[st] = newHistogram(stageBucketsMS)
		m.stages = append(m.stages, st)
	}
	sort.Strings(m.stages)
	return m
}

// observeStages folds one detection's per-stage wall times into the
// stage latency histograms, pinning the sampled request's trace ID as
// each stage bucket's exemplar. Stages outside the canonical pipeline
// set are ignored (the histogram keys are fixed at construction).
func (m *metrics) observeStages(s *trace.Summary, traceID string) {
	if s == nil {
		return
	}
	for _, st := range s.Stages {
		if h, ok := m.stageLat[st.Name]; ok {
			h.Observe(st.Duration, traceID)
		}
	}
}

// annotateStageQuantiles fills a wire trace's per-stage P50/P90/P99
// fields from the server-wide stage histograms, in the milliseconds
// the wire trace speaks.
func (m *metrics) annotateStageQuantiles(ts *TraceSummary) {
	if ts == nil {
		return
	}
	for i := range ts.Stages {
		h, ok := m.stageLat[ts.Stages[i].Stage]
		if !ok {
			continue
		}
		counts, _, _, _ := h.snapshot()
		q := obs.BucketQuantiles(h.bounds, counts)
		ts.Stages[i].P50Ms, ts.Stages[i].P90Ms, ts.Stages[i].P99Ms = q[0], q[1], q[2]
	}
}

// observe records one finished request on endpoint ep. traceID is the
// sampled request's trace ID (empty when unsampled) and becomes the
// latency bucket's exemplar.
func (m *metrics) observe(ep string, d time.Duration, status int, traceID string) {
	e := m.endpoint[ep]
	e.requests.Add(1)
	if status >= 400 {
		e.errors.Add(1)
	}
	e.latency.Observe(d, traceID)
}

// breakerStateCode maps a breaker state name to the numeric gauge the
// exposition reports.
func breakerStateCode(state string) float64 {
	switch state {
	case breakerStateName(breakerOpen):
		return 1
	case breakerStateName(breakerHalfOpen):
		return 2
	default:
		return 0
	}
}

// promHistogram renders one histogram series, converting the
// millisecond-denominated buckets to base-unit seconds and attaching
// the per-bucket trace-ID exemplars (emitted only in OpenMetrics
// mode; the writer drops them in 0.0.4 output). It returns the bucket
// counts it rendered, so the scrape's quantile gauges derive from the
// same snapshot.
func promHistogram(p *obs.PromWriter, name string, labels []obs.Label, h *histogram) []uint64 {
	counts, _, sumMS, ex := h.snapshot()
	boundsSec := make([]float64, len(h.bounds))
	for i, b := range h.bounds {
		boundsSec[i] = b / 1000
	}
	p.HistogramExemplars(name, labels, boundsSec, counts, sumMS/1000, ex)
	return counts
}

// quantilesSec derives the QuantileTargets quantiles of a millisecond
// histogram's bucket counts, in base-unit seconds.
func quantilesSec(h *histogram, counts []uint64) [3]float64 {
	q := obs.BucketQuantiles(h.bounds, counts)
	for i := range q {
		q[i] /= 1000
	}
	return q
}

// writeProm renders the full text exposition — Prometheus 0.0.4, or
// OpenMetrics 1.0 with bucket exemplars and the terminal # EOF when
// openMetrics is set: build info, request/error/shed counters,
// gauges, breaker states, tenant and tracing counters, SLO burn
// rates, latency and stage histograms (seconds), the quantile gauges
// derived from them, and the runtime gauges. Families and series are emitted in sorted
// label order so scrapes are diffable.
func (m *metrics) writeProm(w io.Writer, openMetrics bool) error {
	p := obs.NewPromWriter(w)
	if openMetrics {
		p = obs.NewOpenMetricsWriter(w)
	}
	obs.GetBuildInfo().WriteProm(p)

	p.Family(registry.MetricRequestsTotal, "HTTP requests served, by endpoint.", "counter")
	for _, ep := range m.endpoints {
		p.Sample(registry.MetricRequestsTotal, []obs.Label{{Name: "endpoint", Value: ep}}, float64(m.endpoint[ep].requests.Load()))
	}
	p.Family(registry.MetricRequestErrorsTotal, "Requests answered with status >= 400, by endpoint.", "counter")
	for _, ep := range m.endpoints {
		p.Sample(registry.MetricRequestErrorsTotal, []obs.Label{{Name: "endpoint", Value: ep}}, float64(m.endpoint[ep].errors.Load()))
	}
	p.Family(registry.MetricRequestsShedTotal, "Requests shed before compute (429 or 503), by endpoint.", "counter")
	for _, ep := range m.endpoints {
		p.Sample(registry.MetricRequestsShedTotal, []obs.Label{{Name: "endpoint", Value: ep}}, float64(m.endpoint[ep].shed.Load()))
	}

	p.Family(registry.MetricRequestsInFlight, "Requests currently inside a handler.", "gauge")
	p.Sample(registry.MetricRequestsInFlight, nil, float64(m.inFlight.Load()))
	p.Family(registry.MetricWorkerQueueDepth, "Detection jobs waiting in the worker queue.", "gauge")
	p.Sample(registry.MetricWorkerQueueDepth, nil, float64(m.queueDepth()))
	p.Family(registry.MetricCacheEntries, "Entries currently in the result cache.", "gauge")
	p.Sample(registry.MetricCacheEntries, nil, float64(m.cacheLen()))

	p.Family(registry.MetricCacheHitsTotal, "Result-cache hits.", "counter")
	p.Sample(registry.MetricCacheHitsTotal, nil, float64(m.cacheHits.Load()))
	p.Family(registry.MetricCacheMissesTotal, "Result-cache misses.", "counter")
	p.Sample(registry.MetricCacheMissesTotal, nil, float64(m.cacheMisses.Load()))
	if m.corruptions != nil {
		p.Family(registry.MetricCacheCorruptionsTotal, "Cache entries dropped by the integrity check on read.", "counter")
		p.Sample(registry.MetricCacheCorruptionsTotal, nil, float64(m.corruptions()))
	}
	p.Family(registry.MetricPanicsRecoveredTotal, "Panics recovered in handlers and detection workers.", "counter")
	p.Sample(registry.MetricPanicsRecoveredTotal, nil, float64(m.panicsRecovered.Load()))
	p.Family(registry.MetricDegradedTotal, "Detections that returned graceful-degradation annotations.", "counter")
	p.Sample(registry.MetricDegradedTotal, nil, float64(m.degradedTotal.Load()))

	if len(m.breakers) > 0 {
		eps := make([]string, 0, len(m.breakers))
		for ep := range m.breakers {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		p.Family(registry.MetricBreakerState, "Circuit-breaker state by endpoint: 0 closed, 1 open, 2 half-open.", "gauge")
		for _, ep := range eps {
			state, _ := m.breakers[ep].snapshot()
			p.Sample(registry.MetricBreakerState, []obs.Label{{Name: "endpoint", Value: ep}}, breakerStateCode(state))
		}
		p.Family(registry.MetricBreakerOpensTotal, "Circuit-breaker open transitions by endpoint.", "counter")
		for _, ep := range eps {
			_, opens := m.breakers[ep].snapshot()
			p.Sample(registry.MetricBreakerOpensTotal, []obs.Label{{Name: "endpoint", Value: ep}}, float64(opens))
		}
	}

	if m.jobEWMA != nil {
		p.Family(registry.MetricAdmissionJobTime, "EWMA estimate of one detection's service time feeding the admission controller's Retry-After values.", "gauge")
		p.Sample(registry.MetricAdmissionJobTime, nil, m.jobEWMA())
	}
	if m.jobsMgr != nil {
		c := m.jobsMgr.Counters()
		p.Family(registry.MetricJobsSubmittedTotal, "Async job submissions accepted (coalesced followers included).", "counter")
		p.Sample(registry.MetricJobsSubmittedTotal, nil, float64(c.Submitted))
		p.Family(registry.MetricJobsCoalescedTotal, "Async jobs that coalesced onto an identical in-flight execution.", "counter")
		p.Sample(registry.MetricJobsCoalescedTotal, nil, float64(c.Coalesced))
		p.Family(registry.MetricJobsCompletedTotal, "Async jobs reaching a terminal state, by outcome (ok or failed).", "counter")
		p.Sample(registry.MetricJobsCompletedTotal, []obs.Label{{Name: "outcome", Value: "ok"}}, float64(c.DoneOK))
		p.Sample(registry.MetricJobsCompletedTotal, []obs.Label{{Name: "outcome", Value: "failed"}}, float64(c.DoneFailed))
		p.Family(registry.MetricJobsExpiredTotal, "Terminal async jobs reaped from the store after their TTL.", "counter")
		p.Sample(registry.MetricJobsExpiredTotal, nil, float64(c.Expired))
		p.Family(registry.MetricJobsShedTotal, "Async job submissions rejected by the fair-share admission bounds.", "counter")
		p.Sample(registry.MetricJobsShedTotal, nil, float64(c.Shed))
		p.Family(registry.MetricJobsQueueDepth, "Async job executions waiting in the fair-share queues.", "gauge")
		p.Sample(registry.MetricJobsQueueDepth, nil, float64(m.jobsMgr.QueueDepth()))
		states := m.jobsMgr.StateCounts()
		p.Family(registry.MetricJobsState, "Async jobs currently retained, by state (queued, running, done, failed).", "gauge")
		for _, st := range jobs.StateNames() {
			p.Sample(registry.MetricJobsState, []obs.Label{{Name: "state", Value: st}}, float64(states[st]))
		}
		jobCounts, _, _, _ := m.jobLat.snapshot()
		p.Family(registry.MetricJobLatencyQuantile, "Submit-to-completion job-latency quantiles, derived at scrape from a bucket histogram (resolution is the bucket width).", "gauge")
		p.QuantileGauges(registry.MetricJobLatencyQuantile, nil, quantilesSec(m.jobLat, jobCounts))
		if ws := m.jobsMgr.WALStats(); ws.Enabled {
			p.Family(registry.MetricWALAppendsTotal, "Records appended to the jobs write-ahead log.", "counter")
			p.Sample(registry.MetricWALAppendsTotal, nil, float64(ws.Appends))
			p.Family(registry.MetricWALFsyncsTotal, "Fsyncs issued by the jobs write-ahead log.", "counter")
			p.Sample(registry.MetricWALFsyncsTotal, nil, float64(ws.Fsyncs))
			p.Family(registry.MetricWALBytes, "Size of the current jobs write-ahead-log segment in bytes.", "gauge")
			p.Sample(registry.MetricWALBytes, nil, float64(ws.Bytes))
			p.Family(registry.MetricWALReplayRecordsTotal, "Log records decoded during startup replay.", "counter")
			p.Sample(registry.MetricWALReplayRecordsTotal, nil, float64(ws.ReplayRecords))
			p.Family(registry.MetricWALAppendErrorsTotal, "Failed appends to the jobs write-ahead log.", "counter")
			p.Sample(registry.MetricWALAppendErrorsTotal, nil, float64(ws.AppendErrs))
			p.Family(registry.MetricWALSyncErrorsTotal, "Failed fsyncs of the jobs write-ahead log, background interval syncs included.", "counter")
			p.Sample(registry.MetricWALSyncErrorsTotal, nil, float64(ws.SyncErrs))
			p.Family(registry.MetricWALEncodeErrorsTotal, "Job payloads or results that failed to encode for the write-ahead log.", "counter")
			p.Sample(registry.MetricWALEncodeErrorsTotal, nil, float64(ws.EncodeErrs))
			p.Family(registry.MetricWALCompactionsTotal, "Snapshot-and-compaction cycles of the jobs write-ahead log.", "counter")
			p.Sample(registry.MetricWALCompactionsTotal, nil, float64(ws.Compactions))
			p.Family(registry.MetricJobsRecoveredTotal, "Jobs restored to a pollable state by crash recovery (finished results plus re-enqueued submissions).", "counter")
			p.Sample(registry.MetricJobsRecoveredTotal, nil, float64(ws.Recovered))
			p.Family(registry.MetricJobsLostTotal, "Jobs that were mid-execution at a crash and failed as lost to restart.", "counter")
			p.Sample(registry.MetricJobsLostTotal, nil, float64(ws.Lost))
		}
	}

	if m.tenants != nil {
		p.Family(registry.MetricTenantRequestsTotal, "Requests by tenant; unknown API keys beyond the tracked set fold into the other label.", "counter")
		labels, counts := m.tenants.snapshot()
		for i, l := range labels {
			p.Sample(registry.MetricTenantRequestsTotal, []obs.Label{{Name: "tenant", Value: l}}, float64(counts[i]))
		}
	}
	p.Family(registry.MetricTracesSampledTotal, "Requests whose span tree was sampled into the trace flight recorder.", "counter")
	p.Sample(registry.MetricTracesSampledTotal, nil, float64(m.tracesSampled.Load()))
	p.Family(registry.MetricTraceSpansTotal, "Spans recorded into the trace flight recorder.", "counter")
	p.Sample(registry.MetricTraceSpansTotal, nil, float64(m.traceSpans.Load()))

	if m.sloStatus != nil {
		sts := m.sloStatus()
		p.Family(registry.MetricSLOObjective, "Configured SLO objective (target good-event fraction), by SLO.", "gauge")
		for _, st := range sts {
			p.Sample(registry.MetricSLOObjective, []obs.Label{{Name: "slo", Value: st.Name}}, st.Target)
		}
		p.Family(registry.MetricSLOBurnRate, "Error-budget burn rate by SLO and window (1 means burning exactly the budget).", "gauge")
		for _, st := range sts {
			for _, ws := range st.Windows {
				p.Sample(registry.MetricSLOBurnRate,
					[]obs.Label{{Name: "slo", Value: st.Name}, {Name: "window", Value: ws.ShortStr}}, ws.ShortBurn)
				p.Sample(registry.MetricSLOBurnRate,
					[]obs.Label{{Name: "slo", Value: st.Name}, {Name: "window", Value: ws.LongStr}}, ws.LongBurn)
			}
		}
		p.Family(registry.MetricSLOErrorBudgetRemaining, "Fraction of the SLO error budget remaining over the long window, by SLO.", "gauge")
		for _, st := range sts {
			p.Sample(registry.MetricSLOErrorBudgetRemaining, []obs.Label{{Name: "slo", Value: st.Name}}, st.BudgetRemaining)
		}
		p.Family(registry.MetricSLOAlert, "SLO alert state by SLO and severity: 1 while the multi-window burn-rate condition holds.", "gauge")
		for _, st := range sts {
			for _, ws := range st.Windows {
				v := 0.0
				if ws.Firing {
					v = 1
				}
				p.Sample(registry.MetricSLOAlert,
					[]obs.Label{{Name: "severity", Value: ws.Severity}, {Name: "slo", Value: st.Name}}, v)
			}
		}
		p.Family(registry.MetricSLOProfileCapturesTotal, "pprof profile captures triggered by fast-burn SLO alerts.", "counter")
		p.Sample(registry.MetricSLOProfileCapturesTotal, nil, float64(m.profileCaptures.Load()))
	}

	p.Family(registry.MetricRequestDuration, "Request latency by endpoint.", "histogram")
	latCounts := make([][]uint64, len(m.endpoints))
	for i, ep := range m.endpoints {
		latCounts[i] = promHistogram(p, registry.MetricRequestDuration, []obs.Label{{Name: "endpoint", Value: ep}}, m.endpoint[ep].latency)
	}
	p.Family(registry.MetricStageDuration, "Pipeline stage latency by stage (microsecond-resolution low buckets).", "histogram")
	stageCounts := make([][]uint64, len(m.stages))
	for i, st := range m.stages {
		stageCounts[i] = promHistogram(p, registry.MetricStageDuration, []obs.Label{{Name: "stage", Value: st}}, m.stageLat[st])
	}

	p.Family(registry.MetricRequestLatencyQuantile, "Request-latency quantiles by endpoint, derived at scrape from the bucket histogram (resolution is the bucket width).", "gauge")
	for i, ep := range m.endpoints {
		p.QuantileGauges(registry.MetricRequestLatencyQuantile, []obs.Label{{Name: "endpoint", Value: ep}}, quantilesSec(m.endpoint[ep].latency, latCounts[i]))
	}
	p.Family(registry.MetricStageLatencyQuantile, "Stage-latency quantiles by stage, derived at scrape from the bucket histogram (resolution is the bucket width).", "gauge")
	for i, st := range m.stages {
		p.QuantileGauges(registry.MetricStageLatencyQuantile, []obs.Label{{Name: "stage", Value: st}}, quantilesSec(m.stageLat[st], stageCounts[i]))
	}

	obs.WriteRuntimeProm(p)
	p.EOF()
	return p.Err()
}
