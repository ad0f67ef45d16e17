package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"robustperiod/internal/faults"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
)

// debugServer exposes the flight-recorder surfaces of an existing
// Server on their own test listener.
func debugServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.DebugHandler())
	t.Cleanup(ts.Close)
	return ts
}

// fetchRecord retrieves one flight-recorder entry by the ID a client
// read from X-Request-ID.
func fetchRecord(t *testing.T, debugURL, id string) (int, RequestRecord) {
	t.Helper()
	res, err := http.Get(debugURL + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var rec RequestRecord
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	return res.StatusCode, rec
}

// TestRequestIDRoundTrip pins the correlation contract end to end: a
// detect response carries a parseable X-Request-ID, and that exact ID
// retrieves the request's full post-mortem record — per-stage trace
// included — from the debug listener.
func TestRequestIDRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := debugServer(t, s)

	resp, raw := postJSON(t, ts.URL+"/v1/detect", detectBody(t, sineSeries(480, 24, 11), nil, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d (%s)", resp.StatusCode, raw)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("200 response without X-Request-ID")
	}
	if _, ok := obs.ParseID(id); !ok {
		t.Fatalf("X-Request-ID %q is not a valid request ID", id)
	}

	status, rec := fetchRecord(t, dbg.URL, id)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/requests/%s -> %d", id, status)
	}
	if rec.ID != id {
		t.Errorf("record ID %q != header %q", rec.ID, id)
	}
	if rec.Endpoint != "detect" || rec.Status != http.StatusOK || rec.Outcome != "ok" {
		t.Errorf("record = %+v, want detect/200/ok", rec)
	}
	if rec.SeriesLen != 480 {
		t.Errorf("record seriesLen = %d, want 480", rec.SeriesLen)
	}
	if rec.Trace == nil || len(rec.Trace.Stages) == 0 {
		t.Errorf("record carries no per-stage trace: %+v", rec.Trace)
	}
	if rec.DurationMs <= 0 {
		t.Errorf("record durationMs = %v", rec.DurationMs)
	}

	// Non-compute endpoints never mint IDs or touch the recorder.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if got := hr.Header.Get("X-Request-ID"); got != "" {
		t.Errorf("healthz minted a request ID: %q", got)
	}
}

// TestErrorRequestsRetrievableByID pins the acceptance criterion for
// failures: every 4xx and 5xx response is retrievable from the flight
// recorder by the client's X-Request-ID, annotated with the error code
// (and, for injected faults, the fault point that fired).
func TestErrorRequestsRetrievableByID(t *testing.T) {
	s, ts := newTestServer(t, Config{BreakerThreshold: -1})
	dbg := debugServer(t, s)

	// A malformed body: 400 bad_request.
	resp, _ := postJSON(t, ts.URL+"/v1/detect", "{")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}
	badID := resp.Header.Get("X-Request-ID")
	if badID == "" {
		t.Fatal("400 response without X-Request-ID")
	}
	status, rec := fetchRecord(t, dbg.URL, badID)
	if status != http.StatusOK {
		t.Fatalf("lookup of 400 record -> %d", status)
	}
	if rec.Status != http.StatusBadRequest || rec.ErrorCode != "bad_request" || rec.Outcome != "error" {
		t.Errorf("400 record = %+v, want status 400, errorCode bad_request, outcome error", rec)
	}

	// An injected worker fault: 500 with the fault point on record.
	faults.Enable(faults.MustParse("serve/worker:error:times=1"))
	t.Cleanup(faults.Disable)
	resp, raw := postJSON(t, ts.URL+"/v1/detect", detectBody(t, sineSeries(256, 32, 13), nil, false))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted detect: %d (%s), want 500", resp.StatusCode, raw)
	}
	faultID := resp.Header.Get("X-Request-ID")
	status, rec = fetchRecord(t, dbg.URL, faultID)
	if status != http.StatusOK {
		t.Fatalf("lookup of faulted record -> %d", status)
	}
	if rec.Status != http.StatusInternalServerError || rec.Outcome != "error" {
		t.Errorf("faulted record = %+v, want status 500, outcome error", rec)
	}
	found := false
	for _, p := range rec.FaultPoints {
		if p == string(faults.PointServeWorker) {
			found = true
		}
	}
	if !found {
		t.Errorf("faulted record faultPoints = %v, want %s", rec.FaultPoints, faults.PointServeWorker)
	}
}

// TestDegradedRequestRecord: a request served 200 but degraded (robust
// solver broken, fallback engaged) is pinned in the recorder with its
// degradation annotations and stage trace.
func TestDegradedRequestRecord(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	dbg := debugServer(t, s)

	faults.Enable(faults.MustParse("spectrum/solver:error"))
	t.Cleanup(faults.Disable)
	resp, raw := postJSON(t, ts.URL+"/v1/detect", detectBody(t, sineSeries(1024, 64, 17), nil, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded detect: %d (%s)", resp.StatusCode, raw)
	}
	id := resp.Header.Get("X-Request-ID")
	status, rec := fetchRecord(t, dbg.URL, id)
	if status != http.StatusOK {
		t.Fatalf("lookup of degraded record -> %d", status)
	}
	if rec.Outcome != "degraded" {
		t.Errorf("outcome = %q, want degraded", rec.Outcome)
	}
	if rec.DegradedCount < 1 || len(rec.Degraded) == 0 {
		t.Errorf("degraded record lost its annotations: count=%d degraded=%v",
			rec.DegradedCount, rec.Degraded)
	}
	if rec.Trace == nil || len(rec.Trace.Stages) == 0 {
		t.Error("degraded record carries no stage trace")
	}
}

// TestRequestListAndLookupErrors covers the list surface and the two
// lookup failure modes: a syntactically bad ID (400) and a valid but
// unknown one (404).
func TestRequestListAndLookupErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := debugServer(t, s)

	body := detectBody(t, sineSeries(480, 24, 19), nil, false)
	var lastID string
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/detect", body)
		lastID = resp.Header.Get("X-Request-ID")
	}

	res, err := http.Get(dbg.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var list struct {
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Requests) != 3 {
		t.Fatalf("list has %d records, want 3", len(list.Requests))
	}
	if list.Requests[0].ID != lastID {
		t.Errorf("list not newest-first: first=%s, last request=%s", list.Requests[0].ID, lastID)
	}
	for _, r := range list.Requests {
		if r.Trace != nil {
			t.Error("list records should omit the bulky trace")
		}
	}

	if status, _ := fetchRecord(t, dbg.URL, "not-hex"); status != http.StatusBadRequest {
		t.Errorf("bad ID lookup -> %d, want 400", status)
	}
	if status, _ := fetchRecord(t, dbg.URL, "0123456789abcdef0123456789abcdef"); status != http.StatusNotFound {
		t.Errorf("unknown ID lookup -> %d, want 404", status)
	}
}

// logLine is one decoded JSON access-log record.
type logLine struct {
	Msg       string `json:"msg"`
	Level     string `json:"level"`
	RequestID string `json:"request_id"`
	Endpoint  string `json:"endpoint"`
	Status    int    `json:"status"`
	ErrorCode string `json:"error_code"`
}

func accessLines(t *testing.T, buf *bytes.Buffer) []logLine {
	t.Helper()
	var out []logLine
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var l logLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if l.Msg == "request" {
			out = append(out, l)
		}
	}
	return out
}

// TestAccessLogSamplingAndCorrelation: with sampling at 1 every
// request logs one line carrying the same request_id the client saw;
// with sampling disabled healthy requests are silent but exceptional
// ones still log, at Warn or above.
func TestAccessLogSamplingAndCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger("json", slog.LevelInfo, &buf)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Logger: logger, AccessLogEvery: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/detect", detectBody(t, sineSeries(480, 24, 23), nil, false))
	lines := accessLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("AccessLogEvery=1: %d access lines, want 1 (%s)", len(lines), buf.String())
	}
	if lines[0].RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("log request_id %q != header %q", lines[0].RequestID, resp.Header.Get("X-Request-ID"))
	}
	if lines[0].Endpoint != "detect" || lines[0].Status != http.StatusOK {
		t.Errorf("access line = %+v", lines[0])
	}

	buf.Reset()
	_, ts2 := newTestServer(t, Config{Logger: logger, AccessLogEvery: -1})
	postJSON(t, ts2.URL+"/v1/detect", detectBody(t, sineSeries(480, 24, 23), nil, false))
	if lines := accessLines(t, &buf); len(lines) != 0 {
		t.Fatalf("sampling disabled but healthy request logged: %+v", lines)
	}
	resp, _ = postJSON(t, ts2.URL+"/v1/detect", "{")
	lines = accessLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("exceptional request not logged with sampling disabled (%s)", buf.String())
	}
	if lines[0].Level != "WARN" || lines[0].ErrorCode != "bad_request" {
		t.Errorf("exceptional access line = %+v, want level WARN, error_code bad_request", lines[0])
	}
	if lines[0].RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("exceptional log request_id %q != header %q",
			lines[0].RequestID, resp.Header.Get("X-Request-ID"))
	}
}

// TestDebugTraceCarriesQuantiles: a ?debug=1 response situates its
// own stage timings against the server's stage-histogram quantiles,
// so every stage entry carries p50 <= p90 <= p99.
func TestDebugTraceCarriesQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := detectBody(t, sineSeries(600, 50, 31), nil, false)
	postJSON(t, ts.URL+"/v1/detect", body) // seed the stage histograms

	_, raw := postJSON(t, ts.URL+"/v1/detect?debug=1", body)
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Trace == nil || len(dr.Trace.Stages) == 0 {
		t.Fatalf("debug response has no trace: %s", raw)
	}
	for _, st := range dr.Trace.Stages {
		if st.P50Ms <= 0 {
			t.Errorf("stage %q p50Ms = %v, want > 0", st.Stage, st.P50Ms)
		}
		if st.P50Ms > st.P90Ms || st.P90Ms > st.P99Ms {
			t.Errorf("stage %q quantiles not monotone: p50=%v p90=%v p99=%v",
				st.Stage, st.P50Ms, st.P90Ms, st.P99Ms)
		}
	}
}

// TestMetricsConformantAfterMixedTraffic scrapes /metrics after ok,
// cached, degraded, batch, error and async-job traffic and runs the
// full text-format and OpenMetrics conformance checks, pins the family
// set to the registry catalog (the WAL families need a data
// directory), and checks every derived quantile against the bucket
// histogram it comes from.
func TestMetricsConformantAfterMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{BreakerThreshold: -1})
	mixedTraffic(t, ts.URL)

	m := metricsSnapshot(t, ts.URL) // CheckExposition runs inside
	walOnly := []string{
		registry.MetricWALAppendsTotal, registry.MetricWALFsyncsTotal, registry.MetricWALBytes,
		registry.MetricWALReplayRecordsTotal, registry.MetricJobsRecoveredTotal, registry.MetricJobsLostTotal,
		registry.MetricWALAppendErrorsTotal, registry.MetricWALSyncErrorsTotal,
		registry.MetricWALEncodeErrorsTotal, registry.MetricWALCompactionsTotal,
	}
	var want, got []string
	for _, md := range registry.Metrics() {
		if !slices.Contains(walOnly, md.Name) {
			want = append(want, md.Name)
		}
	}
	for _, f := range m {
		got = append(got, f.Name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("family set after mixed traffic:\n got %v\nwant %v", got, want)
	}

	for _, q := range []string{"0.5", "0.9", "0.99"} {
		if v := promValue(t, m, "rp_request_latency_seconds_quantile", "endpoint", "detect", "q", q); v <= 0 {
			t.Errorf("detect q%s = %v after traffic, want > 0", q, v)
		}
		if v := promValue(t, m, "rp_job_latency_seconds_quantile", "q", q); v <= 0 {
			t.Errorf("job latency q%s = %v after a finished job, want > 0", q, v)
		}
	}
	checkQuantilesInRankBuckets(t, m, "rp_request_latency_seconds_quantile", "rp_request_duration_seconds", "endpoint")
	checkQuantilesInRankBuckets(t, m, "rp_stage_latency_seconds_quantile", "rp_stage_duration_seconds", "stage")
	if n := promValue(t, m, "rp_request_errors_total", "endpoint", "detect"); n < 1 {
		t.Errorf("rp_request_errors_total{endpoint=detect} = %v after a 400", n)
	}
	if n := promValue(t, m, "rp_build_info"); n != 1 {
		t.Errorf("rp_build_info = %v, want 1", n)
	}
	promValue(t, m, "rp_go_goroutines")

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var om bytes.Buffer
	if _, err := om.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckOpenMetrics(om.Bytes()); err != nil {
		t.Fatalf("OpenMetrics scrape not conformant: %v", err)
	}
}
