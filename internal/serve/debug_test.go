package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"robustperiod/internal/obs"
	"robustperiod/internal/trace"
)

// debugSeries is long enough to exercise every pipeline stage: HP
// detrending, several MODWT levels, ranking, per-level periodogram
// and ACF validation.
func debugSeries() []float64 { return sineSeries(600, 50, 42) }

// TestDebugQueryInlinesStageTrace checks the ?debug=1 contract: the
// response carries per-stage timings covering every canonical
// pipeline stage exactly once, and a plain request carries none.
func TestDebugQueryInlinesStageTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := detectBody(t, debugSeries(), nil, false)

	resp, raw := postJSON(t, ts.URL+"/v1/detect?debug=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var dr DetectResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Trace == nil {
		t.Fatalf("debug response has no trace: %s", raw)
	}
	seen := map[string]int{}
	for _, st := range dr.Trace.Stages {
		seen[st.Stage]++
	}
	for _, name := range trace.PipelineStages() {
		if seen[name] != 1 {
			t.Errorf("stage %q appears %d times, want exactly 1 (trace: %+v)",
				name, seen[name], dr.Trace.Stages)
		}
	}
	if dr.Trace.TotalMs <= 0 {
		t.Fatalf("totalMs %v not positive", dr.Trace.TotalMs)
	}
	for _, st := range dr.Trace.Stages {
		if st.Calls < 1 {
			t.Errorf("stage %q has %d calls", st.Stage, st.Calls)
		}
	}
	if len(dr.Trace.Levels) == 0 {
		t.Fatal("debug trace has no per-level outcomes")
	}

	// A debug request must report a real run, not a memoized one —
	// even straight after the same series was served and cached.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/detect?debug=1", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	var dr2 DetectResponse
	if err := json.Unmarshal(raw2, &dr2); err != nil {
		t.Fatal(err)
	}
	if dr2.Cached {
		t.Fatal("debug request served from cache")
	}
	if dr2.Trace == nil {
		t.Fatal("repeated debug request lost its trace")
	}

	// Plain requests never carry a trace.
	_, rawPlain := postJSON(t, ts.URL+"/v1/detect", body)
	var plain DetectResponse
	if err := json.Unmarshal(rawPlain, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("non-debug response carries a trace")
	}
}

// TestDebugAndPlainAgree checks that the debug path (which bypasses
// the cache and attaches a trace) returns the same periods as the
// plain path.
func TestDebugAndPlainAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := detectBody(t, debugSeries(), nil, false)

	var plain, dbg DetectResponse
	_, rawPlain := postJSON(t, ts.URL+"/v1/detect", body)
	_, rawDbg := postJSON(t, ts.URL+"/v1/detect?debug=1", body)
	if err := json.Unmarshal(rawPlain, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawDbg, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(plain.Periods) == 0 {
		t.Fatalf("no periods detected: %s", rawPlain)
	}
	if len(plain.Periods) != len(dbg.Periods) {
		t.Fatalf("debug changed the detection: %v vs %v", plain.Periods, dbg.Periods)
	}
	for i := range plain.Periods {
		if plain.Periods[i] != dbg.Periods[i] {
			t.Fatalf("debug changed the detection: %v vs %v", plain.Periods, dbg.Periods)
		}
	}
}

// TestStageHistogramsOnMetrics checks every served detection feeds the
// per-stage histograms and quantile estimators, and that the full
// canonical stage set is present on /metrics from the moment the
// server starts.
func TestStageHistogramsOnMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/detect", detectBody(t, debugSeries(), nil, false))

	// An invalid request must not disturb the stage histograms.
	if resp, _ := postJSON(t, ts.URL+"/v1/detect", "{"); resp.StatusCode == http.StatusOK {
		t.Fatal("malformed body accepted")
	}

	m := metricsSnapshot(t, ts.URL)
	for _, name := range trace.PipelineStages() {
		if cnt := promValue(t, m, "rp_stage_duration_seconds_count", "stage", name); cnt < 1 {
			t.Errorf("stage %q histogram empty after a served detection", name)
		}
		for _, q := range []string{"0.5", "0.9", "0.99"} {
			promValue(t, m, "rp_stage_latency_seconds_quantile", "stage", name, "q", q)
		}
	}
	// Satellite check: stage histograms carry sub-millisecond buckets,
	// so fast stages are not all collapsed into the first bucket the
	// endpoint histograms use (1ms).
	f := obs.FindFamily(m, "rp_stage_duration_seconds")
	if f == nil {
		t.Fatal("rp_stage_duration_seconds family missing")
	}
	subMS := 0
	for _, s := range f.Samples {
		le := s.Label("le")
		if le == "" || le == "+Inf" {
			continue
		}
		var bound float64
		fmt.Sscanf(le, "%g", &bound)
		if bound > 0 && bound < 0.001 {
			subMS++
		}
	}
	if subMS == 0 {
		t.Error("stage histograms have no sub-millisecond buckets")
	}
}

// TestStageHistogramsRegisteredOncePerServer pins the restart
// behavior: constructing, serving with, closing and re-constructing
// servers must not panic or share metric state, because every server
// owns its own histograms and counters.
func TestStageHistogramsRegisteredOncePerServer(t *testing.T) {
	for i := 0; i < 3; i++ {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		m := metricsSnapshot(t, ts.URL)
		if obs.FindFamily(m, "rp_stage_duration_seconds") == nil {
			t.Fatalf("restart %d: rp_stage_duration_seconds missing", i)
		}
		ts.Close()
		s.Close()
	}
}

// TestDebugHandlerSurfaces checks the separate debug listener serves
// the pprof index, a profile endpoint, and the metrics JSON view.
func TestDebugHandlerSurfaces(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.DebugHandler())
	defer ts.Close()

	for _, path := range []string{"/", "/debug/pprof/", "/debug/vars"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s -> %d", path, res.StatusCode)
		}
		res.Body.Close()
	}

	res, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	idx, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(idx), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}

	// The JSON view on the debug listener is the API /metrics
	// exposition keyed by family name, stage histograms included.
	res2, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(res2.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["rp_stage_duration_seconds"]; !ok {
		t.Fatal("debug /debug/vars missing rp_stage_duration_seconds")
	}
}
