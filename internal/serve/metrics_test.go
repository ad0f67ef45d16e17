package serve

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"robustperiod/internal/faults"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
)

// mixedTraffic drives ok, cached, error, debug, batch and async-job
// traffic through the API at base and waits for the job to finish.
func mixedTraffic(t *testing.T, base string) {
	t.Helper()
	body := detectBody(t, sineSeries(480, 24, 29), nil, false)
	postJSON(t, base+"/v1/detect", body)
	postJSON(t, base+"/v1/detect", body) // cache hit
	postJSON(t, base+"/v1/detect", "{")  // 400
	postJSON(t, base+"/v1/detect?debug=1", body)
	postJSON(t, base+"/v1/detect/batch", `{"series":[[1,2,3,4,5,6,7,8]]}`)
	sub := submitJob(t, base, detectBody(t, sineSeries(480, 24, 31), nil, false), "acme")
	awaitJob(t, base, sub.JobID)
}

// checkQuantilesInRankBuckets asserts that every sample of the quantile
// family qf lies inside the bucket of histogram family hf (matched on
// the label named by key) that holds the rank q·count — the bucket
// histogram_quantile interpolates in; a rank in +Inf answers the
// highest finite bound.
func checkQuantilesInRankBuckets(t *testing.T, fams []obs.PromFamily, qf, hf, key string) {
	t.Helper()
	qs, h := obs.FindFamily(fams, qf), obs.FindFamily(fams, hf)
	if qs == nil || h == nil {
		t.Fatalf("families %s / %s missing", qf, hf)
	}
	for _, s := range qs.Samples {
		var bounds, cum []float64
		for _, b := range h.Samples {
			if b.Name == hf+"_bucket" && b.Label(key) == s.Label(key) {
				le, err := strconv.ParseFloat(b.Label("le"), 64)
				if err != nil {
					t.Fatalf("bad le %q", b.Label("le"))
				}
				bounds, cum = append(bounds, le), append(cum, b.Value)
			}
		}
		if len(cum) == 0 {
			t.Fatalf("%s{%s=%q} has no histogram", qf, key, s.Label(key))
		}
		p, _ := strconv.ParseFloat(s.Label("q"), 64)
		total := cum[len(cum)-1]
		if total == 0 {
			if s.Value != 0 {
				t.Errorf("%s{%s=%q,q=%v} = %v on an empty histogram, want 0", qf, key, s.Label(key), p, s.Value)
			}
			continue
		}
		i := 0
		for cum[i] < p*total {
			i++
		}
		lo, hi := 0.0, bounds[i]
		if i > 0 {
			lo = bounds[i-1]
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		if s.Value < lo || s.Value > hi {
			t.Errorf("%s{%s=%q,q=%v} = %v outside its rank bucket [%v, %v]", qf, key, s.Label(key), p, s.Value, lo, hi)
		}
	}
}

// varsFamily is one family of the /debug/vars JSON view.
type varsFamily struct {
	Type    string
	Samples []struct {
		Name   string
		Labels map[string]string
		Value  any // a number, or "+Inf"/"-Inf"/"NaN"
	}
}

// debugVars fetches and decodes /debug/vars from the debug listener
// at base.
func debugVars(t *testing.T, base string) map[string]varsFamily {
	t.Helper()
	res, raw := getPath(t, base, "/debug/vars")
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/vars Content-Type = %q", ct)
	}
	var vars map[string]varsFamily
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("/debug/vars is not a JSON object of families: %v", err)
	}
	return vars
}

// TestDebugVarsMatchExposition: /debug/vars is the exposition parsed
// and rendered as JSON, so after mixed traffic it carries every
// /metrics family, and every counter sample in it equals the same
// sample on /metrics.
func TestDebugVarsMatchExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := debugServer(t, s)
	mixedTraffic(t, ts.URL)

	// Read /debug/vars first: the debug listener is not instrumented,
	// and a /metrics request counts itself only after it rendered, so
	// both views see the same counters.
	vars := debugVars(t, dbg.URL)
	fams := metricsSnapshot(t, ts.URL)
	if len(vars) != len(fams) {
		t.Errorf("/debug/vars has %d families, /metrics %d", len(vars), len(fams))
	}
	counters := 0
	for _, f := range fams {
		v, ok := vars[f.Name]
		if !ok || v.Type != f.Type || len(v.Samples) != len(f.Samples) {
			t.Errorf("family %s: /debug/vars %+v does not match /metrics", f.Name, v)
			continue
		}
		if f.Type != "counter" {
			continue
		}
		for i, want := range f.Samples {
			got := v.Samples[i]
			if got.Name != want.Name || !maps.Equal(got.Labels, want.Labels) || got.Value != want.Value {
				t.Errorf("counter %s%v: /debug/vars %v, /metrics %v", want.Name, want.Labels, got.Value, want.Value)
			}
			counters++
		}
	}
	if counters == 0 {
		t.Fatal("no counter samples compared")
	}
}

// TestWALErrorCountersExposed: the WAL's failure counters are on
// /metrics and /debug/vars of a durable server. With interval fsync a
// failed background sync is logged nowhere else, so
// rp_wal_sync_errors_total is the only sign that durability is
// failing.
func TestWALErrorCountersExposed(t *testing.T) {
	s, ts := newTestServer(t, Config{JobsDataDir: t.TempDir()})
	dbg := debugServer(t, s)

	faults.Enable(faults.MustParse("wal/fsync:error:times=1"))
	t.Cleanup(faults.Disable)
	body := detectBody(t, sineSeries(480, 24, 37), nil, false)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	faults.Disable()

	vars := debugVars(t, dbg.URL)
	fams := metricsSnapshot(t, ts.URL)
	for _, name := range []string{
		registry.MetricWALAppendErrorsTotal, registry.MetricWALSyncErrorsTotal,
		registry.MetricWALEncodeErrorsTotal, registry.MetricWALCompactionsTotal,
	} {
		got := promValue(t, fams, name)
		v, ok := vars[name]
		if !ok || len(v.Samples) != 1 || v.Samples[0].Value != got {
			t.Errorf("%s: /debug/vars %+v, /metrics %v", name, v, got)
		}
	}
	if n := promValue(t, fams, registry.MetricWALSyncErrorsTotal); n != 1 {
		t.Errorf("rp_wal_sync_errors_total = %v after one failed fsync, want 1", n)
	}
}

// TestConcurrentScrapes renders /metrics and /debug/vars at once; run
// under -race it pins that the two scrape paths share no unguarded
// state. The runtime/metrics buffer is the exception the detector
// cannot see (metrics.Read writes it inside the uninstrumented
// runtime), so obs.WriteRuntimeProm gives every scrape its own.
func TestConcurrentScrapes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dbg := debugServer(t, s)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if res, err := http.Get(ts.URL + "/metrics"); err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}()
		go func() {
			defer wg.Done()
			if res, err := http.Get(dbg.URL + "/debug/vars"); err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestSLOLatencyTargetMustBeBucketBound: the latency SLO counts whole
// histogram buckets, so New rejects a target between bucket bounds
// and names the allowed values.
func TestSLOLatencyTargetMustBeBucketBound(t *testing.T) {
	for _, c := range []struct {
		target time.Duration
		ok     bool
	}{
		{300 * time.Millisecond, false},
		{500 * time.Microsecond, false},
		{50 * time.Millisecond, true},
		{0, true}, // the 500ms default
		{500 * time.Millisecond, true},
	} {
		s, err := New(Config{SLOLatencyTarget: c.target})
		if c.ok {
			if err != nil {
				t.Errorf("target %v: %v", c.target, err)
				continue
			}
			s.Close()
			continue
		}
		if err == nil {
			s.Close()
			t.Errorf("target %v accepted, want an error", c.target)
			continue
		}
		if !strings.Contains(err.Error(), "1ms, 2ms, 5ms") || !strings.Contains(err.Error(), "500ms") {
			t.Errorf("target %v: error %q does not list the bucket bounds", c.target, err)
		}
	}
}

func newObserveMetrics() *metrics {
	return newMetrics([]string{epDetect}, func() int { return 0 }, func() int { return 0 })
}

// TestMetricsObserveAllocFree pins the per-request metrics observation
// of an unsampled request (no exemplar) allocation-free.
func TestMetricsObserveAllocFree(t *testing.T) {
	m := newObserveMetrics()
	allocs := testing.AllocsPerRun(1000, func() { m.observe(epDetect, 3*time.Millisecond, 200, "") })
	if allocs != 0 {
		t.Fatalf("metrics.observe allocates %v per call, want 0", allocs)
	}
	if n := m.endpoint[epDetect].requests.Load(); n < 1000 {
		t.Fatalf("requests = %d after 1000+ observations", n)
	}
}

func BenchmarkMetricsObserve(b *testing.B) {
	m := newObserveMetrics()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.observe(epDetect, time.Duration(i%1000)*time.Microsecond, 200, "")
	}
}
