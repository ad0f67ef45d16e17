package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"robustperiod/internal/eval"
	"robustperiod/internal/obs"
	"robustperiod/internal/registry"
	"robustperiod/internal/serve"
)

// loadClients is the number of load goroutines and keep-alive
// connections of the service workloads: the 2 cores of the reference
// host, so the numbers measure the program and not the scheduler.
const loadClients = 2

// service is an in-process serve.Server on a loopback listener.
type service struct {
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
}

func startService(c serve.Config) (*service, error) {
	srv, err := serve.New(c)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("start service: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{srv: srv, base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// stop drains the server and waits until it has shut down.
func (s *service) stop() error {
	s.cancel()
	return <-s.done
}

// newClient is one keep-alive HTTP client holding one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole answer.
func do(c *http.Client, method, url string, body []byte, header http.Header) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// counters scrapes /metrics in process and sums the samples of each
// named family.
func (s *service) counters(names ...string) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := make(map[string]float64, len(names))
	for _, name := range names {
		if f := obs.FindFamily(fams, name); f != nil {
			for _, smp := range f.Samples {
				out[name] += smp.Value
			}
		}
	}
	return out, nil
}

// traceEntry reads one trace back through /debug/traces/{id}, the
// surface an operator uses, in process.
func (s *service) traceEntry(traceID string) (serve.TraceEntry, error) {
	rec := httptest.NewRecorder()
	s.srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+traceID, nil))
	var e serve.TraceEntry
	if rec.Code != http.StatusOK {
		return e, fmt.Errorf("trace %s: status %d", traceID, rec.Code)
	}
	err := json.Unmarshal(rec.Body.Bytes(), &e)
	return e, err
}

// spanMs is the summed duration of the trace's spans with this name.
func spanMs(e serve.TraceEntry, name string) (total float64, found bool) {
	for _, sp := range e.Spans {
		if sp.Name == name {
			total += sp.DurationMs
			found = true
		}
	}
	return total, found
}

// sampledTrace returns a W3C traceparent that asks the server to record
// the request, and its trace ID.
func sampledTrace(rng *rand.Rand) (header, traceID string) {
	traceID = fmt.Sprintf("%016x%016x", rng.Uint64()|1, rng.Uint64())
	return fmt.Sprintf("00-%s-%016x-01", traceID, rng.Uint64()|1), traceID
}

// traceReadback is how many of a traced window's newest requests are
// read back: the server's default trace store keeps the last 256.
const traceReadback = 256

// tracedRequest is a request that asked to be sampled.
type tracedRequest struct {
	traceID string
	ms      float64       // client-side latency
	end     time.Duration // completion since the window began
}

// readBack reads the traces of the newest traced requests back through
// /debug/traces, after the timed window so the window pays nothing for
// it. It returns each trace found with its request; older requests
// have left the server's trace store.
func readBack(svc *service, reqs []tracedRequest) ([]serve.TraceEntry, []tracedRequest) {
	reqs = slices.Clone(reqs)
	slices.SortFunc(reqs, func(a, b tracedRequest) int { return cmp.Compare(b.end, a.end) })
	var entries []serve.TraceEntry
	var found []tracedRequest
	for _, r := range reqs[:min(len(reqs), traceReadback)] {
		if e, err := svc.traceEntry(r.traceID); err == nil {
			entries = append(entries, e)
			found = append(found, r)
		}
	}
	return entries, found
}

// runtimeCounters reads the process's cumulative heap allocation bytes
// and GC cycles.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// references computes the library result of every series, outside any
// timing: a served answer must equal it.
func references(ss []series) ([][]int, error) {
	out := make([][]int, len(ss))
	for i, s := range ss {
		p, err := detectOnce(s.x)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s.name, err)
		}
		out[i] = p
	}
	return out, nil
}

// detectBodies marshals one POST /v1/detect body per series.
func detectBodies(ss []series) ([][]byte, error) {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		b, err := json.Marshal(serve.DetectRequest{Series: s.x})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// f1Served scores the periods served for each pool series.
func f1Served(ss []series, served map[int][]int) float64 {
	var c eval.Counts
	for k, p := range served {
		c.Add(eval.Match(p, ss[k].truth, matchTol))
	}
	return c.F1()
}

// service-hot: dashboard-style repeat readers. Two keep-alive clients,
// closed loop, POST /v1/detect on a seeded pool of N=1024 series
// against the default configuration, so after warm-up nearly every
// request is a cache hit.
const (
	hotN        = 1024
	hotPoolSize = 64
	// hotSLO is the per-request latency limit of slo_ok_ratio.
	hotSLO = 5 * time.Millisecond
)

// hotStart starts the server and sends every pool series once, split
// over the workload's clients, which fills the result cache.
func hotStart(bodies [][]byte) (*service, time.Duration, error) {
	start := time.Now()
	// The default configuration (cache on) with head sampling off; the
	// traced phase asks for sampling per request.
	svc, err := startService(serve.Config{TraceSampleEvery: -1})
	if err != nil {
		return nil, 0, err
	}
	errs := make([]error, loadClients)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := w; i < len(bodies); i += loadClients {
				code, _, err := do(c, "POST", svc.base+"/v1/detect", bodies[i], nil)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d", code)
				}
				if err != nil {
					errs[w] = fmt.Errorf("warm-up request %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		svc.stop()
		return nil, 0, err
	}
	return svc, time.Since(start), nil
}

func hotSetup(cfg runConfig) (time.Duration, error) {
	bodies, err := detectBodies(pool(cfg.seed, hotN, scaled(hotPoolSize, cfg.scale)))
	if err != nil {
		return 0, err
	}
	svc, d, err := hotStart(bodies)
	if err != nil {
		return 0, err
	}
	return d, svc.stop()
}

// hotStats is what one client goroutine observed.
type hotStats struct {
	lat       []float64       // client-side ms per request
	ends      []time.Duration // completion time of each request since the window began
	traced    []tracedRequest // traced window: every request
	attempted int64
	failed    int64
	sloOK     int64
	served    map[int][]int
}

// hotLoop is one closed-loop client until the deadline.
func hotLoop(svc *service, bodies [][]byte, refs [][]int, rng *rand.Rand, begin, deadline time.Time, traced bool) hotStats {
	c := newClient()
	defer c.CloseIdleConnections()
	st := hotStats{served: make(map[int][]int)}
	url := svc.base + "/v1/detect"
	for time.Now().Before(deadline) {
		k := rng.Intn(len(bodies))
		var hdr http.Header
		var traceID string
		if traced {
			var tp string
			tp, traceID = sampledTrace(rng)
			hdr = http.Header{"Traceparent": {tp}}
		}
		t0 := time.Now()
		code, body, err := do(c, "POST", url, bodies[k], hdr)
		d := time.Since(t0)
		st.attempted++
		st.lat = append(st.lat, ms(d))
		st.ends = append(st.ends, time.Since(begin))
		var resp serve.DetectResponse
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &resp)
		}
		if err == nil && !slices.Equal(resp.Periods, refs[k]) {
			err = fmt.Errorf("periods %v, library %v", resp.Periods, refs[k])
		}
		if err != nil {
			fmt.Fprintf(errOut, "perfbench: detect pool[%d]: %v\n", k, err)
			st.failed++
			continue
		}
		if d <= hotSLO {
			st.sloOK++
		}
		if _, ok := st.served[k]; !ok {
			st.served[k] = resp.Periods
		}
		if traced {
			st.traced = append(st.traced, tracedRequest{traceID, ms(d), st.ends[len(st.ends)-1]})
		}
	}
	return st
}

// hotPhase runs the clients for one window and merges what they saw.
func hotPhase(svc *service, bodies [][]byte, refs [][]int, seed int64, window time.Duration, traced bool) (hotStats, time.Duration) {
	stats := make([]hotStats, loadClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := range stats {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = hotLoop(svc, bodies, refs, rng, start, deadline, traced)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := hotStats{served: make(map[int][]int)}
	for _, s := range stats {
		all.lat = append(all.lat, s.lat...)
		all.ends = append(all.ends, s.ends...)
		all.traced = append(all.traced, s.traced...)
		all.attempted += s.attempted
		all.failed += s.failed
		all.sloOK += s.sloOK
		for k, p := range s.served {
			all.served[k] = p
		}
	}
	return all, elapsed
}

func runHot(cfg runConfig) (*result, error) {
	ss := pool(cfg.seed, hotN, scaled(hotPoolSize, cfg.scale))
	refs, err := references(ss)
	if err != nil {
		return nil, err
	}
	bodies, err := detectBodies(ss)
	if err != nil {
		return nil, err
	}
	svc, _, err := hotStart(bodies)
	if err != nil {
		return nil, err
	}
	res, runErr := hotMeasure(cfg, svc, ss, bodies, refs)
	if err := svc.stop(); err != nil && runErr == nil {
		runErr = fmt.Errorf("stop service: %w", err)
	}
	return res, runErr
}

func hotMeasure(cfg runConfig, svc *service, ss []series, bodies [][]byte, refs [][]int) (*result, error) {
	if !cfg.traced {
		st, elapsed := hotPhase(svc, bodies, refs, cfg.seed, cfg.seconds, false)
		if st.attempted == 0 {
			return nil, errors.New("service-hot: no request completed")
		}
		return &result{
			Correct:   st.failed == 0,
			Attempted: st.attempted,
			Failed:    st.failed,
			Metrics: map[string]metric{
				"throughput_per_s": {medianRate(st.ends, elapsed), "1/s"},
				"latency_p50_ms":   {windowQuantile(st.lat, st.ends, elapsed, 0.5), "ms"},
				"latency_p90_ms":   {windowQuantile(st.lat, st.ends, elapsed, 0.9), "ms"},
				"slo_ok_ratio":     {float64(st.sloOK) / float64(st.attempted), "ratio"},
				"success_ratio":    {float64(st.attempted-st.failed) / float64(st.attempted), "ratio"},
				"period_f1":        {f1Served(ss, st.served), "ratio"},
				"max_rss_mb":       {maxRSSMB(), "MB"},
			},
		}, nil
	}

	// Traced run: an untraced half, then a half in which every request
	// asks to be sampled and its spans are read back.
	names := []string{registry.MetricCacheHitsTotal, registry.MetricCacheMissesTotal}
	a0, gc0 := runtimeCounters()
	plain, plainElapsed := hotPhase(svc, bodies, refs, cfg.seed, cfg.seconds/2, false)
	a1, gc1 := runtimeCounters()
	c0, err := svc.counters(names...)
	if err != nil {
		return nil, err
	}
	traced, tracedElapsed := hotPhase(svc, bodies, refs, cfg.seed+1, cfg.seconds/2, true)
	c1, err := svc.counters(names...)
	if err != nil {
		return nil, err
	}
	var rootMs, outsideMs []float64
	entries, reqs := readBack(svc, traced.traced)
	for i, e := range entries {
		if root, ok := spanMs(e, registry.SpanRequest); ok {
			rootMs = append(rootMs, root)
			outsideMs = append(outsideMs, reqs[i].ms-root)
		}
	}
	hits := c1[registry.MetricCacheHitsTotal] - c0[registry.MetricCacheHitsTotal]
	lookups := hits + c1[registry.MetricCacheMissesTotal] - c0[registry.MetricCacheMissesTotal]

	out := map[string]metric{
		"serve.requests":                  {float64(traced.attempted), "count"},
		"serve.request_ms":                {median(rootMs), "ms"},
		"serve.outside_handler_ms":        {median(outsideMs), "ms"},
		"serve.cache_lookups":             {lookups, "count"},
		"serve.cache_hit_ratio":           {ratio(hits, lookups), "ratio"},
		"serve.alloc_bytes_per_request":   {ratio(float64(a1-a0), float64(plain.attempted)), "B"},
		"serve.gc_cycles_per_1k_requests": {ratio(1000*float64(gc1-gc0), float64(plain.attempted)), "count"},
		"trace_overhead_ratio": {ratio(float64(traced.attempted)/tracedElapsed.Seconds(),
			float64(plain.attempted)/plainElapsed.Seconds()), "ratio"},
	}
	if err := poolLayers(cfg, ss, out); err != nil {
		return nil, err
	}
	notExercised(out, "jobs.", "wal.")
	failed := plain.failed + traced.failed
	return &result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   out,
	}, nil
}

// poolLayers traces the core layers over the workload's distinct
// series (what a cache miss or a job execution costs) and times the
// FFT kernel, after the timed windows.
func poolLayers(cfg runConfig, ss []series, out map[string]metric) error {
	spans := newSpanLog()
	layers := newCoreLayers(spans)
	for i, s := range ss {
		if _, err := layers.observe(i, s.x); err != nil {
			return err
		}
	}
	layers.metrics(out)
	fftRealMicros(cfg.seed, out)
	if cfg.spans != "" {
		return spans.write(cfg.spans)
	}
	return nil
}
