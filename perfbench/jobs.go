package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"robustperiod/internal/registry"
	"robustperiod/internal/serve"
	"robustperiod/internal/wal"
)

// jobs-durable: async submitters, closed loop. Each of two client
// goroutines submits one series twice in a row with POST /v1/jobs, so
// the second submission coalesces with the first while it is queued or
// running, polls GET /v1/jobs/{id} until both are done, and repeats.
// The WAL is on with interval fsync and the cache is off.
//
// An open loop at a fixed rate was tried first (160/s and 100/s, a half
// and a third of the capacity measured on the quiet reference host).
// On a shared 2-core host whose hypervisor steals 8–17% of the CPU in
// bursts, every burst turned into a queue, and latency_p50_ms and
// latency_p90_ms spread 34–65% between runs of one commit, wider than
// any bound the benchmark may set; the closed loop pays a burst once.
//
// Two closed-loop variants spread wider between runs of one commit on
// that host. With one client, latency rose as much in the hypervisor's
// steal periods, and the fewer jobs a slow run finished left the
// finished-job store short of full, so max_rss_mb moved with speed.
// With the cache on and warmed, every job was a cache hit of about 1 ms
// whose latency_p90_ms doubled in steal periods (spreads of 40–50%).
const (
	jobsN        = 512
	jobsPoolSize = 128
	jobsTenants  = 4
	// jobsSLO is the submit-to-done latency limit of slo_ok_ratio.
	jobsSLO = 100 * time.Millisecond
	// jobsPollEvery is the wait before each status poll.
	jobsPollEvery = 2 * time.Millisecond
	// jobsDrain bounds how long a client waits for its jobs; a job not
	// done by then is lost and counts as failed.
	jobsDrain = 30 * time.Second
	// jobsFsync is the WAL's interval fsync policy, as in the
	// repository's service bench.
	jobsFsync = "25ms"
	// jobsWarmup is how many jobs set-up runs to completion, split over
	// the clients. The warm-up series are the same for every run seed.
	jobsWarmup = 32
)

// jobsConfig leaves the finished-job store at its default size, so the
// results it retains count in max_rss_mb.
func jobsConfig(dataDir string) serve.Config {
	return serve.Config{
		CacheSize:        -1,
		JobsDataDir:      dataDir,
		JobsFsync:        jobsFsync,
		TraceSampleEvery: -1,
	}
}

// jobsEnv is a running durable service and its data directory.
type jobsEnv struct {
	svc     *service
	dataDir string
}

func (e *jobsEnv) close() error {
	err := e.svc.stop()
	if rerr := os.RemoveAll(e.dataDir); err == nil {
		err = rerr
	}
	return err
}

// jobsStart opens the WAL in a fresh data directory, starts the server
// and runs jobsWarmup warm-up series to completion.
func jobsStart(root string) (*jobsEnv, time.Duration, error) {
	bodies, err := detectBodies(pool(warmupSeed, jobsN, jobsWarmup))
	if err != nil {
		return nil, 0, err
	}
	dataDir, err := scratchDir(root, "jobs-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	svc, err := startService(jobsConfig(dataDir))
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, 0, err
	}
	env := &jobsEnv{svc: svc, dataDir: dataDir}
	errs := make([]error, loadClients)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := w; i < len(bodies); i += loadClients {
				if err := runJob(c, svc, bodies[i]); err != nil {
					errs[w] = fmt.Errorf("warm-up job %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		env.close()
		return nil, 0, err
	}
	return env, time.Since(start), nil
}

// runJob submits one job and polls it until it is done.
func runJob(c *http.Client, svc *service, body []byte) error {
	id, err := submitJob(c, svc, body, "warmup", "")
	if err != nil {
		return err
	}
	for {
		time.Sleep(jobsPollEvery)
		st, err := pollJob(c, svc, id)
		switch {
		case err != nil:
			return err
		case st.State == "done":
			return nil
		case st.State != "queued" && st.State != "running":
			return fmt.Errorf("state %s: %+v", st.State, st.Error)
		}
	}
}

func jobsSetup(cfg runConfig) (time.Duration, error) {
	env, d, err := jobsStart(cfg.root)
	if err != nil {
		return 0, err
	}
	return d, env.close()
}

// submitJob posts one job and returns its ID; a non-empty traceparent
// asks the server to record the submission.
func submitJob(c *http.Client, svc *service, body []byte, tenant, traceparent string) (string, error) {
	hdr := http.Header{serve.TenantHeader: {tenant}}
	if traceparent != "" {
		hdr.Set("Traceparent", traceparent)
	}
	code, b, err := do(c, "POST", svc.base+"/v1/jobs", body, hdr)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", code, b)
	}
	var sub serve.JobSubmitResponse
	if err := json.Unmarshal(b, &sub); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return sub.JobID, nil
}

func pollJob(c *http.Client, svc *service, id string) (serve.JobStatusResponse, error) {
	var st serve.JobStatusResponse
	code, b, err := do(c, "GET", svc.base+"/v1/jobs/"+id, nil, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("poll: status %d: %s", code, b)
	}
	err = json.Unmarshal(b, &st)
	return st, err
}

// pendingJob is a submitted job its client has not seen finish.
type pendingJob struct {
	id     string
	k      int // pool index
	sent   time.Time
	submit tracedRequest // the submission, when it asked to be sampled
}

// jobsStats is what the clients observed in one window.
type jobsStats struct {
	lat       []float64       // submit -> done observed, ms
	ends      []time.Duration // when each job was seen done, since the window began
	queuedMs  []float64       // leaders only: submit -> execution start
	execMs    []float64       // leaders only: execution start -> done
	elapsedMs []float64       // submit -> done, server side
	attempted int64
	failed    int64
	sloOK     int64
	polls     int64
	served    map[int][]int
	traced    []tracedRequest // sampled submissions whose jobs finished
	elapsed   time.Duration
}

// jobsWindow runs the clients for one window and merges what they saw.
func jobsWindow(svc *service, bodies [][]byte, refs [][]int, seed int64, window time.Duration, traced bool) jobsStats {
	stats := make([]jobsStats, loadClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range stats {
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = jobsLoop(svc, bodies, refs, rng, i, start, window, traced)
		}(i)
	}
	wg.Wait()
	all := jobsStats{served: make(map[int][]int), elapsed: time.Since(start)}
	for _, s := range stats {
		all.lat = append(all.lat, s.lat...)
		all.ends = append(all.ends, s.ends...)
		all.queuedMs = append(all.queuedMs, s.queuedMs...)
		all.execMs = append(all.execMs, s.execMs...)
		all.elapsedMs = append(all.elapsedMs, s.elapsedMs...)
		all.traced = append(all.traced, s.traced...)
		all.attempted += s.attempted
		all.failed += s.failed
		all.sloOK += s.sloOK
		all.polls += s.polls
		for k, p := range s.served {
			all.served[k] = p
		}
	}
	return all
}

// jobsLoop is one closed-loop client until the window ends: submit a
// series twice, poll both jobs to completion, check their periods.
func jobsLoop(svc *service, bodies [][]byte, refs [][]int, rng *rand.Rand, client int, begin time.Time, window time.Duration, traced bool) jobsStats {
	c := newClient()
	defer c.CloseIdleConnections()
	st := jobsStats{served: make(map[int][]int)}
	n := 0
	for time.Since(begin) < window {
		k := rng.Intn(len(bodies))
		var pending []pendingJob
		for j := 0; j < 2; j++ {
			var tp, traceID string
			if traced {
				tp, traceID = sampledTrace(rng)
			}
			tenant := "tenant-" + strconv.Itoa((client+loadClients*n)%jobsTenants)
			n++
			sent := time.Now()
			id, err := submitJob(c, svc, bodies[k], tenant, tp)
			st.attempted++
			if err != nil {
				fmt.Fprintf(errOut, "perfbench: submit pool[%d]: %v\n", k, err)
				st.failed++
				continue
			}
			pending = append(pending, pendingJob{id: id, k: k, sent: sent,
				submit: tracedRequest{traceID, ms(time.Since(sent)), time.Since(begin)}})
		}
		for len(pending) > 0 {
			if time.Since(begin) > window+jobsDrain {
				fmt.Fprintf(errOut, "perfbench: %d jobs not done %v after the window\n", len(pending), jobsDrain)
				st.failed += int64(len(pending))
				break
			}
			time.Sleep(jobsPollEvery)
			kept := pending[:0]
			for _, p := range pending {
				js, err := pollJob(c, svc, p.id)
				seen := time.Now()
				st.polls++
				if err == nil && (js.State == "queued" || js.State == "running") {
					kept = append(kept, p)
					continue
				}
				if err == nil && js.State != "done" {
					err = fmt.Errorf("state %s: %+v", js.State, js.Error)
				}
				if err == nil && js.Result == nil {
					err = errors.New("done without a result")
				}
				if err == nil && !slices.Equal(js.Result.Periods, refs[p.k]) {
					err = fmt.Errorf("periods %v, library %v", js.Result.Periods, refs[p.k])
				}
				if err != nil {
					fmt.Fprintf(errOut, "perfbench: job %s: %v\n", p.id, err)
					st.failed++
					continue
				}
				d := seen.Sub(p.sent)
				st.lat = append(st.lat, ms(d))
				st.ends = append(st.ends, seen.Sub(begin))
				st.elapsedMs = append(st.elapsedMs, js.ElapsedMS)
				if !js.Coalesced {
					// A coalesced job shares its leader's start, which
					// can precede its own submission, so only leaders
					// split into queue wait and execution.
					st.queuedMs = append(st.queuedMs, js.QueuedMS)
					st.execMs = append(st.execMs, js.ElapsedMS-js.QueuedMS)
				}
				if d <= jobsSLO {
					st.sloOK++
				}
				if _, ok := st.served[p.k]; !ok {
					st.served[p.k] = js.Result.Periods
				}
				if p.submit.traceID != "" {
					st.traced = append(st.traced, p.submit)
				}
			}
			pending = kept
		}
	}
	return st
}

func runJobs(cfg runConfig) (*result, error) {
	ss := pool(cfg.seed, jobsN, scaled(jobsPoolSize, cfg.scale))
	refs, err := references(ss)
	if err != nil {
		return nil, err
	}
	bodies, err := detectBodies(ss)
	if err != nil {
		return nil, err
	}
	env, _, err := jobsStart(cfg.root)
	if err != nil {
		return nil, err
	}
	res, runErr := jobsMeasure(cfg, env, ss, bodies, refs)
	if err := env.close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("stop service: %w", err)
	}
	return res, runErr
}

func jobsMeasure(cfg runConfig, env *jobsEnv, ss []series, bodies [][]byte, refs [][]int) (*result, error) {
	svc := env.svc
	if !cfg.traced {
		st := jobsWindow(svc, bodies, refs, cfg.seed, cfg.seconds, false)
		if len(st.lat) == 0 {
			return nil, fmt.Errorf("jobs-durable: none of %d jobs completed correctly", st.attempted)
		}
		return &result{
			Correct:   st.failed == 0,
			Attempted: st.attempted,
			Failed:    st.failed,
			Metrics: map[string]metric{
				"throughput_per_s": {medianRate(st.ends, st.elapsed), "1/s"},
				"latency_p50_ms":   {windowQuantile(st.lat, st.ends, st.elapsed, 0.5), "ms"},
				"latency_p90_ms":   {windowQuantile(st.lat, st.ends, st.elapsed, 0.9), "ms"},
				"slo_ok_ratio":     {float64(st.sloOK) / float64(st.attempted), "ratio"},
				"success_ratio":    {float64(st.attempted-st.failed) / float64(st.attempted), "ratio"},
				"period_f1":        {f1Served(ss, st.served), "ratio"},
				"max_rss_mb":       {maxRSSMB(), "MB"},
			},
		}, nil
	}

	// Traced run: an untraced half, then a half in which every
	// submission asks to be sampled and its spans are read back.
	a0, gc0 := runtimeCounters()
	plain := jobsWindow(svc, bodies, refs, cfg.seed, cfg.seconds/2, false)
	a1, gc1 := runtimeCounters()
	plainRequests := float64(plain.attempted + plain.polls)
	names := []string{registry.MetricJobsSubmittedTotal, registry.MetricJobsCoalescedTotal,
		registry.MetricWALAppendsTotal, registry.MetricWALFsyncsTotal,
		registry.MetricCacheHitsTotal, registry.MetricCacheMissesTotal}
	c0, err := svc.counters(names...)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	traced := jobsWindow(svc, bodies, refs, cfg.seed+1, cfg.seconds/2, true)
	tracedFor := time.Since(t0)
	c1, err := svc.counters(names...)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return c1[name] - c0[name] }
	submitted := delta(registry.MetricJobsSubmittedTotal)

	hits := delta(registry.MetricCacheHitsTotal)
	lookups := hits + delta(registry.MetricCacheMissesTotal)

	var rootMs, outsideMs, appendMs, walBytes []float64
	entries, reqs := readBack(svc, traced.traced)
	for i, e := range entries {
		if v, ok := spanMs(e, registry.SpanRequest); ok {
			rootMs = append(rootMs, v)
			outsideMs = append(outsideMs, reqs[i].ms-v)
		}
		for _, sp := range e.Spans {
			if sp.Name != registry.SpanWALAppend {
				continue
			}
			appendMs = append(appendMs, sp.DurationMs)
			for _, a := range sp.Attrs {
				if a.Key == "bytes" {
					if b, err := strconv.ParseFloat(a.Value, 64); err == nil {
						walBytes = append(walBytes, b)
					}
				}
			}
		}
	}
	fsyncMs, err := walFsyncMs(env.dataDir, int(median(walBytes)))
	if err != nil {
		return nil, err
	}
	out := map[string]metric{
		"serve.requests":                  {float64(traced.attempted), "count"},
		"serve.request_ms":                {median(rootMs), "ms"},
		"serve.outside_handler_ms":        {median(outsideMs), "ms"},
		"serve.cache_lookups":             {lookups, "count"},
		"serve.cache_hit_ratio":           {ratio(hits, lookups), "ratio"},
		"serve.alloc_bytes_per_request":   {ratio(float64(a1-a0), plainRequests), "B"},
		"serve.gc_cycles_per_1k_requests": {ratio(1000*float64(gc1-gc0), plainRequests), "count"},
		"jobs.submitted":                  {submitted, "count"},
		"jobs.queue_wait_ms":              {median(traced.queuedMs), "ms"},
		"jobs.exec_ms":                    {median(traced.execMs), "ms"},
		"jobs.server_elapsed_ms":          {median(traced.elapsedMs), "ms"},
		"jobs.coalesce_ratio":             {ratio(delta(registry.MetricJobsCoalescedTotal), submitted), "ratio"},
		"jobs.polls_per_job":              {ratio(float64(traced.polls), float64(len(traced.lat))), "count"},
		"wal.append_ms":                   {median(appendMs), "ms"},
		"wal.fsync_ms":                    {fsyncMs, "ms"},
		"wal.appends_per_job":             {ratio(delta(registry.MetricWALAppendsTotal), submitted), "count"},
		"wal.bytes_per_job":               {mean(walBytes), "B"},
		"wal.fsyncs_per_s":                {delta(registry.MetricWALFsyncsTotal) / tracedFor.Seconds(), "1/s"},
		"trace_overhead_ratio": {ratio(float64(len(traced.lat))/traced.elapsed.Seconds(),
			float64(len(plain.lat))/plain.elapsed.Seconds()), "ratio"},
	}
	if err := poolLayers(cfg, ss, out); err != nil {
		return nil, err
	}
	failed := plain.failed + traced.failed
	return &result{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   out,
	}, nil
}

// walFsyncMs times the fsync a durable append pays: under interval
// fsync no request waits on the disk, so no span carries it. It appends
// records of the submit-record size to a side log with fsync on every
// append, in the run's data directory, and reports the median fsync.
func walFsyncMs(dataDir string, recordBytes int) (float64, error) {
	if recordBytes <= 0 {
		recordBytes = 1
	}
	l, err := wal.Open(filepath.Join(dataDir, "fsync-probe"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, recordBytes)
	var syncs []float64
	for i := 0; i < 32; i++ {
		d, err := l.AppendTimed(payload)
		if err != nil {
			l.Close()
			return 0, err
		}
		syncs = append(syncs, ms(d))
	}
	return median(syncs), l.Close()
}
