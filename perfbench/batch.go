package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"robustperiod"
	"robustperiod/internal/eval"
)

// batch-calendar: one library caller, closed loop, DetectContext with
// default options over the seeded calendar corpus.
const (
	// batchPerLength is the corpus size per calendar length at scale 1:
	// 5×20 series, so a 30 s window makes about three passes on the
	// reference host and p90 still has ten series beyond it.
	batchPerLength = 20
	// batchMinPasses is how many full passes a run makes at least, even
	// when the window ends first. Each series' latency is the median of
	// its passes, so a burst of host interference that slows one pass
	// does not move it.
	batchMinPasses = 3
	// batchSLO is the per-series latency limit of slo_ok_ratio.
	batchSLO = 750 * time.Millisecond
	// matchTol is the ±2% period tolerance of period_f1.
	matchTol = 0.02
	// warmupSeed seeds the set-up series, which are the same for every
	// run seed: set-up fills caches that depend on the lengths only.
	warmupSeed = 0
)

func scaled(n int, scale float64) int {
	if v := int(float64(n)*scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// detectOnce runs one default detection, turning a panic into an error
// so it counts as a failed operation.
func detectOnce(x []float64) (periods []int, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return robustperiod.DetectContext(context.Background(), x, nil)
}

// batchSetup is the first detection at every calendar length, which
// fills the process-wide FFT plan and filter caches.
func batchSetup(runConfig) (time.Duration, error) {
	first := make([]series, len(calendarLengths))
	for i, n := range calendarLengths {
		first[i] = makeSeries(n, 0, seriesSeed(warmupSeed, n, 0))
	}
	start := time.Now()
	for _, s := range first {
		if _, err := detectOnce(s.x); err != nil {
			return 0, fmt.Errorf("batch setup %s: %w", s.name, err)
		}
	}
	return time.Since(start), nil
}

func runBatch(cfg runConfig) (*result, error) {
	corpus := calendarCorpus(cfg.seed, scaled(batchPerLength, cfg.scale))
	if _, err := batchSetup(cfg); err != nil {
		return nil, err
	}
	runtime.GC()
	if cfg.traced {
		return runBatchTraced(cfg, corpus)
	}

	// Closed loop over the corpus in its fixed order, at least
	// batchMinPasses full passes, then until the window ends. A later
	// pass must reproduce the first pass's periods exactly. A detection
	// is timed by the CPU time the process spends on it, the detection's
	// own work and the garbage collection it causes: the loop is the
	// process's only work. Wall time on a shared host also counts the
	// minutes-long periods in which the hypervisor gives 10–40% of the
	// CPU to other tenants, which no statistic over one run removes.
	first := make([][]int, len(corpus))
	seen := make([]bool, len(corpus))
	times := make([][]float64, len(corpus))
	var attempted, failed, sloOK int64
	start := time.Now()
	for i := 0; i < batchMinPasses*len(corpus) || time.Since(start) < cfg.seconds; i++ {
		k := i % len(corpus)
		c0, err := processCPU()
		if err != nil {
			return nil, err
		}
		periods, err := detectOnce(corpus[k].x)
		c1, cerr := processCPU()
		if cerr != nil {
			return nil, cerr
		}
		d := c1 - c0
		attempted++
		times[k] = append(times[k], ms(d))
		ok := err == nil
		if err != nil {
			fmt.Fprintf(errOut, "perfbench: %s: %v\n", corpus[k].name, err)
		} else if seen[k] && !slices.Equal(first[k], periods) {
			fmt.Fprintf(errOut, "perfbench: %s: periods %v, earlier pass %v\n", corpus[k].name, periods, first[k])
			ok = false
		} else if !seen[k] {
			first[k], seen[k] = periods, true
		}
		if !ok {
			failed++
		} else if d <= batchSLO {
			sloOK++
		}
	}

	// Each series' latency is the median over its passes; throughput is
	// series per second of those latencies.
	lat := make([]float64, len(corpus))
	var total float64
	for k, ts := range times {
		lat[k] = median(ts)
		total += lat[k]
	}
	var counts eval.Counts
	for k, s := range corpus {
		counts.Add(eval.Match(first[k], s.truth, matchTol))
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_per_s": {float64(len(corpus)) / (total / 1000), "1/s"},
			"latency_p50_ms":   {quantile(lat, 0.5), "ms"},
			"latency_p90_ms":   {quantile(lat, 0.9), "ms"},
			"slo_ok_ratio":     {float64(sloOK) / float64(attempted), "ratio"},
			"success_ratio":    {float64(attempted-failed) / float64(attempted), "ratio"},
			"period_f1":        {counts.F1(), "ratio"},
			"max_rss_mb":       {maxRSSMB(), "MB"},
		},
	}, nil
}

// runBatchTraced spends the first half of the window on untraced
// detections and the second half on traced ones (a detection in a root
// span plus the layer replay), both from the start of the corpus, and
// reports the core layers, the FFT kernel at every padded length and
// the tracing overhead: the untraced detections' time over the root
// spans' time, on the series both halves ran.
func runBatchTraced(cfg runConfig, corpus []series) (*result, error) {
	half := cfg.seconds / 2
	var attempted, failed int64
	var plainMs []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < half; i++ {
		attempted++
		t0 := time.Now()
		if _, err := detectOnce(corpus[i%len(corpus)].x); err != nil {
			failed++
		}
		plainMs = append(plainMs, ms(time.Since(t0)))
	}

	spans := newSpanLog()
	layers := newCoreLayers(spans)
	var rootMs []float64
	start = time.Now()
	for i := 0; i == 0 || time.Since(start) < half; i++ {
		attempted++
		d, err := layers.observe(i, corpus[i%len(corpus)].x)
		if err != nil {
			fmt.Fprintln(errOut, "perfbench:", err)
			failed++
		}
		rootMs = append(rootMs, ms(d)) // 0 for a failed series
	}
	var plainSum, rootSum float64
	for i := 0; i < len(plainMs) && i < len(rootMs); i++ {
		if rootMs[i] > 0 {
			plainSum += plainMs[i]
			rootSum += rootMs[i]
		}
	}

	out := map[string]metric{}
	layers.metrics(out)
	fftRealMicros(cfg.seed, out)
	notExercised(out, "serve.", "jobs.", "wal.")
	out["trace_overhead_ratio"] = metric{ratio(plainSum, rootSum), "ratio"}
	if cfg.spans != "" {
		if err := spans.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}
