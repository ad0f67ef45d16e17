package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"robustperiod"
	"robustperiod/internal/core"
	"robustperiod/internal/detect"
	"robustperiod/internal/dsp/fft"
	"robustperiod/internal/filter/hp"
	"robustperiod/internal/spectrum"
	"robustperiod/internal/stat/robust"
	"robustperiod/internal/trace"
	"robustperiod/internal/wavelet"
)

// Span names of the core-pipeline replay. The children of core.detect
// whose durations add up to core.children_ms are hp.detrend,
// wavelet.modwt, wavelet.ranking, detect.single and fft.autocorr;
// spectrum.periodogram is a second call on the work detect.single
// already did, so it is reported on its own and not summed.
const (
	spanCoreDetect  = "core.detect"
	spanHPDetrend   = "hp.detrend"
	spanMODWT       = "wavelet.modwt"
	spanRanking     = "wavelet.ranking"
	spanDetect      = "detect.single"
	spanPeriodogram = "spectrum.periodogram"
	spanAutocorr    = "fft.autocorr"
)

var childSpans = []string{spanHPDetrend, spanMODWT, spanRanking, spanDetect, spanAutocorr}

// coreLayers traces the core pipeline series by series: a root span
// around a real default-options detection, then a replay of the same
// series through the public functions of every layer the pipeline
// calls, in pipeline order, each call in a child span.
type coreLayers struct {
	spans *spanLog

	series         int
	allocs         uint64
	allocBytes     uint64
	levelsSelected int64
	solverIters    int64
	prefilterSkips int64
	warmHits       int64
	passbandBins   int64
	mismatches     int // replayed level verdicts that differ from the library's
}

func newCoreLayers(spans *spanLog) *coreLayers { return &coreLayers{spans: spans} }

// observe traces one series and returns the duration of its root span;
// trace numbers the root span.
func (c *coreLayers) observe(traceNo int, x []float64) (time.Duration, error) {
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	_, err := robustperiod.DetectContext(ctx, x, nil)
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, fmt.Errorf("core.detect: %w", err)
	}
	root := c.spans.add(traceNo, 0, spanCoreDetect, start, d)
	c.series++
	c.allocs += m1.Mallocs - m0.Mallocs
	c.allocBytes += m1.TotalAlloc - m0.TotalAlloc

	// The counts come from the library's own trace of a second,
	// untimed detection.
	res, err := robustperiod.DetectDetailsContext(ctx, x, &robustperiod.Options{Trace: robustperiod.NewTrace()})
	if err != nil {
		return 0, fmt.Errorf("core.detect (traced): %w", err)
	}
	if s := res.Trace; s != nil {
		if st := s.Stage(robustperiod.StageRanking); st != nil {
			c.levelsSelected += st.Counters["levels_selected"]
		}
		if st := s.Stage(robustperiod.StagePeriodogram); st != nil {
			c.solverIters += st.Counters[trace.CounterSolverIters]
			c.prefilterSkips += st.Counters[trace.CounterPrefilterSkips]
			c.warmHits += st.Counters[trace.CounterSolverWarmHits]
		}
	}
	c.replay(traceNo, root, x, res)
	return d, nil
}

// replay re-runs the default pipeline's layer calls on x. Which levels
// run is read from the library's result, so the replay does the same
// work; the glue between calls (normalization, sorting, merging) is not
// replayed and shows as core.detect_ms minus core.children_ms.
func (c *coreLayers) replay(traceNo, root int, x []float64, res *robustperiod.Result) {
	n := len(x)
	var detrended []float64
	c.spans.timed(traceNo, root, spanHPDetrend, func() {
		detrended, _ = hp.Detrend(x, hp.LambdaForCutoff(float64(n)/2))
	})
	xw := robust.Winsorize(detrended, 3)
	f := wavelet.MustFilter(wavelet.Daub8)
	levels := wavelet.MaxLevel(n, f)
	var m *wavelet.MODWT
	var err error
	c.spans.timed(traceNo, root, spanMODWT, func() { m, err = wavelet.Transform(xw, f, levels) })
	if err != nil {
		return
	}
	var vars []wavelet.LevelVariance
	c.spans.timed(traceNo, root, spanRanking, func() { vars = m.RobustVariances(16) })

	var selected []int
	for j, lv := range res.Levels {
		if lv.Selected && j < levels {
			selected = append(selected, j)
		}
	}
	if len(selected) == 0 {
		return
	}
	sort.Slice(selected, func(a, b int) bool { return vars[selected[a]].Variance > vars[selected[b]].Variance })
	var mr *wavelet.MODWT
	for _, idx := range selected {
		kLo, kHi := core.Passband(n, idx+1)
		det := c.detectLevel(traceNo, root, m.W[idx], kLo, kHi)
		if !det.Periodic {
			// The boundary fallback: the same level on the
			// reflection-extended transform.
			if mr == nil {
				c.spans.timed(traceNo, root, spanMODWT, func() { mr, _ = wavelet.TransformReflected(xw, f, levels) })
			}
			if mr != nil {
				if det2 := c.detectLevel(traceNo, root, mr.W[idx], kLo, kHi); det2.Periodic {
					det = det2
				}
			}
		}
		if want := res.Levels[idx].Detection; det.Periodic != want.Periodic || det.Final != want.Final {
			c.mismatches++
		}
	}
	c.spans.timed(traceNo, root, spanAutocorr, func() { fft.Autocorrelation(xw) })
}

// detectLevel times detect.Single on one level, then replays its
// robust periodogram on the same coefficients and passband.
func (c *coreLayers) detectLevel(traceNo, root int, w []float64, kLo, kHi int) detect.Result {
	var det detect.Result
	id := c.spans.timed(traceNo, root, spanDetect, func() { det, _ = detect.Single(w, kLo, kHi, detect.Config{}) })
	c.passbandBins += int64(kHi - kLo + 1)

	// The same set-up detect.Single does before its periodogram call:
	// centre, pad to 2N, Huber threshold from the unpadded samples, fit
	// on the real samples, prefilter at the default significance.
	n := len(w)
	mean := 0.0
	for _, v := range w {
		mean += v
	}
	mean /= float64(n)
	padded := make([]float64, 2*n)
	for i, v := range w {
		padded[i] = v - mean
	}
	zeta := robust.MADN(padded[:n])
	if zeta == 0 {
		zeta = math.Sqrt(robust.Variance(padded[:n]))
	}
	if zeta == 0 {
		zeta = 1
	}
	opts := spectrum.Options{Zeta: 1.345 * zeta, FitLength: n, PrefilterAlpha: 0.01}
	c.spans.timed(traceNo, id, spanPeriodogram, func() { spectrum.HybridPeriodogram(padded, kLo, kHi, opts) })
	return det
}

// metrics reports the per-series means of the core layers.
func (c *coreLayers) metrics(out map[string]metric) {
	per := func(v float64) float64 { return ratio(v, float64(c.series)) }
	children := 0.0
	for _, name := range childSpans {
		children += c.spans.totalMs(name)
	}
	out["core.detect_ms"] = metric{per(c.spans.totalMs(spanCoreDetect)), "ms"}
	out["core.children_ms"] = metric{per(children), "ms"}
	out["core.allocs_per_series"] = metric{per(float64(c.allocs)), "count"}
	out["core.alloc_bytes_per_series"] = metric{per(float64(c.allocBytes)), "B"}
	out["core.levels_selected"] = metric{per(float64(c.levelsSelected)), "count"}
	out["core.series"] = metric{float64(c.series), "count"}
	out["hp.detrend_ms"] = metric{per(c.spans.totalMs(spanHPDetrend)), "ms"}
	out["wavelet.modwt_ms"] = metric{per(c.spans.totalMs(spanMODWT)), "ms"}
	out["wavelet.ranking_ms"] = metric{per(c.spans.totalMs(spanRanking)), "ms"}
	out["detect.single_ms"] = metric{per(c.spans.totalMs(spanDetect)), "ms"}
	out["detect.calls_per_series"] = metric{per(float64(c.spans.calls(spanDetect))), "count"}
	out["spectrum.periodogram_ms"] = metric{per(c.spans.totalMs(spanPeriodogram)), "ms"}
	out["spectrum.solver_iters"] = metric{per(float64(c.solverIters)), "count"}
	out["spectrum.prefilter_skips"] = metric{per(float64(c.prefilterSkips)), "count"}
	out["spectrum.warm_hits"] = metric{per(float64(c.warmHits)), "count"}
	out["spectrum.passband_bins"] = metric{per(float64(c.passbandBins)), "count"}
	out["spectrum.prefilter_skip_ratio"] = metric{ratio(float64(c.prefilterSkips), float64(c.passbandBins)), "ratio"}
	out["fft.autocorr_ms"] = metric{per(c.spans.totalMs(spanAutocorr)), "ms"}
	if c.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: the core replay disagreed with the library on %d level verdicts; the layer split is approximate\n", c.mismatches)
	}
}

// fftLengths are the padded lengths 2N of the calendar lengths.
var fftLengths = func() []int {
	out := make([]int, len(calendarLengths))
	for i, n := range calendarLengths {
		out[i] = 2 * n
	}
	return out
}()

// fftRealMicros times fft.FFTReal at every padded calendar length on
// seeded noise and reports the median call in microseconds.
func fftRealMicros(seed int64, out map[string]metric) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range fftLengths {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := 0; i < 5; i++ {
			fft.FFTReal(x)
		}
		calls := make([]float64, 41)
		for i := range calls {
			start := time.Now()
			fft.FFTReal(x)
			calls[i] = float64(time.Since(start)) / float64(time.Microsecond)
		}
		out[fmt.Sprintf("fft.real_us.%d", n)] = metric{median(calls), "us"}
	}
}
