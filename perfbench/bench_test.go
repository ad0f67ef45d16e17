package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	s, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(names, defined) {
		t.Errorf("BENCHMARK.json workloads %v, program defines %v", names, defined)
	}
	check := func(kind string, got [][2]string, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program defines %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i][0] != want[i].name || got[i][1] != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layers [][2]string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEndMetrics)
	check("per_layer", layers, perLayerMetrics)

	// The fixed rate and the latency limits live in the code and are
	// stated in BENCHMARK.json; keep the two in step.
	whys := map[string]string{}
	for _, w := range s.Workloads {
		whys[w.Name] = w.Why
	}
	for name, want := range map[string]string{
		"batch-calendar": fmt.Sprintf("SLO %d ms", batchSLO/time.Millisecond),
		"service-hot":    fmt.Sprintf("SLO %d ms", hotSLO/time.Millisecond),
	} {
		if !strings.Contains(whys[name], want) {
			t.Errorf("%s: why %q does not state %q", name, whys[name], want)
		}
	}
	if !strings.Contains(whys["jobs-durable"], fmt.Sprintf("SLO %d ms", jobsSLO/time.Millisecond)) {
		t.Errorf("jobs-durable: why does not state its SLO")
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at reduced size on a
// seed the benchmark definition does not use, untraced and traced, and
// checks each metric BENCHMARK.json names is emitted, finite and has a
// unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	errOut = io.Discard
	defer func() { errOut = os.Stderr }()
	saved := probeSetup
	probeSetup = func(w workload, cfg runConfig) (float64, error) {
		d, err := w.setup(cfg)
		return d.Seconds(), err
	}
	defer func() { probeSetup = saved }()

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				cfg := runConfig{root: "..", seed: 7, seconds: time.Second, traced: traced, scale: 0.1}
				res, err := measure(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var names []string
				if traced {
					for _, m := range s.PerLayer {
						names = append(names, m.Name)
					}
				} else {
					for _, m := range s.EndToEnd {
						names = append(names, m.Name)
					}
				}
				for _, name := range names {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s missing", name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", name, m.Value)
					case m.Unit == "":
						t.Errorf("%s has no unit", name)
					}
				}
				if !traced {
					for _, name := range names {
						if res.Metrics[name].Value == 0 {
							t.Errorf("end-to-end metric %s reads 0", name)
						}
					}
				}
			})
		}
	}
}

func TestCorpusIsSeeded(t *testing.T) {
	a := calendarCorpus(3, 2)
	b := calendarCorpus(3, 2)
	c := calendarCorpus(4, 2)
	if len(a) != 2*len(calendarLengths) {
		t.Fatalf("corpus has %d series", len(a))
	}
	for i := range a {
		if !slices.Equal(a[i].x, b[i].x) || a[i].name != b[i].name {
			t.Fatalf("series %d differs between two builds with one seed", i)
		}
		if slices.Equal(a[i].x, c[i].x) {
			t.Fatalf("series %d is the same under two seeds", i)
		}
	}
	widened := 0
	for _, s := range pool(5, 1000, 64) {
		if strings.Contains(s.name, "trend-single") || strings.Contains(s.name, "offset") {
			widened++
		}
	}
	if widened != 16 {
		t.Errorf("widened-grid share %d/64, want a quarter", widened)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		name         string
		b            []float64
		higher       bool
		moreFailures bool
		want         string
	}{
		{"same", shift(0.5), false, false, "same"},
		{"gain lower-better", shift(-10), false, false, "gain"},
		{"gain higher-better", shift(10), true, false, "gain"},
		{"worse", shift(20), false, false, "worse"},
		{"unresolved", []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}, false, false, "unresolved"},
		// Every change run is worse, but by less than the bound, and
		// the change's spread exceeds the bound: unresolved, not same.
		{"all worse, wide", []float64{103, 140, 103.5, 104, 150, 103, 104.5, 160, 103, 130}, false, false, "unresolved"},
		// A faster change that failed more operations claims no gain.
		{"gain with more failures", shift(-10), false, true, "same"},
		{"all better with more failures", shift(-30), false, true, "same"},
	} {
		if _, _, v := verdict(base, c.b, c.higher, 0.1, c.moreFailures); v != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, v, c.want)
		}
	}
}

func TestMedianRate(t *testing.T) {
	// Ten seconds of 100 operations each, except one second in which a
	// stall let only 5 complete.
	var ends []time.Duration
	for s := 0; s < 10; s++ {
		n := 100
		if s == 4 {
			n = 5
		}
		for i := 0; i < n; i++ {
			ends = append(ends, time.Duration(s)*time.Second+time.Duration(i)*time.Second/time.Duration(n))
		}
	}
	if got := medianRate(ends, 10*time.Second); got != 100 {
		t.Errorf("medianRate = %v, want 100", got)
	}
}

func TestWindowQuantile(t *testing.T) {
	// Ten seconds of 100 operations of 1 ms each, except three seconds
	// of host interference in which every one took 10 ms.
	var lat []float64
	var ends []time.Duration
	for s := 0; s < 10; s++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if s >= 3 && s < 6 {
				v = 10
			}
			lat = append(lat, v)
			ends = append(ends, time.Duration(s)*time.Second+time.Duration(i)*10*time.Millisecond)
		}
	}
	if got := windowQuantile(lat, ends, 10*time.Second, 0.9); got != 1 {
		t.Errorf("windowQuantile p90 = %v, want 1", got)
	}
	if got := quantile(lat, 0.9); got != 10 {
		t.Errorf("whole-window p90 = %v, want 10 (the case the window median guards against)", got)
	}
}
