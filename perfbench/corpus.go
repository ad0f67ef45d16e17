package main

import (
	"fmt"
	"math"
	"math/rand"

	"robustperiod/internal/synthetic"
)

// series is one labeled input: the values handed to the program and
// the periods it should find.
type series struct {
	name  string
	x     []float64
	truth []int
}

// calendarLengths are the batch-calendar series lengths: one month
// hourly, the paper's N, one day per minute, one week at 5 min and two
// weeks at 5 min. The detector pads to 2N, so the FFT sizes are 1440,
// 2000, 2880 (5-smooth) and 4032, 8064 (with a factor of 7).
var calendarLengths = []int{720, 1000, 1440, 2016, 4032}

// periodSets are the labeled period combinations of Tables 1–3 and the
// calendar periods (daily at hourly, hourly at per-minute, weekly at
// hourly, daily at 5-min), cycled through in a fixed order so every
// seed gets the same composition and only phases, noise, outliers and
// offsets change with the seed.
var periodSets = [][]int{
	{24}, {60}, {168}, {288}, {24, 168}, {60, 288}, {24, 60, 168}, {20, 50, 100},
}

var waveShapes = []synthetic.WaveShape{synthetic.Sine, synthetic.Square, synthetic.Triangle}

// noise levels of Tables 1–2: mild (σ²=0.1, η=0.01) and severe
// (σ²=1, η=0.1), both with outliers of magnitude 10.
var noiseLevels = []struct {
	name        string
	sigma2, eta float64
}{
	{"mild", 0.1, 0.01},
	{"severe", 1, 0.1},
}

// blockLen is the composition cycle: six regular cases (3 shapes × 2
// noise levels) and two cases from the ROADMAP widened quality grid,
// so widened cases are a quarter of every corpus.
const (
	blockRegular = 6
	blockLen     = blockRegular + 2
)

// periodSetFor returns the i-th period set in the cycle that still
// shows at least three full cycles in n samples.
func periodSetFor(i, n int) []int {
	for k := 0; k < len(periodSets); k++ {
		set := periodSets[(i+k)%len(periodSets)]
		fits := true
		for _, p := range set {
			if 3*p > n {
				fits = false
			}
		}
		if fits {
			return set
		}
	}
	return periodSets[0]
}

// makeSeries renders slot i of the composition cycle at length n. The
// seed only feeds the random parts (phases, noise, outliers, offset).
func makeSeries(n, i int, seed int64) series {
	rng := rand.New(rand.NewSource(seed))
	slot := i % blockLen
	periods := periodSetFor(i/blockLen*blockRegular+slot, n)
	switch {
	case slot < blockRegular:
		shape := waveShapes[slot%len(waveShapes)]
		nz := noiseLevels[slot/len(waveShapes)]
		cfg := synthetic.PaperConfig(n, shape, periods, nz.sigma2, nz.eta, rng.Int63())
		return series{
			name:  fmt.Sprintf("n%d-%s-%s-%v", n, shape, nz.name, periods),
			x:     synthetic.Generate(cfg),
			truth: periods,
		}
	case slot == blockRegular:
		// Widened grid: a single short period (T=7 or T=24) on the
		// paper's triangle trend, mild noise.
		t := 7
		if i/blockLen%2 == 1 {
			t = 24
		}
		cfg := synthetic.PaperConfig(n, synthetic.Sine, []int{t}, 0.1, 0.01, rng.Int63())
		return series{
			name:  fmt.Sprintf("n%d-trend-single-%d", n, t),
			x:     synthetic.Generate(cfg),
			truth: []int{t},
		}
	default:
		// Widened grid: an additive offset of 10^3 … 10^10 on a mild
		// sine series.
		cfg := synthetic.PaperConfig(n, synthetic.Sine, periods, 0.1, 0.01, rng.Int63())
		x := synthetic.Generate(cfg)
		off := math.Pow(10, 3+7*rng.Float64())
		for j := range x {
			x[j] += off
		}
		return series{
			name:  fmt.Sprintf("n%d-offset-%.0e-%v", n, off, periods),
			x:     x,
			truth: periods,
		}
	}
}

// seriesSeed derives the seed of one corpus member from the run seed.
func seriesSeed(seed int64, n, i int) int64 {
	return seed*1_000_003 + int64(n)*7919 + int64(i)
}

// calendarCorpus builds perLength series at every calendar length,
// interleaved by length so any prefix of the corpus has the same
// length mix.
func calendarCorpus(seed int64, perLength int) []series {
	out := make([]series, 0, perLength*len(calendarLengths))
	for i := 0; i < perLength; i++ {
		for _, n := range calendarLengths {
			out = append(out, makeSeries(n, i, seriesSeed(seed, n, i)))
		}
	}
	return out
}

// pool builds count series of length n for the service workloads.
func pool(seed int64, n, count int) []series {
	out := make([]series, count)
	for i := range out {
		out[i] = makeSeries(n, i, seriesSeed(seed, n, i))
	}
	return out
}
