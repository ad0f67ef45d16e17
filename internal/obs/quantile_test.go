package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// testBounds are 1-2-5 bucket bounds spanning 0.01..1000, wide enough
// that none of the accuracy distributions reaches the +Inf bucket.
var testBounds = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// bucketCounts buckets a sample the way the serve histograms do: the
// first bound at or above each value, with a final +Inf bucket.
func bucketCounts(bounds, sample []float64) []uint64 {
	counts := make([]uint64, len(bounds)+1)
	for _, v := range sample {
		counts[sort.SearchFloat64s(bounds, v)]++
	}
	return counts
}

func cumulative(counts []uint64) []uint64 {
	cum := make([]uint64, len(counts))
	var run uint64
	for i, c := range counts {
		run += c
		cum[i] = run
	}
	return cum
}

// bucketWidth is the width of the bucket holding v (0 as the lower
// edge of the first).
func bucketWidth(bounds []float64, v float64) float64 {
	i := sort.SearchFloat64s(bounds, v)
	if i == 0 {
		return bounds[0]
	}
	return bounds[i] - bounds[i-1]
}

// TestQuantileAccuracy: on random samples, every derived quantile lies
// within one bucket width of the exact sample quantile.
func TestQuantileAccuracy(t *testing.T) {
	const n = 50000
	dists := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }},
		{"normal", func(r *rand.Rand) float64 { return math.Max(50+10*r.NormFloat64(), 0) }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 5 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			sample := make([]float64, n)
			for i := range sample {
				sample[i] = d.gen(r)
			}
			got := BucketQuantiles(testBounds, bucketCounts(testBounds, sample))
			sort.Float64s(sample)
			for i, p := range QuantileTargets {
				exact := sample[int(math.Ceil(p*n))-1]
				if w := bucketWidth(testBounds, exact); math.Abs(got[i]-exact) > w {
					t.Errorf("p%v: derived %v, exact %v: off by more than the bucket width %v", p, got[i], exact, w)
				}
			}
			if !(got[0] <= got[1] && got[1] <= got[2]) {
				t.Errorf("quantiles not monotone: %v", got)
			}
		})
	}
}

// TestQuantileSmallSamples: a rank that lands exactly on a cumulative
// count answers that bucket's bound, and a single observation places
// every quantile inside its own bucket.
func TestQuantileSmallSamples(t *testing.T) {
	bounds := []float64{1, 2, 5, 10}
	cum := cumulative([]uint64{1, 1, 1, 1, 0})
	for _, c := range []struct{ p, want float64 }{
		{0.25, 1}, {0.5, 2}, {0.75, 5}, {1, 10},
	} {
		if got := bucketQuantile(c.p, bounds, cum); got != c.want {
			t.Errorf("bucketQuantile(%v) = %v, want the bound %v", c.p, got, c.want)
		}
	}

	one := BucketQuantiles(bounds, []uint64{0, 0, 1, 0, 0})
	for i, v := range one {
		if v <= 2 || v > 5 {
			t.Errorf("single observation in (2,5]: q%v = %v outside its bucket", QuantileTargets[i], v)
		}
	}
	if want := 2 + 3*0.5; one[0] != want {
		t.Errorf("single observation p50 = %v, want the bucket midpoint %v", one[0], want)
	}
}

// TestQuantileNilSafe: an empty or malformed histogram answers 0.
func TestQuantileNilSafe(t *testing.T) {
	for _, c := range []struct {
		name   string
		bounds []float64
		cum    []uint64
	}{
		{"nil", nil, nil},
		{"empty", testBounds, make([]uint64, len(testBounds)+1)},
		{"short cum", testBounds, []uint64{1}},
	} {
		if got := bucketQuantile(0.5, c.bounds, c.cum); got != 0 {
			t.Errorf("%s: bucketQuantile = %v, want 0", c.name, got)
		}
	}
	if got := BucketQuantiles(testBounds, nil); got != [3]float64{} {
		t.Errorf("BucketQuantiles of no counts = %v, want zeros", got)
	}
}

// TestBucketQuantileOverflow: a rank in the +Inf bucket answers the
// highest finite bound, as histogram_quantile does.
func TestBucketQuantileOverflow(t *testing.T) {
	bounds := []float64{1, 2, 5}
	if got := BucketQuantiles(bounds, []uint64{0, 0, 0, 3}); got != [3]float64{5, 5, 5} {
		t.Fatalf("all-overflow quantiles = %v, want the highest finite bound 5", got)
	}
	// p50 falls in a finite bucket, p99 in the overflow.
	got := BucketQuantiles(bounds, []uint64{10, 0, 0, 1})
	if got[0] != 0.55 || got[2] != 5 {
		t.Fatalf("mixed quantiles = %v, want p50 0.55 and p99 5", got)
	}
}

// TestBucketQuantileMonotone: the derived quantile never decreases as
// p grows, empty buckets in between included.
func TestBucketQuantileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	counts := make([]uint64, len(testBounds)+1)
	for i := range counts {
		if r.Intn(3) > 0 { // leave about a third of the buckets empty
			counts[i] = uint64(r.Intn(100))
		}
	}
	cum := cumulative(counts)
	prev := math.Inf(-1)
	for i := 0; i <= 1000; i++ {
		p := float64(i) / 1000
		v := bucketQuantile(p, testBounds, cum)
		if v < prev {
			t.Fatalf("bucketQuantile(%v) = %v < bucketQuantile at the previous p = %v", p, v, prev)
		}
		prev = v
	}
}
