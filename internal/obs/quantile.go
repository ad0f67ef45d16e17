package obs

import "sort"

// QuantileTargets are the quantiles every _quantile gauge family
// reports, in the order BucketQuantiles returns them.
var QuantileTargets = [3]float64{0.5, 0.9, 0.99}

// QuantileLabels are the Prometheus q label values matching
// QuantileTargets.
var QuantileLabels = [3]string{"0.5", "0.9", "0.99"}

// bucketQuantile returns quantile p of a bucketed histogram with the
// semantics of Prometheus histogram_quantile. bounds are the finite
// bucket upper bounds, ascending; cum are the cumulative counts, cum[i]
// observations at or under bounds[i], plus one final element for the
// +Inf bucket (the total). The rank p·total is located in its bucket
// and interpolated linearly inside it, with 0 as the lower edge of the
// first bucket (or that bucket's bound, when it is not positive). A
// rank in the +Inf bucket answers the highest finite bound. An empty
// histogram answers 0. The resolution is therefore the width of the
// bucket holding the rank.
func bucketQuantile(p float64, bounds []float64, cum []uint64) float64 {
	if len(bounds) == 0 || len(cum) != len(bounds)+1 || cum[len(bounds)] == 0 {
		return 0
	}
	rank := p * float64(cum[len(bounds)])
	b := sort.Search(len(bounds), func(i int) bool { return float64(cum[i]) >= rank })
	if b == len(bounds) {
		return bounds[len(bounds)-1]
	}
	if b == 0 && bounds[0] <= 0 {
		return bounds[0]
	}
	lo, below := 0.0, 0.0
	if b > 0 {
		lo, below = bounds[b-1], float64(cum[b-1])
	}
	in := float64(cum[b]) - below
	if in == 0 {
		return lo
	}
	return lo + (bounds[b]-lo)*(rank-below)/in
}

// BucketQuantiles returns the QuantileTargets quantiles of a histogram
// given in the PromWriter.Histogram convention: per-bucket (not
// cumulative) counts, len(bounds)+1 of them, the last the +Inf
// overflow bucket. Each is computed by bucketQuantile, with the
// semantics of Prometheus histogram_quantile.
func BucketQuantiles(bounds []float64, counts []uint64) [3]float64 {
	cum := make([]uint64, len(counts))
	var run uint64
	for i, c := range counts {
		run += c
		cum[i] = run
	}
	var out [3]float64
	for i, p := range QuantileTargets {
		out[i] = bucketQuantile(p, bounds, cum)
	}
	return out
}
