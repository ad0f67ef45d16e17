package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 / NumPy default). xs need not be sorted; it is
// not modified. Empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so the spreads this benchmark reports match the ones computed from
// the same values elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// The exclusive method of statistics.quantiles, line for line.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianRate is the median over the window's whole seconds of the
// operations completed in each, per second. A median of one-second
// rates is not moved by a pause of a few hundred milliseconds the way
// the window's mean rate is.
func medianRate(ends []time.Duration, window time.Duration) float64 {
	secs := int(window / time.Second)
	if secs < 1 {
		return float64(len(ends)) / window.Seconds()
	}
	counts := make([]float64, secs)
	for _, e := range ends {
		if i := int(e / time.Second); i < secs {
			counts[i]++
		}
	}
	return median(counts)
}

// windowQuantile is the median over the window's whole seconds of the
// q-quantile of the latencies of the operations that ended in each
// second (lat[i] ended at ends[i]). Host interference that lasts less
// than half the window moves it little, where it moves a quantile over
// the whole window by its share of the operations.
func windowQuantile(lat []float64, ends []time.Duration, window time.Duration, q float64) float64 {
	secs := int(window / time.Second)
	if secs < 1 {
		return quantile(lat, q)
	}
	per := make([][]float64, secs)
	for i, e := range ends {
		if s := int(e / time.Second); s < secs {
			per[s] = append(per[s], lat[i])
		}
	}
	var qs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	if len(qs) == 0 {
		return quantile(lat, q)
	}
	return median(qs)
}
