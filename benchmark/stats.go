package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (the mean of the middle two for
// an even count), or 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, with the percentile it is. A sample too small for
// that reports its maximum as the 100th percentile, so the caller can
// see from pct that no tail is supported.
func tail(v []float64) (value, pct float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 21 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// spread is the distance between the extremes of v as a share of its
// median: the within-set round spread -compare weighs a delta against.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}
