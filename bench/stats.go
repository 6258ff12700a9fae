package main

import (
	"math"
	"slices"
)

// tailLadder lists the tail percentiles a timing may be reported at, each
// with the share of samples beyond it written as one in so many.
var tailLadder = []struct {
	pct     float64
	oneInOf int
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10_000}, {99.999, 100_000}}

// tailPercentile returns the highest percentile of the ladder that still has
// at least ten samples beyond it in a sample of n; 0 when even the median
// does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n >= 10*t.oneInOf {
			best = t.pct
		}
	}
	return best
}

// median returns the middle of values (mean of the two middles when even).
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (the default "exclusive" method),
// which is what the acceptance driver computes. It needs two values or more.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to stay above.
func spread(values []float64) float64 {
	med := median(values)
	if len(values) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}
