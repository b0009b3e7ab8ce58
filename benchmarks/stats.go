package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile reports the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the reporting rule of the choosing-metrics guide:
// the highest percentile that still has at least ten samples beyond it.
// ok is false when even the lowest rung has fewer, and the sample supports
// a median only.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			return p, true
		}
	}
	return 50, false
}

// samplesBeyond is how many of n samples lie beyond the p-th percentile,
// rounded so that 100 samples have ten beyond p90 in floating point too.
func samplesBeyond(n int, p float64) int {
	return int(math.Round(float64(n)*(100-p)/100*1e6) / 1e6)
}

// quartiles returns the first and third quartile by the exclusive method,
// the one Python's statistics.quantiles(values, n=4) uses, so the spread
// computed here is the one the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
