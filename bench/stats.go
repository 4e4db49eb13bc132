package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles the tail rule chooses from, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailLevels that has at
// least ten samples beyond it among n samples, or 0 when not even the
// median has. A tail read from fewer samples is one or two outliers, not a
// percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		// The epsilon absorbs the rounding of 100-99.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is not modified. It returns 0 for
// an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method, extrapolation at the ends included), so spreads printed here match
// the ones an outside checker computes. Fewer than two samples have no
// spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median (0 when the
// median is 0).
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}
