package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spread is (max-min)/median of xs, the run-to-run spread printed beside
// each per-layer count.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}
