package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// with fewer, the percentile is one or two outliers and does not repeat.
const minBeyond = 10

// quantile is a nearest-rank percentile with its sample count.
type quantile struct {
	Value float64
	Pct   int // the percentile actually reported
	N     int // samples
}

func (q quantile) note() string {
	return fmt.Sprintf("p%d of %d samples", q.Pct, q.N)
}

// ms renders a quantile of milliseconds for a comment line.
func (q quantile) ms() string {
	return fmt.Sprintf("%.4g ms (%s)", q.Value, q.note())
}

// tail returns the want-th percentile of samples, or, when fewer than
// minBeyond samples would lie above it, the highest whole percentile that
// still leaves minBeyond samples above. The result never drops below the
// median; an empty sample reports zero.
func tail(samples []float64, want int) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{Pct: want}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pct := want
	if lim := 100 * (n - minBeyond) / n; lim < pct {
		pct = lim
	}
	if pct < 50 {
		pct = 50
	}
	rank := (pct*n + 99) / 100 // ceil(pct% of n), 1-based
	if rank < 1 {
		rank = 1
	}
	return quantile{Value: s[rank-1], Pct: pct, N: n}
}

// median is the middle value (the mean of the two middle values for an even
// count); zero for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, or zero when den is zero (a layer that saw no requests).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
