package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (mean of the two middle values for
// an even count); 0 for no values. vals is sorted in place.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// tailPercentiles are the candidates for the reported tail, lowest
// first. The reported one is the highest with at least tailBeyond
// samples beyond it, so a tail is never read off a handful of outliers.
var tailPercentiles = []struct {
	q     float64
	label string
}{{0.75, "p75"}, {0.90, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}}

const tailBeyond = 10

// tail returns the highest supported percentile of vals and its label
// ("p90"). With too few samples for even p75 it falls back to the
// median, labelled "p50". vals is sorted in place.
func tail(vals []float64) (float64, string) {
	n := len(vals)
	best := -1
	for i, p := range tailPercentiles {
		if float64(n)*(1-p.q) >= tailBeyond {
			best = i
		}
	}
	if best < 0 {
		return median(vals), "p50"
	}
	sort.Float64s(vals)
	p := tailPercentiles[best]
	return vals[int(math.Ceil(p.q*float64(n)))-1], p.label
}

// quartiles returns the first quartile, median and third quartile of
// vals exactly as Python's statistics.quantiles(vals, n=4) does (the
// "exclusive" method: position (n+1)·k/4, linear interpolation, clamped
// to the data), which is what the acceptance check of BENCHMARK.json
// uses for its spread. One value is its own three quartiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// toFloats converts nanosecond samples, scaling each by mul.
func toFloats(ns []int64, mul float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) * mul
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
