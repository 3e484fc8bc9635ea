package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer samples beyond it is decided by a handful of
// requests and is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the
// completed request latencies with every failed request counted as +Inf,
// and whether at least minBeyond samples lie beyond its rank.
func percentile(ok []float64, failed int, p float64) (float64, bool) {
	n := len(ok) + failed
	if n == 0 {
		return math.Inf(1), false
	}
	xs := append([]float64(nil), ok...)
	for i := 0; i < failed; i++ {
		xs = append(xs, math.Inf(1))
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= minBeyond
}

// minSamples is the smallest sample count at which percentile(·, p)
// has minBeyond samples beyond it.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median of a non-empty sample (mean of the middle pair when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a closed-open time span [lo, hi).
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of ivs clipped to
// [lo, hi): overlapping intervals count once.
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	var cl []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			cl = append(cl, interval{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].lo < cl[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range cl {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(cl) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (units evaluate concurrently), so the
// union is subtracted, not the sum.
func selfTime(span interval, children []interval) time.Duration {
	return span.hi - span.lo - covered(children, span.lo, span.hi)
}
