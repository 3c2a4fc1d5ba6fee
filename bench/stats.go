package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (p in [0,1]) of an ascending slice by
// linear interpolation between the two closest ranks. Empty input gives 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		// An exact rank: the neighbour has no weight, and may be +Inf (the
		// open-loop ladder pads unserved arrivals so), which times 0 is NaN.
		return asc[lo]
	}
	return asc[lo]*(1-frac) + asc[lo+1]*frac
}

// median of vals in any order.
func median(vals []float64) float64 { return percentile(sorted(vals), 0.5) }

// tailLadder is the set of percentiles a latency report may name, lowest
// first, each with the share of samples beyond it in parts per 10000 (so
// the ten-sample rule is decided in whole numbers).
var tailLadder = []struct {
	p      float64
	beyond int
}{{0.50, 5000}, {0.90, 1000}, {0.95, 500}, {0.99, 100}, {0.999, 10}, {0.9999, 1}}

// highestPercentile returns the highest rung of tailLadder that still has
// at least ten of n samples beyond it, and false when not even the median
// does: a percentile resting on fewer samples is one slow request, not a
// property of the system.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, rung := range tailLadder {
		if n*rung.beyond >= 10*10000 {
			best, ok = rung.p, true
		}
	}
	return best, ok
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(vals, n=4) does (the "exclusive" method),
// so a spread computed here is the spread the driver computes. It needs at
// least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	asc := sorted(vals)
	ld := len(asc)
	if ld < 2 {
		if ld == 1 {
			return asc[0], asc[0], asc[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (asc[j-1]*float64(n-delta) + asc[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median — the steadiness figure a metric's bound is held against.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
