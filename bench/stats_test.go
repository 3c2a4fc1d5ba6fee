package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46},
	} {
		if got := percentile(asc, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// An exact rank beside an infinite neighbour (the open-loop ladder pads
	// unserved arrivals with +Inf) is that rank, not Inf*0 = NaN.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.5); got != 2 {
		t.Errorf("percentile beside +Inf = %v, want 2", got)
	}
	if got := percentile([]float64{1, math.Inf(1), math.Inf(1)}, 0.75); !math.IsInf(got, 1) {
		t.Errorf("percentile among +Inf = %v, want +Inf", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},      // not even the median has ten samples beyond it
		{19, 0, false},     // 9.5 beyond the median
		{20, 0.50, true},   // exactly ten beyond the median
		{100, 0.90, true},  // exactly ten beyond p90
		{199, 0.90, true},  // 9.95 beyond p95
		{200, 0.95, true},  // exactly ten beyond p95
		{999, 0.95, true},  // 9.99 beyond p99
		{1000, 0.99, true}, // exactly ten beyond p99
		{10000, 0.999, true},
		{1000000, 0.9999, true},
	} {
		got, ok := highestPercentile(tc.n)
		if ok != tc.ok || !near(got, tc.want) {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// The expected values are what Python prints for
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{9.1, 3.2, 7.7, 5.0, 4.4})
	if !near(q1, 3.8) || !near(q2, 5.0) || !near(q3, 8.4) {
		t.Errorf("quartiles(5 values) = %v %v %v, want 3.8 5.0 8.4", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread(1..10) = %v, want 1.0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "lat", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	noisy := []float64{50, 100, 150, 100, 70}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "within bound"},
		{lower, steady(100), steady(120), "regressed"},
		{lower, steady(100), steady(80), "improved"},
		{higher, steady(100), steady(80), "regressed"},
		{higher, steady(100), steady(120), "improved"},
		{lower, steady(100), noisy, "unresolved"},
		{lower, noisy, steady(200), "unresolved"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %q, want %q", tc.d.better, tc.a, tc.b, got, tc.want)
		}
	}
}
