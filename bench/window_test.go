package main

import (
	"testing"
	"time"
)

func TestSpeedFactor(t *testing.T) {
	samples := []speedSample{
		{at: 100 * time.Millisecond, us: refKernelUs},
		{at: 200 * time.Millisecond, us: 2 * refKernelUs},
		{at: 1100 * time.Millisecond, us: 3 * refKernelUs},
	}
	for _, tc := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, time.Second, 1.5},
		{time.Second, 2 * time.Second, 3},
		{0, 2 * time.Second, 2},
		{5 * time.Second, 6 * time.Second, 1}, // no reading: no correction
	} {
		if got := speedFactor(samples, tc.from, tc.to); !near(got, tc.want) {
			t.Errorf("speedFactor[%v,%v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if got := speedFactor(nil, 0, time.Hour); got != 1 {
		t.Errorf("speedFactor with no readings = %v, want 1", got)
	}
}

// A two-slice window in which the machine ran at half speed during the
// second slice: half the transactions, twice the latency, twice the CPU per
// transaction. Corrected slice by slice, both slices tell the same story.
func TestWindowCorrectsEachSliceByItsOwnFactor(t *testing.T) {
	w := &window{
		dur: 2 * time.Second,
		cpu: []time.Duration{0, 400 * time.Millisecond, 800 * time.Millisecond},
		speed: []speedSample{
			{at: 500 * time.Millisecond, us: refKernelUs},
			{at: 1500 * time.Millisecond, us: 2 * refKernelUs},
		},
	}
	for i := 0; i < 100; i++ { // slice 0: 100 txns of 2 ms
		w.samples = append(w.samples, sample{end: time.Duration(i) * 10 * time.Millisecond, lat: 2 * time.Millisecond, write: i%2 == 0})
	}
	for i := 0; i < 50; i++ { // slice 1: 50 txns of 4 ms
		w.samples = append(w.samples, sample{end: time.Second + time.Duration(i)*20*time.Millisecond, lat: 4 * time.Millisecond, write: i%2 == 0})
	}
	rates, costs := w.sliceRatesAndCosts()
	rate, cost := median(rates), median(costs)
	if !near(rate, 100) {
		t.Errorf("txn/s = %v, want 100 in both slices after correction", rate)
	}
	// 400 ms of CPU per slice, less the speedometer's own 0.35 and 0.70 ms.
	if want := ((400-0.35)/100 + (400-0.70)/50/2) / 2; !near(cost, want) {
		t.Errorf("cpu ms/txn = %v, want %v", cost, want)
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		if got := percentile(w.corrected(isWrite), q); !near(got, 2) {
			t.Errorf("corrected write latency at q=%v is %v ms, want 2 in both slices", q, got)
		}
	}
	if got := len(w.corrected(isRead)); got != 75 {
		t.Errorf("%d read samples, want 75", got)
	}
	if got := w.factorAll(); !near(got, 1.5) {
		t.Errorf("whole-window factor = %v, want 1.5", got)
	}
	// A transaction that finishes after the window's end counts in the last slice.
	if got := w.sliceOf(sample{end: 2100 * time.Millisecond}); got != 1 {
		t.Errorf("late finisher in slice %d, want 1", got)
	}
}
