package main

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// One worker, arrivals due every millisecond, and the first one stalls for
// 60 ms. Service itself is instant, so a clock started at pick-up would
// report microseconds for everyone; timed from the due time, the arrivals
// queued behind the stall each report the wait it imposed on them.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	r := runRung(due, 1, time.Second, func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(r.fromDue) != len(due) {
		t.Fatalf("served %d of %d arrivals", len(r.fromDue), len(due))
	}
	// One worker serves in due order, so fromDue[i] belongs to arrival i.
	for i := 1; i < len(due); i++ {
		floor := ms(stall - due[i])
		if r.fromDue[i] < floor {
			t.Errorf("arrival %d: %.2f ms from its due time, but it waited at least %.2f ms behind the stall", i, r.fromDue[i], floor)
		}
		if r.schedLag[i] < floor {
			t.Errorf("arrival %d: generator lag %.2f ms, want at least %.2f ms", i, r.schedLag[i], floor)
		}
	}
	if got := r.p(0.5); got < ms(stall)/2 {
		t.Errorf("median from due time %.2f ms: the stall should dominate it", got)
	}
}

func TestRungCountsUnservedAndFailedAsMissingTheLimit(t *testing.T) {
	due := make([]time.Duration, 10)
	r := runRung(due, 2, time.Second, func(_, i int) error {
		if i >= 8 {
			return errors.New("refused")
		}
		return nil
	})
	if r.offered != 10 || len(r.fromDue) != 8 {
		t.Fatalf("offered %d, served %d; want 10 and 8", r.offered, len(r.fromDue))
	}
	if got := r.p(0.5); math.IsInf(got, 1) {
		t.Errorf("median is infinite with 8 of 10 served")
	}
	if got := r.p(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v with 2 of 10 arrivals failed, want +Inf", got)
	}

	// A worker that reaches an arrival after giveUp abandons the rest.
	late := runRung([]time.Duration{0, 0, 0, 0}, 1, 5*time.Millisecond, func(_, i int) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if len(late.fromDue) != 1 || !math.IsInf(late.p(0.9), 1) {
		t.Errorf("served %d of 4 past the give-up time (p90 %v), want 1 and +Inf", len(late.fromDue), late.p(0.9))
	}
}

func TestPoissonSchedule(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(3)), 1000, 2*time.Second)
	if n := len(due); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at 1000/s over 2 s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	again := poissonSchedule(rand.New(rand.NewSource(3)), 1000, 2*time.Second)
	if len(again) != len(due) || again[len(again)-1] != due[len(due)-1] {
		t.Errorf("the same seed gave a different schedule")
	}
}
