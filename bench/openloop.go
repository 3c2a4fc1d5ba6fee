package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop ladder offers transactions on a schedule, whether or not
// earlier ones have finished, and times each from the moment it was due —
// so a stall charges every request that had to wait behind it. It is a
// diagnostic, not a gate: on two shared cores the timer wake-ups that an
// open loop needs cost as much CPU as the transactions.

// sloMs is the latency limit the ladder holds each rung's p99 against.
const sloMs = 20.0

// poissonSchedule returns the due times (offsets from the rung's start) of
// Poisson arrivals at rate per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// rung is the outcome of one rate.
type rung struct {
	offered  int       // arrivals scheduled
	fromDue  []float64 // ms from due time to completion, one per arrival served without error
	schedLag []float64 // ms from due time to the moment a worker picked the arrival up
}

// p returns the rung's q-quantile latency from due time, in ms, counting
// every arrival that failed or was never served as slower than any that
// was: a request refused is a request that missed the limit.
func (r rung) p(q float64) float64 {
	asc := sorted(r.fromDue)
	for len(asc) < r.offered {
		asc = append(asc, math.Inf(1))
	}
	return percentile(asc, q)
}

// runRung serves one schedule with `workers` goroutines. Arrivals are
// served in due order; a worker that is free before the next arrival is
// due sleeps until then. do(i) performs arrival i. Arrivals not picked up
// by giveUp after the start are abandoned.
func runRung(due []time.Duration, workers int, giveUp time.Duration, do func(worker, i int) error) rung {
	r := rung{offered: len(due)}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
				}
				picked := time.Now()
				if picked.Sub(start) > giveUp {
					return
				}
				err := do(w, i)
				done := time.Now()
				mu.Lock()
				r.schedLag = append(r.schedLag, ms(picked.Sub(dueAt)))
				if err == nil {
					r.fromDue = append(r.fromDue, ms(done.Sub(dueAt)))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return r
}
