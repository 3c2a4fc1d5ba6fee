package main

import (
	"context"
	"math"
	"sync"
	"time"
)

// sample is one committed transaction seen by its caller.
type sample struct {
	end   time.Duration // completion, relative to the window start
	lat   time.Duration // Store.Run call to return
	write bool
}

// window is the raw record of one closed-loop measurement.
type window struct {
	dur       time.Duration
	samples   []sample        // committed transactions of every client
	cpu       []time.Duration // cumulative process CPU at the slice boundaries, slices+1 entries
	speed     []speedSample   // the speedometer's readings, empty when it did not run
	attempted int
	failed    int
	firstErr  error
}

// runClosed drives the store in a closed loop for dur: every executor is
// one caller that issues its next transaction only when the previous one
// has returned. Process CPU is sampled at `slices` equal boundaries so
// throughput and CPU cost can be reported as the median slice. With
// calibrate set a speedometer runs alongside (see speed.go).
func runClosed(execs []*executor, dur time.Duration, slices int, calibrate bool) *window {
	ctx := context.Background()
	w := &window{dur: dur, cpu: make([]time.Duration, slices+1)}
	logs := make([]window, len(execs))
	var speed *speedometer
	if calibrate {
		speed = startSpeedometer()
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, e := range execs {
		wg.Add(1)
		go func(e *executor, log *window) {
			defer wg.Done()
			log.samples = make([]sample, 0, 1<<16)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				spec := e.next()
				err := e.run(ctx, spec)
				t1 := time.Now()
				log.attempted++
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
					continue
				}
				log.samples = append(log.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0), write: spec.writes()})
			}
		}(e, &logs[i])
	}
	w.cpu[0] = processCPU()
	for s := 1; s <= slices; s++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(s) / time.Duration(slices))))
		w.cpu[s] = processCPU()
	}
	wg.Wait()
	if speed != nil {
		w.speed = speed.finish()
	}
	for _, l := range logs {
		w.samples = append(w.samples, l.samples...)
		w.attempted += l.attempted
		w.failed += l.failed
		if w.firstErr == nil {
			w.firstErr = l.firstErr
		}
	}
	return w
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the ascending latencies, in ms, of the samples keep
// accepts.
func (w *window) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if keep(s) {
			out = append(out, ms(s.lat))
		}
	}
	return sorted(out)
}

func isRead(s sample) bool  { return !s.write }
func isWrite(s sample) bool { return s.write }
func isAny(sample) bool     { return true }

func (w *window) slices() int { return len(w.cpu) - 1 }

// sliceOf is the slice a transaction belongs to: the one it completed in.
// One that completes after the window's end (it started inside) belongs
// to the last.
func (w *window) sliceOf(s sample) int {
	i := int(s.end * time.Duration(w.slices()) / w.dur)
	return min(i, w.slices()-1)
}

// factor is the machine's speed factor during slice i (1 when the
// speedometer did not run).
func (w *window) factor(i int) float64 {
	n := time.Duration(w.slices())
	return speedFactor(w.speed, w.dur*time.Duration(i)/n, w.dur*time.Duration(i+1)/n)
}

// sliceRatesAndCosts returns every slice's throughput (committed txn/s)
// and CPU cost (ms of process CPU per committed txn, slices that committed
// nothing left out), each corrected by the slice's own speed factor.
func (w *window) sliceRatesAndCosts() (rates, costs []float64) {
	counts := make([]int, w.slices())
	for _, s := range w.samples {
		counts[w.sliceOf(s)]++
	}
	sliceS := w.dur.Seconds() / float64(w.slices())
	own := make([]float64, w.slices()) // ms of CPU the speedometer itself used, per slice
	for _, sp := range w.speed {
		if i := int(sp.at * time.Duration(w.slices()) / w.dur); i < w.slices() {
			own[i] += sp.us / 1000
		}
	}
	for i, n := range counts {
		f := w.factor(i)
		rates = append(rates, float64(n)/sliceS*f)
		if n > 0 {
			costs = append(costs, (ms(w.cpu[i+1]-w.cpu[i])-own[i])/float64(n)/f)
		}
	}
	return rates, costs
}

// factorAll is the speed factor over the whole window.
func (w *window) factorAll() float64 { return speedFactor(w.speed, 0, math.MaxInt64) }

// corrected returns the ascending latencies, in ms, of the samples keep
// accepts, each divided by the speed factor of the slice it completed in.
func (w *window) corrected(keep func(sample) bool) []float64 {
	factors := make([]float64, w.slices())
	for i := range factors {
		factors[i] = w.factor(i)
	}
	var out []float64
	for _, s := range w.samples {
		if keep(s) {
			out = append(out, ms(s.lat)/factors[w.sliceOf(s)])
		}
	}
	return sorted(out)
}
