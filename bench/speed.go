package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"runtime"
	"time"
)

// The sandbox this benchmark runs on shares its two cores with other
// tenants, and the same instructions take between 1x and 1.8x the CPU time
// from one ten-second stretch to the next. Every timing the program
// produces moves with that factor, so un-corrected runs of identical code
// differ by more than the regressions the benchmark exists to catch.
//
// The speedometer measures the factor while a window runs: a thread of its
// own executes a small fixed piece of work a hundred times a second and
// records the CPU time (not wall time: waiting for a core is not slowness
// of the core) each execution took. The work is standard library only —
// gob round trips, map inserts, a hash: the kind of instructions the store
// spends its time on, and nothing a change to this repository can speed up.
// Its duty cycle is under 4 % of one core, the same in every run.
//
// An end-to-end timing is reported as measured ÷ factor, where factor =
// observed kernel time ÷ refKernelUs: the value the run would have shown
// on a machine that ran the kernel in exactly the reference time. The
// readable block prints the factor, so raw = reported × factor.

// refKernelUs is the CPU time of one speedKernel call on the 2.1 GHz
// sandbox in a quiet stretch. It only fixes the scale; changing it (or the
// kernel) re-bases every end-to-end number.
const refKernelUs = 350.0

// speedInterval is the pause between two kernel executions.
const speedInterval = 10 * time.Millisecond

type speedMsg struct {
	A string
	B int
	C []string
	D map[string]int
}

// speedKernel is the fixed unit of work. Do not change it: every recorded
// end-to-end number is relative to what it costs.
func speedKernel() int {
	sink := 0
	m := speedMsg{A: "c1.t123456/1", B: 42, C: []string{"a", "b", "c"}, D: map[string]int{"k512": 42, "k77": 9}}
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			return -1
		}
		var out speedMsg
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
			return -1
		}
		sink += len(out.A)
	}
	tbl := map[string]int{}
	for i := 0; i < 256; i++ {
		tbl[fmt.Sprintf("k%d", i)] = i
	}
	sink += len(tbl)
	var block [8192]byte
	sum := sha256.Sum256(block[:])
	return sink + int(sum[0])
}

// speedSample is one kernel execution: when it ran (relative to the
// speedometer's start) and the CPU time it took, in µs.
type speedSample struct {
	at time.Duration
	us float64
}

// speedometer samples the machine's speed until stopped.
type speedometer struct {
	start time.Time
	stop  chan struct{}
	done  chan []speedSample
}

func startSpeedometer() *speedometer {
	s := &speedometer{start: time.Now(), stop: make(chan struct{}), done: make(chan []speedSample, 1)}
	go func() {
		// The thread's CPU clock is only this goroutine's if nothing else
		// ever runs on the thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var samples []speedSample
		for {
			select {
			case <-s.stop:
				s.done <- samples
				return
			default:
			}
			t0, ok := threadCPU()
			if speedKernel() < 0 {
				ok = false
			}
			t1, _ := threadCPU()
			if ok && t1 > t0 {
				samples = append(samples, speedSample{at: time.Since(s.start), us: float64(t1-t0) / float64(time.Microsecond)})
			}
			time.Sleep(speedInterval)
		}
	}()
	return s
}

// finish stops the speedometer and returns its samples.
func (s *speedometer) finish() []speedSample {
	close(s.stop)
	return <-s.done
}

// speedFactor is how much slower than the reference the machine ran over
// the samples taken in [from, to): mean kernel time ÷ refKernelUs. With no
// sample in the interval it is 1.
func speedFactor(samples []speedSample, from, to time.Duration) float64 {
	sum, n := 0.0, 0
	for _, s := range samples {
		if s.at >= from && s.at < to {
			sum += s.us
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / refKernelUs
}
