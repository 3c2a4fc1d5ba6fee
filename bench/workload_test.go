package main

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := newPlan(w, 42, 64, 2, 500)
		b := newPlan(w, 42, 64, 2, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different plans", w.name)
		}
		c := newPlan(w, 43, 64, 2, 500)
		if reflect.DeepEqual(a.perClient, c.perClient) {
			t.Errorf("%s: seeds 42 and 43 gave the same transactions", w.name)
		}
		if a.filler == c.filler {
			t.Errorf("%s: seeds 42 and 43 gave the same values", w.name)
		}
		if reflect.DeepEqual(a.perClient[0], a.perClient[1]) {
			t.Errorf("%s: both clients got the same transactions", w.name)
		}
	}
}

func TestWorkloadMixes(t *testing.T) {
	const txns = 20000
	for _, w := range workloads {
		p := newPlan(w, 7, 1024, 1, txns)
		var reads, writes, aborts, ops int
		for _, spec := range p.perClient[0] {
			if spec.writes() {
				writes++
			} else {
				reads++
			}
			for _, op := range spec.ops[:spec.n] {
				ops++
				if op.abort {
					aborts++
				}
				if op.write {
					if v := p.value(op); len(v) != w.valueBytes {
						t.Fatalf("%s: value of %d bytes, want %d", w.name, len(v), w.valueBytes)
					}
				}
			}
		}
		if reads == 0 || writes == 0 {
			t.Errorf("%s: %d read txns, %d write txns; read_p50_ms and write_p50_ms need both", w.name, reads, writes)
		}
		share := float64(writes) / txns
		var lo, hi float64
		switch w.name {
		case "tcp_read95":
			lo, hi = 0.04, 0.06
		case "tcp_durable_write":
			lo, hi = 0.78, 0.82
		case "sim_nested_n5":
			lo, hi = 0.73, 0.77 // two 50/50 ops: three quarters of txns write
			if got := float64(aborts) / float64(ops); got < 0.18 || got > 0.22 {
				t.Errorf("%s: %.3f of ops abort on purpose, want 0.20", w.name, got)
			}
		case "tcp_degraded":
			lo, hi = 0.48, 0.52
		}
		if share < lo || share > hi {
			t.Errorf("%s: write-txn share %.3f outside [%.2f, %.2f]", w.name, share, lo, hi)
		}
	}
}

func TestKeyPickerSkew(t *testing.T) {
	const n, draws = 1024, 200000
	hottest := func(theta float64) float64 {
		rng := rand.New(rand.NewSource(1))
		k := newKeyPicker(n, theta, rng)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[k.pick(rng)]++
		}
		best := 0
		for _, c := range counts {
			if c == 0 && theta == 0 {
				t.Errorf("uniform picker never chose some key")
			}
			if c > best {
				best = c
			}
		}
		return float64(best) / draws
	}
	// Zipf 0.99 over 1024 keys puts 1/zeta ~ 13% of draws on the hottest key.
	if got := hottest(0.99); got < 0.10 || got > 0.16 {
		t.Errorf("Zipfian hottest key drew %.3f of picks, want about 0.13", got)
	}
	if got := hottest(0); got > 0.003 {
		t.Errorf("uniform hottest key drew %.4f of picks, want about 1/1024", got)
	}
}
