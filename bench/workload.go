package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// A workload is one traffic mix against one deployment of the store. The
// why strings are the record of why each was chosen; BENCHMARK.json and
// the README quote them.
type workload struct {
	name string
	why  string

	network  string // "tcp" (loopback sockets) or "sim" (zero-latency in-process network)
	replicas int    // replicas of every item, majority quorums
	durable  bool   // WAL under every replica, default flush policy
	stopDM   string // replica stopped after warm-up, "" for none

	theta      float64 // Zipfian skew of the key choice, 0 = uniform
	valueBytes int
	gen        func(g *generator) txnSpec
}

// The four workloads. Keys, mixes and shapes are fixed here; only the seed
// varies between runs.
var workloads = []workload{
	{
		name:    "tcp_read95",
		why:     "95% single-read txns, Zipfian keys, loopback TCP, volatile replicas: the gob frame codec and sockets do most of the work and the WAL none",
		network: "tcp", replicas: 3, theta: 0.99, valueBytes: 16,
		gen: func(g *generator) txnSpec {
			return txnSpec{n: 1, ops: [2]opSpec{g.op(g.rng.Float64() < 0.05)}}
		},
	},
	{
		name:    "tcp_durable_write",
		why:     "80% txns of two Subs each writing 1 KiB, 20% single reads, uniform keys, TCP with fsynced WAL: the log dominates and a read-path gain that taxes writers shows",
		network: "tcp", replicas: 3, durable: true, valueBytes: 1024,
		gen: func(g *generator) txnSpec {
			if g.rng.Float64() < 0.20 {
				return txnSpec{n: 1, ops: [2]opSpec{g.op(false)}}
			}
			return txnSpec{n: 2, depth: 1, ops: [2]opSpec{g.op(true), g.op(true)}}
		},
	},
	{
		name:    "sim_nested_n5",
		why:     "two ops per txn each two Subs deep, 50/50 read/write, 20% tolerated sub-aborts, n=5 on the zero-latency sim: no codec, socket or disk, only cluster and quorum CPU",
		network: "sim", replicas: 5, theta: 0.99, valueBytes: 16,
		gen: func(g *generator) txnSpec {
			t := txnSpec{n: 2, depth: 2}
			for i := range t.ops {
				t.ops[i] = g.op(g.rng.Float64() < 0.5)
				t.ops[i].abort = g.rng.Float64() < 0.20
			}
			return t
		},
	},
	{
		name:    "tcp_degraded",
		why:     "50/50 single-op txns, uniform keys, TCP, one of three replicas stopped for the whole window: the paper's availability claim as a number",
		network: "tcp", replicas: 3, stopDM: "dm2", valueBytes: 16,
		gen: func(g *generator) txnSpec {
			return txnSpec{n: 1, ops: [2]opSpec{g.op(g.rng.Float64() < 0.5)}}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSpec is one logical operation, fully decided before the run starts.
type opSpec struct {
	key    uint16
	write  bool
	abort  bool   // the innermost Sub holding this op fails on purpose; its parent tolerates it
	valOff uint32 // offset of the written value inside plan.filler
}

// txnSpec is one top-level transaction: n ops, each wrapped depth Subs
// deep.
type txnSpec struct {
	ops   [2]opSpec
	n     uint8
	depth uint8
}

// writes reports whether the transaction performs a write (committed or
// deliberately aborted): the split between read_p50_ms and write_p50_ms.
func (t txnSpec) writes() bool {
	for _, op := range t.ops[:t.n] {
		if op.write {
			return true
		}
	}
	return false
}

// plan is everything a run feeds the store, generated from the seed alone.
type plan struct {
	keys       []string // item names k0..k<n-1>
	valueBytes int
	filler     string      // random text; a written value is a valueBytes window of it
	perClient  [][]txnSpec // one list per client; a client that exhausts its list wraps
}

// planTxns is how many transactions are generated per client: more than a
// 60 s window of the fastest workload consumes on this class of machine.
const planTxns = 1 << 17

// value returns the payload op writes.
func (p *plan) value(op opSpec) string {
	return p.filler[op.valOff : int(op.valOff)+p.valueBytes]
}

// generator draws one client's transactions.
type generator struct {
	rng     *rand.Rand
	keys    *keyPicker
	fillLen int
	valLen  int
}

func (g *generator) op(write bool) opSpec {
	op := opSpec{key: g.keys.pick(g.rng), write: write}
	if write {
		op.valOff = uint32(g.rng.Intn(g.fillLen - g.valLen))
	}
	return op
}

// newPlan generates the full input of one run. The same (workload, seed,
// keys, clients, txns) always yields the same plan.
func newPlan(w workload, seed int64, keys, clients, txns int) *plan {
	p := &plan{valueBytes: w.valueBytes, keys: make([]string, keys)}
	for i := range p.keys {
		p.keys[i] = fmt.Sprintf("k%d", i)
	}
	root := rand.New(rand.NewSource(seed))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	fill := make([]byte, 1<<16+w.valueBytes)
	for i := range fill {
		fill[i] = alphabet[root.Intn(len(alphabet))]
	}
	p.filler = string(fill)
	picker := newKeyPicker(keys, w.theta, root)
	for c := 0; c < clients; c++ {
		g := &generator{
			rng:     rand.New(rand.NewSource(root.Int63())),
			keys:    picker,
			fillLen: len(p.filler),
			valLen:  w.valueBytes,
		}
		list := make([]txnSpec, txns)
		for i := range list {
			list[i] = w.gen(g)
		}
		p.perClient = append(p.perClient, list)
	}
	return p
}

// keyPicker chooses keys uniformly or by a Zipfian law with exponent theta
// (YCSB's 0.99 is below 1, which math/rand's Zipf does not offer), the
// ranks scattered over the key space by a seeded permutation.
type keyPicker struct {
	cdf  []float64 // nil for uniform
	perm []uint16
}

func newKeyPicker(n int, theta float64, rng *rand.Rand) *keyPicker {
	k := &keyPicker{perm: make([]uint16, n)}
	for i, j := range rng.Perm(n) {
		k.perm[i] = uint16(j)
	}
	if theta > 0 {
		k.cdf = make([]float64, n)
		sum := 0.0
		for i := range k.cdf {
			sum += 1 / math.Pow(float64(i+1), theta)
			k.cdf[i] = sum
		}
		for i := range k.cdf {
			k.cdf[i] /= sum
		}
	}
	return k
}

func (k *keyPicker) pick(rng *rand.Rand) uint16 {
	if k.cdf == nil {
		return k.perm[rng.Intn(len(k.perm))]
	}
	rank := sort.SearchFloat64s(k.cdf, rng.Float64())
	if rank >= len(k.perm) {
		rank = len(k.perm) - 1
	}
	return k.perm[rank]
}
