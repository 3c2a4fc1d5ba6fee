package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wal"
)

// deployment is one opened store with every replica in this process, on
// the workload's transport, plus what is needed to tear it down.
type deployment struct {
	store   *cluster.Store
	dms     []string
	simNet  *sim.Network // nil on tcp
	closeTr func()
}

// instruments are the decorators and recorder of a traced pass. The zero
// value installs nothing: timed windows run on the bare program.
type instruments struct {
	tracer  *tracer
	history *checker.Recorder
}

// deploy opens the workload's cluster: replicas dm0..dm<n-1>, every key a
// majority-quorum item on all of them, cluster options at their defaults
// except the seed and (for durable workloads) the WAL directory.
func deploy(w workload, p *plan, seed int64, walDir string, in instruments) (*deployment, error) {
	d := &deployment{}
	var tr transport.Transport
	switch w.network {
	case "tcp":
		t := tcp.New()
		tr, d.closeTr = t, t.Close
	case "sim":
		// Zero Min/MaxLatency: delivery costs a goroutine hand-off, never a
		// sleep, so the time measured is the program's own.
		d.simNet = sim.NewNetwork(sim.Config{Seed: seed})
		tr, d.closeTr = d.simNet, d.simNet.Close
	default:
		return nil, fmt.Errorf("workload %s: unknown network %q", w.name, w.network)
	}
	if in.tracer != nil {
		tr = &tracedTransport{inner: tr, t: in.tracer}
	}
	for i := 0; i < w.replicas; i++ {
		d.dms = append(d.dms, fmt.Sprintf("dm%d", i))
	}
	cfg := quorum.Majority(d.dms)
	items := make([]cluster.ItemSpec, len(p.keys))
	for i, k := range p.keys {
		items[i] = cluster.ItemSpec{Name: k, Initial: "", DMs: d.dms, Config: cfg}
		if in.history != nil {
			in.history.DeclareItem(k, "")
		}
	}
	opts := []cluster.Option{cluster.WithSeed(seed)}
	if w.durable {
		opts = append(opts, cluster.WithDurability(walDir))
		if in.tracer != nil {
			opts = append(opts, cluster.WithWALOptions(wal.WithFS(&tracedFS{FS: wal.OSFS, t: in.tracer})))
		}
	}
	if in.history != nil {
		opts = append(opts, cluster.WithHistory(in.history))
	}
	store, err := cluster.Open(tr, items, opts...)
	if err != nil {
		d.closeTr()
		return nil, fmt.Errorf("workload %s: open: %w", w.name, err)
	}
	d.store = store
	return d, nil
}

// close shuts the store down in the order the repo requires: store first
// (drains detached sweeps, flushes logs), transport second.
func (d *deployment) close() {
	d.store.Close()
	d.closeTr()
}

// preloadBatch is how many keys one preload or read-back transaction
// touches: large enough that set-up is not a thousand commit rounds, small
// enough to stay well inside the call timeout.
const preloadBatch = 32

// preloaders is how many goroutines preload at once. More than the
// window's callers, so that a durable store's group commit has appends to
// batch and set-up is not one fsync per write.
const preloaders = 8

// forKeyBatches runs fn over [lo,hi) key ranges of preloadBatch keys from
// `clients` goroutines and returns the first error.
func forKeyBatches(keys, clients int, fn func(lo, hi int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				lo := next
				next += preloadBatch
				stop := first != nil
				mu.Unlock()
				if stop || lo >= keys {
					return
				}
				hi := lo + preloadBatch
				if hi > keys {
					hi = keys
				}
				if err := fn(lo, hi); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// preload commits one write per key, so every read of the run finds a
// value of the workload's size and every replica's state is populated.
func (d *deployment) preload(p *plan) error {
	ctx := context.Background()
	val := p.filler[:p.valueBytes]
	return forKeyBatches(len(p.keys), preloaders, func(lo, hi int) error {
		return d.store.Run(ctx, func(tx *cluster.Txn) error {
			for _, k := range p.keys[lo:hi] {
				if err := tx.Write(ctx, k, val); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// ack is the highest-versioned write of one key whose transaction was
// acknowledged as committed.
type ack struct {
	vn     int
	valOff uint32
}

// lostWrites reads every key back and counts the ones that contradict the
// acknowledged writes: the store must return a version at least as high as
// the highest acknowledged, and exactly the acknowledged value when the
// versions are equal. (A higher version is legal: a transaction whose Run
// returned an error may still have committed.)
func (d *deployment) lostWrites(p *plan, acks []ack, clients int) (int, error) {
	ctx := context.Background()
	var mu sync.Mutex
	lost := 0
	err := forKeyBatches(len(p.keys), clients, func(lo, hi int) error {
		bad := 0
		err := d.store.Run(ctx, func(tx *cluster.Txn) error {
			bad = 0
			for i := lo; i < hi; i++ {
				val, vn, err := tx.ReadVersioned(ctx, p.keys[i])
				if err != nil {
					return err
				}
				a := acks[i]
				if a.vn == 0 {
					continue
				}
				want := p.filler[a.valOff : int(a.valOff)+p.valueBytes]
				if vn < a.vn || (vn == a.vn && val != any(want)) {
					bad++
				}
			}
			return nil
		})
		mu.Lock()
		lost += bad
		mu.Unlock()
		return err
	})
	return lost, err
}
