// Package experiments implements the evaluation harness: every figure the
// paper contains (F1, F2) and every systems experiment DESIGN.md defines
// (E1–E8, A1) can be regenerated through the functions here. cmd/qcbench
// is a thin flag wrapper; the root bench_test.go wraps the same functions in
// testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/reconfig"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ConfigKind names a quorum strategy under test.
type ConfigKind string

// The strategies swept by the experiments.
const (
	KindReadOneWriteAll ConfigKind = "read-one/write-all"
	KindMajority        ConfigKind = "majority"
	KindReadAllWriteOne ConfigKind = "read-all/write-one"
)

// makeConfig builds the named configuration over the DMs.
func makeConfig(kind ConfigKind, dms []string) quorum.Config {
	switch kind {
	case KindReadOneWriteAll:
		return quorum.ReadOneWriteAll(dms)
	case KindReadAllWriteOne:
		return quorum.ReadAllWriteOne(dms)
	default:
		return quorum.Majority(dms)
	}
}

func dmNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dm%d", i)
	}
	return out
}

// newCluster builds a fresh network + store for one experiment cell. The
// 40ms call timeout and the per-cell seed are defaults; options the caller
// passes come later in the list and therefore win.
func newCluster(n int, kind ConfigKind, seed int64, lat time.Duration, opts ...cluster.Option) (*cluster.Store, *sim.Network, error) {
	net := sim.NewNetwork(sim.Config{MinLatency: lat / 5, MaxLatency: lat, Seed: seed})
	dms := dmNames(n)
	all := append([]cluster.Option{
		cluster.WithCallTimeout(40 * time.Millisecond),
		cluster.WithSeed(seed),
	}, opts...)
	store, err := cluster.Open(net, []cluster.ItemSpec{{
		Name: "x", Initial: 0, DMs: dms, Config: makeConfig(kind, dms),
	}}, all...)
	if err != nil {
		net.Close()
		return nil, nil, err
	}
	return store, net, nil
}

// Figures prints the paper's Figure 1 (system B transaction tree) and
// Figure 2 (the corresponding system A tree) from the same scenario.
func Figures(w io.Writer) error {
	spec := core.PaperSpec()
	b, err := core.BuildB(spec)
	if err != nil {
		return err
	}
	a, err := core.BuildA(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1 — transaction tree of replicated serial system B:")
	fmt.Fprintln(w, b.Tree.Render())
	fmt.Fprintln(w, "Figure 2 — transaction tree of non-replicated serial system A:")
	fmt.Fprintln(w, a.Tree.Render())
	return nil
}

// ModelChecks runs the mechanized theorem checks (E1–E4) over the given
// number of random seeds each and reports pass counts.
func ModelChecks(w io.Writer, seeds int) error {
	fmt.Fprintf(w, "%-55s %s\n", "check", "result")

	// E1+E2: Lemma 8 invariant on every step and Theorem 10 simulation.
	pass := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := core.DefaultRandParams()
		params.RetryAccesses = true
		spec := core.RandomSpec(rng, params)
		b, err := core.BuildB(spec)
		if err != nil {
			return err
		}
		d := ioa.NewDriver(b.Sys, seed)
		d.Bias = abortBias(0.15)
		d.OnStep = b.Lemma8Checker()
		sched, _, err := d.Run(1_000_000)
		if err != nil {
			return fmt.Errorf("E1 seed %d: %w", seed, err)
		}
		if err := b.CheckTheorem10(sched); err != nil {
			return fmt.Errorf("E2 seed %d: %w", seed, err)
		}
		pass++
	}
	fmt.Fprintf(w, "%-55s %d/%d seeds\n", "E1 Lemma 8 invariant (every step, random scenarios)", pass, seeds)
	fmt.Fprintf(w, "%-55s %d/%d seeds\n", "E2 Theorem 10 simulation B -> A", pass, seeds)

	// E3: Theorem 11 over the concurrent system.
	passed, completed := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := core.DefaultRandParams()
		params.RetryAccesses = true
		params.DeadlockAverse = true
		spec := core.RandomSpec(rng, params)
		spec.SequentialTMs = true
		c, err := cc.BuildC(spec)
		if err != nil {
			return err
		}
		d := ioa.NewDriver(c.Sys, seed+7777)
		d.Bias = abortBias(0.02)
		gamma, _, err := d.Run(1_000_000)
		if err != nil {
			return fmt.Errorf("E3 seed %d: %w", seed, err)
		}
		if !cc.Completed(c, gamma) {
			continue
		}
		completed++
		if err := cc.CheckTheorem11(c, gamma); err != nil {
			return fmt.Errorf("E3 seed %d: %w", seed, err)
		}
		passed++
	}
	fmt.Fprintf(w, "%-55s %d/%d completed runs\n", "E3 Theorem 11 (concurrent C, Moss locks, serialized)", passed, completed)

	// E4: reconfiguration invariants + simulation.
	pass = 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs := core.RandomSpec(rng, core.DefaultRandParams())
		spec := reconfig.Spec{Core: cs, NewConfigs: map[string][]quorum.Config{}, ReconfigsPerUser: 1}
		for _, it := range cs.Items {
			spec.NewConfigs[it.Name] = []quorum.Config{
				quorum.ReadOneWriteAll(it.DMs), quorum.Majority(it.DMs),
			}
		}
		b, err := reconfig.BuildB(spec)
		if err != nil {
			return err
		}
		d := ioa.NewDriver(b.Sys, seed+3333)
		d.Bias = abortBias(0.1)
		d.OnStep = b.Checker()
		sched, _, err := d.Run(1_000_000)
		if err != nil {
			return fmt.Errorf("E4 seed %d: %w", seed, err)
		}
		if err := b.CheckSimulation(sched); err != nil {
			return fmt.Errorf("E4 seed %d: %w", seed, err)
		}
		pass++
	}
	fmt.Fprintf(w, "%-55s %d/%d seeds\n", "E4 Reconfiguration invariant + simulation (Section 4)", pass, seeds)
	return nil
}

func abortBias(weight float64) func(ioa.Op) float64 {
	return func(op ioa.Op) float64 {
		if op.Kind == ioa.OpAbort {
			return weight
		}
		return 1
	}
}

// Messages (E5) measures network messages per committed transaction for a
// read-only and a write-only workload across strategies and replica counts.
func Messages(w io.Writer, txns int) error {
	fmt.Fprintf(w, "%-20s %3s  %14s  %14s\n", "configuration", "n", "read msgs/txn", "write msgs/txn")
	for _, kind := range []ConfigKind{KindReadOneWriteAll, KindMajority, KindReadAllWriteOne} {
		for _, n := range []int{3, 5, 7, 9} {
			var perOp [2]float64
			for i, readFrac := range []float64{1, 0} {
				store, net, err := newCluster(n, kind, int64(n)*100+int64(i), 200*time.Microsecond)
				if err != nil {
					return err
				}
				before := net.Stats().Sent
				res, err := workload.Run(context.Background(), store, workload.Profile{
					ReadFraction: readFrac, OpsPerTxn: 1, Items: []string{"x"}, Seed: int64(i),
				}, txns, 1)
				if err != nil {
					store.Close()
					net.Close()
					return err
				}
				perOp[i] = float64(net.Stats().Sent-before) / float64(max(res.Committed, 1))
				store.Close()
				net.Close()
			}
			fmt.Fprintf(w, "%-20s %3d  %14.1f  %14.1f\n", kind, n, perOp[0], perOp[1])
		}
	}
	return nil
}

// Availability (E6) prints exact read/write availability per strategy and
// replica count as the per-DM up-probability varies — the classic Gifford
// trade-off table.
func Availability(w io.Writer) error {
	ps := []float64{0.50, 0.80, 0.90, 0.95, 0.99}
	fmt.Fprintf(w, "%-20s %3s", "configuration", "n")
	for _, p := range ps {
		fmt.Fprintf(w, "  %12s", fmt.Sprintf("p=%.2f", p))
	}
	fmt.Fprintln(w)
	for _, kind := range []ConfigKind{KindReadOneWriteAll, KindMajority, KindReadAllWriteOne} {
		for _, n := range []int{3, 5, 7} {
			dms := dmNames(n)
			cfg := makeConfig(kind, dms)
			fmt.Fprintf(w, "%-20s %3d", kind, n)
			for _, p := range ps {
				a := quorum.ExactAvailability(cfg, quorum.UniformUp(dms, p))
				fmt.Fprintf(w, "  %5.3f/%5.3f", a.Read, a.Write)
			}
			fmt.Fprintln(w)
		}
	}
	// The tree quorum extension, on a complete ternary tree of 13.
	dms := dmNames(13)
	if tq, err := quorum.TreeQuorum(dms, 3); err == nil {
		fmt.Fprintf(w, "%-20s %3d", "tree-quorum (k=3)", 13)
		for _, p := range ps {
			a := quorum.ExactAvailability(tq, quorum.UniformUp(dms, p))
			fmt.Fprintf(w, "  %5.3f/%5.3f", a.Read, a.Write)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(cells are read-availability/write-availability)")
	return nil
}

// Latency (E7a) measures read and write latency per strategy and replica
// count under a simulated-latency network.
func Latency(w io.Writer, txns int) error {
	fmt.Fprintf(w, "%-20s %3s  %12s  %12s\n", "configuration", "n", "read p50", "write p50")
	for _, kind := range []ConfigKind{KindReadOneWriteAll, KindMajority} {
		for _, n := range []int{3, 5, 7} {
			store, net, err := newCluster(n, kind, int64(n), 2*time.Millisecond)
			if err != nil {
				return err
			}
			_, err = workload.Run(context.Background(), store, workload.Profile{
				ReadFraction: 0.5, OpsPerTxn: 2, Items: []string{"x"}, Seed: 1,
			}, txns, 2)
			if err != nil {
				store.Close()
				net.Close()
				return err
			}
			r := store.Stats.ReadLatency.Snapshot()
			wr := store.Stats.WriteLatency.Snapshot()
			fmt.Fprintf(w, "%-20s %3d  %12v  %12v\n", kind, n, r.P50.Round(10*time.Microsecond), wr.P50.Round(10*time.Microsecond))
			store.Close()
			net.Close()
		}
	}
	return nil
}

// Nesting (E7b) measures throughput and tolerated subtransaction aborts as
// nesting depth grows.
func Nesting(w io.Writer, txns int) error {
	fmt.Fprintf(w, "%-6s  %12s  %10s  %10s\n", "depth", "txn/s", "committed", "tolerated")
	for _, depth := range []int{0, 1, 2, 3} {
		store, net, err := newCluster(5, KindMajority, int64(depth)+40, 200*time.Microsecond)
		if err != nil {
			return err
		}
		res, err := workload.Run(context.Background(), store, workload.Profile{
			ReadFraction: 0.5, OpsPerTxn: 2, NestDepth: depth, SubAbortProb: 0.2,
			Items: []string{"x"}, Seed: int64(depth),
		}, txns, 2)
		if err != nil {
			store.Close()
			net.Close()
			return err
		}
		fmt.Fprintf(w, "%-6d  %12.0f  %10d  %10d\n", depth, res.Throughput(), res.Committed, res.Tolerated)
		store.Close()
		net.Close()
	}
	return nil
}

// Faults (E8) crashes replicas mid-run and compares success and latency
// without and with reconfiguration around the failures.
func Faults(w io.Writer, txns int) error {
	fmt.Fprintf(w, "%-34s  %10s  %10s  %12s\n", "phase (n=5, majority)", "committed", "failed", "read p50")
	run := func(store *cluster.Store, label string, seed int64) error {
		before := store.Stats.ReadLatency.Count()
		res, err := workload.Run(context.Background(), store, workload.Profile{
			ReadFraction: 0.7, OpsPerTxn: 2, Items: []string{"x"}, Seed: seed,
		}, txns, 2)
		if err != nil && res.Committed == 0 {
			return err
		}
		snap := store.Stats.ReadLatency.SnapshotAfter(before)
		fmt.Fprintf(w, "%-34s  %10d  %10d  %12v\n", label, res.Committed, res.Failed, snap.P50.Round(10*time.Microsecond))
		return nil
	}
	store, net, err := newCluster(5, KindMajority, 99, 500*time.Microsecond,
		cluster.WithCallTimeout(8*time.Millisecond))
	if err != nil {
		return err
	}
	defer func() {
		store.Close()
		net.Close()
	}()
	if err := run(store, "healthy", 1); err != nil {
		return err
	}
	net.Crash("dm3")
	net.Crash("dm4")
	if err := run(store, "2/5 crashed, no reconfig", 2); err != nil {
		return err
	}
	live := []string{"dm0", "dm1", "dm2"}
	if err := store.Reconfigure(context.Background(), "x", quorum.Majority(live)); err != nil {
		return fmt.Errorf("reconfigure: %w", err)
	}
	if err := run(store, "2/5 crashed, reconfigured to 3", 3); err != nil {
		return err
	}
	net.Restart("dm3")
	net.Restart("dm4")
	if err := store.Reconfigure(context.Background(), "x", quorum.Majority(dmNames(5))); err != nil {
		return fmt.Errorf("reconfigure back: %w", err)
	}
	if err := run(store, "restarted, reconfigured to 5", 4); err != nil {
		return err
	}
	return nil
}
