package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/reconfig"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The benchmarks below regenerate every figure and experiment of
// EXPERIMENTS.md as testing.B targets: F1/F2 are the paper's only figures;
// E1–E4 are the mechanized theorem checks; E5–E8 and A1 are the systems
// experiments DESIGN.md defines. `go test -bench=. -benchmem` runs them
// all; cmd/qcbench prints the same data as tables.

// BenchmarkF1F2_Figures builds both system trees of the paper's figures
// and renders them.
func BenchmarkF1F2_Figures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figures(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_Lemma8SerialRun drives the paper scenario's system B to
// quiescence, checking the Lemma 8 invariant after every step.
func BenchmarkE1_Lemma8SerialRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sysB, err := core.BuildB(core.PaperSpec())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunSerial(sysB, int64(i), 1_000_000, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Theorem10 runs the full simulation check (projection +
// replay against system A) on a fresh random execution each iteration.
func BenchmarkE2_Theorem10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAndCheck(core.PaperSpec(), int64(i), 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Theorem11 drives the concurrent system C and validates the
// serialization chain on completing runs.
func BenchmarkE3_Theorem11(b *testing.B) {
	spec := core.PaperSpec()
	spec.SequentialTMs = true
	spec.ReadAccessesPerDM = 2
	spec.WriteAccessesPerDM = 2
	checked := 0
	for i := 0; i < b.N; i++ {
		c, err := cc.BuildC(spec)
		if err != nil {
			b.Fatal(err)
		}
		d := ioa.NewDriver(c.Sys, int64(i))
		d.Bias = func(op ioa.Op) float64 {
			if op.Kind == ioa.OpAbort {
				return 0.02
			}
			return 1
		}
		gamma, _, err := d.Run(1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if !cc.Completed(c, gamma) {
			continue
		}
		if err := cc.CheckTheorem11(c, gamma); err != nil {
			b.Fatal(err)
		}
		checked++
	}
	b.ReportMetric(float64(checked)/float64(b.N), "checked/op")
}

// BenchmarkE4_Reconfiguration drives the Section 4 system with spies and
// coordinators, verifying the invariant each step and the simulation at
// the end.
func BenchmarkE4_Reconfiguration(b *testing.B) {
	dms := []string{"d1", "d2", "d3", "d4", "d5"}
	spec := reconfig.Spec{
		Core: core.Spec{
			Items: []core.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
			Top: []core.TxnSpec{
				core.Sub("u1", core.WriteItem("w", "x", 1), core.ReadItem("r", "x")),
				core.Sub("u2", core.ReadItem("r", "x")),
			},
		},
		NewConfigs:       map[string][]quorum.Config{"x": {quorum.ReadOneWriteAll(dms), quorum.Majority(dms)}},
		ReconfigsPerUser: 1,
	}
	for i := 0; i < b.N; i++ {
		sys, err := reconfig.BuildB(spec)
		if err != nil {
			b.Fatal(err)
		}
		d := ioa.NewDriver(sys.Sys, int64(i))
		d.OnStep = sys.Checker()
		sched, _, err := d.Run(1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.CheckSimulation(sched); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCluster builds a store over n replicas with the given configuration
// for the cluster benchmarks.
func benchCluster(b *testing.B, n int, cfg func([]string) quorum.Config) (*cluster.Store, *sim.Network) {
	b.Helper()
	dms := make([]string, n)
	for i := range dms {
		dms[i] = fmt.Sprintf("dm%d", i)
	}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 1})
	store, err := cluster.Open(net, []cluster.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: cfg(dms)}},
		cluster.WithCallTimeout(25*time.Millisecond), cluster.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		store.Close()
		net.Close()
	})
	return store, net
}

// benchOps runs b.N transactions of the given kind and reports messages
// per transaction alongside latency (E5/E7 data).
func benchOps(b *testing.B, store *cluster.Store, net *sim.Network, write bool) {
	b.Helper()
	ctx := context.Background()
	before := net.Stats().Sent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := store.Run(ctx, func(tx *cluster.Txn) error {
			if write {
				return tx.Write(ctx, "x", i)
			}
			_, err := tx.Read(ctx, "x")
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Stats().Sent-before)/float64(b.N), "msgs/txn")
}

// E5 + E7a: messages and latency per configuration and replica count.

func BenchmarkE5E7_Read_ReadOneWriteAll_N3(b *testing.B) {
	store, net := benchCluster(b, 3, quorum.ReadOneWriteAll)
	benchOps(b, store, net, false)
}

func BenchmarkE5E7_Read_Majority_N3(b *testing.B) {
	store, net := benchCluster(b, 3, quorum.Majority)
	benchOps(b, store, net, false)
}

func BenchmarkE5E7_Read_Majority_N5(b *testing.B) {
	store, net := benchCluster(b, 5, quorum.Majority)
	benchOps(b, store, net, false)
}

func BenchmarkE5E7_Read_Majority_N7(b *testing.B) {
	store, net := benchCluster(b, 7, quorum.Majority)
	benchOps(b, store, net, false)
}

func BenchmarkE5E7_Write_ReadOneWriteAll_N3(b *testing.B) {
	store, net := benchCluster(b, 3, quorum.ReadOneWriteAll)
	benchOps(b, store, net, true)
}

func BenchmarkE5E7_Write_Majority_N3(b *testing.B) {
	store, net := benchCluster(b, 3, quorum.Majority)
	benchOps(b, store, net, true)
}

func BenchmarkE5E7_Write_Majority_N5(b *testing.B) {
	store, net := benchCluster(b, 5, quorum.Majority)
	benchOps(b, store, net, true)
}

func BenchmarkE5E7_Write_Majority_N7(b *testing.B) {
	store, net := benchCluster(b, 7, quorum.Majority)
	benchOps(b, store, net, true)
}

// BenchmarkE6_AvailabilityExact measures the exact availability analysis
// itself (the E6 table is analytic; this benchmarks its generator).
func BenchmarkE6_AvailabilityExact(b *testing.B) {
	dms := []string{"d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	cfg := quorum.Majority(dms)
	up := quorum.UniformUp(dms, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := quorum.ExactAvailability(cfg, up)
		if a.Read <= 0 {
			b.Fatal("bogus availability")
		}
	}
}

// BenchmarkE7b_NestingDepth2 measures nested-transaction throughput with
// tolerated subtransaction aborts.
func BenchmarkE7b_NestingDepth2(b *testing.B) {
	store, _ := benchCluster(b, 5, quorum.Majority)
	ctx := context.Background()
	b.ResetTimer()
	res, err := workload.Run(ctx, store, workload.Profile{
		ReadFraction: 0.5, OpsPerTxn: 2, NestDepth: 2, SubAbortProb: 0.2,
		Items: []string{"x"}, Seed: 1,
	}, b.N, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput(), "txn/s")
}

// BenchmarkE8_ReadsWithCrashedMinority measures reads while 2 of 5
// replicas are crashed (quorum probes pay timeouts until reconfigured).
func BenchmarkE8_ReadsWithCrashedMinority(b *testing.B) {
	store, net := benchCluster(b, 5, quorum.Majority)
	net.Crash("dm3")
	net.Crash("dm4")
	benchOps(b, store, net, false)
}

// BenchmarkE8_ReadsAfterReconfig measures the same reads after
// reconfiguring to the live replicas.
func BenchmarkE8_ReadsAfterReconfig(b *testing.B) {
	store, net := benchCluster(b, 5, quorum.Majority)
	net.Crash("dm3")
	net.Crash("dm4")
	if err := store.Reconfigure(context.Background(), "x", quorum.Majority([]string{"dm0", "dm1", "dm2"})); err != nil {
		b.Fatal(err)
	}
	benchOps(b, store, net, false)
}

// BenchmarkA1_Reconfigure_OldQuorumOnly prices the paper's reconfiguration
// write rule (footnote 6). The Gifford both-quorums arm it was compared
// against is recorded in EXPERIMENTS.md A1.
func BenchmarkA1_Reconfigure_OldQuorumOnly(b *testing.B) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 1})
	store, err := cluster.Open(net, []cluster.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		cluster.WithCallTimeout(25*time.Millisecond), cluster.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		store.Close()
		net.Close()
	})
	ctx := context.Background()
	before := net.Stats().Sent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := quorum.Majority(dms)
		if i%2 == 1 {
			cfg = quorum.ReadOneWriteAll(dms)
		}
		if err := store.Reconfigure(ctx, "x", cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Stats().Sent-before)/float64(b.N), "msgs/reconfig")
}

// BenchmarkA2_BlindWriteBaseline measures the model-layer cost of the
// correct read-before-write TM against the hypothetical blind-write
// baseline documented in internal/core's A2 test (which demonstrates why
// the read phase is necessary); here we simply benchmark the correct
// write-TM path end to end at the model layer.
func BenchmarkA2_ModelWritePath(b *testing.B) {
	dms := []string{"d1", "d2", "d3"}
	spec := core.Spec{
		Items: []core.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		Top:   []core.TxnSpec{core.Sub("u", core.WriteItem("w", "x", 1))},
	}
	for i := 0; i < b.N; i++ {
		sysB, err := core.BuildB(spec)
		if err != nil {
			b.Fatal(err)
		}
		d := ioa.NewDriver(sysB.Sys, int64(i))
		d.Bias = func(op ioa.Op) float64 {
			if op.Kind == ioa.OpAbort {
				return 0
			}
			return 1
		}
		if _, _, err := d.Run(1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomSpecGeneration exercises the scenario generator used by
// every property test.
func BenchmarkRandomSpecGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		spec := core.RandomSpec(rng, core.DefaultRandParams())
		if len(spec.Items) == 0 {
			b.Fatal("empty spec")
		}
	}
}

// E10: phase latency under a skewed network. One of five replicas answers
// in 30–40ms while the rest answer in microseconds; majority quorums never
// need the straggler. The sequential path queries one shuffled quorum per
// attempt, so ~6/10 attempts include the straggler and wait for it. The
// default path asks one quorum too, but a first quorum holding the
// straggler widens to the other replicas when the hedge timer fires, and
// after a few such misses the straggler is a suspect no first quorum holds.
// Compare the reported p50-us/p99-us metrics.

func benchStraggler(b *testing.B, opts ...cluster.Option) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 1})
	net.SetNodeLatency("dm4", 30*time.Millisecond, 40*time.Millisecond)
	store, err := cluster.Open(net, []cluster.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		append([]cluster.Option{cluster.WithSeed(1), cluster.WithCallTimeout(100 * time.Millisecond)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		store.Close()
		net.Close()
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := store.Run(ctx, func(tx *cluster.Txn) error {
			_, err := tx.Read(ctx, "x")
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := store.Stats.ReadPhaseLatency.Snapshot()
	b.ReportMetric(float64(s.P50.Microseconds()), "p50-us")
	b.ReportMetric(float64(s.P99.Microseconds()), "p99-us")
}

func BenchmarkE10_StragglerRead_FirstToQuorum(b *testing.B) {
	benchStraggler(b)
}

func BenchmarkE10_StragglerRead_SequentialQuorums(b *testing.B) {
	benchStraggler(b, cluster.WithSequentialPhases(true))
}

// E12: group commit vs per-record fsync. Both variants append the same
// 64-byte records to a real on-disk WAL with fsync on; the baseline syncs
// after every record, group commit lets concurrent appenders share one
// fsync (a flush leader syncs everything framed since the last round and
// waiters piggyback). The reported batch-size metric is the realized
// records-per-fsync ratio.

func benchWAL(b *testing.B, parallel bool, opts ...wal.Option) {
	log, _, err := wal.Open(b.TempDir(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { log.Close() })
	payload := make([]byte, 64)
	b.ResetTimer()
	if parallel {
		// Many appender goroutines per core: group commit's win is batching
		// concurrent appends behind one fsync, and the leader blocks in the
		// sync syscall, so waiters accumulate even on a single core.
		b.SetParallelism(32)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := log.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	} else {
		for i := 0; i < b.N; i++ {
			if err := log.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	m := log.Metrics()
	if f := m.Flushes.Value(); f > 0 {
		b.ReportMetric(float64(m.Appends.Value())/float64(f), "records/fsync")
	}
}

func BenchmarkE12_WAL_FsyncEachRecord(b *testing.B) {
	benchWAL(b, false, wal.WithGroupCommit(false))
}

// E13: self-healing. The reap-latency benchmark measures the full orphan
// recovery cycle — a crashed client's write locks wedge the item, the lease
// lapses, and the next conflicting writer is told who is in its way, asks
// every replica and presumes the orphan aborted before its retry succeeds.

// BenchmarkE13_OrphanReapLatency: one orphan planted and reaped per
// iteration; reaps/op confirms every iteration actually resolved one
// (1 = the blocked writer presumed it aborted, once, for every replica).
func BenchmarkE13_OrphanReapLatency(b *testing.B) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 1})
	clk := sim.NewManualClock(time.Unix(0, 0))
	store, err := cluster.Open(net, []cluster.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		cluster.WithSeed(1), cluster.WithCallTimeout(25*time.Millisecond),
		cluster.WithClock(clk), cluster.WithRetryBackoff(time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		store.Close()
		net.Close()
	})
	ctx := context.Background()
	before := store.Stats.OrphanReapsAborted.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.PlantOrphan(ctx, "x"); err != nil {
			b.Fatal(err)
		}
		clk.Advance(cluster.LeaseTTL + time.Millisecond)
		if err := store.Run(ctx, func(tx *cluster.Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(store.Stats.OrphanReapsAborted.Value()-before)/float64(b.N), "reaps/op")
}

func BenchmarkE12_WAL_GroupCommit(b *testing.B) {
	benchWAL(b, true)
}

// E14: overload robustness. Each benchmark runs one arm of the overload
// experiment (finite service capacity, per-transaction deadlines) and
// reports the goodput / shed / expired-on-arrival series: a healthy
// cluster at capacity, the full protection stack (bounded admission,
// deadline propagation with its expired-work discard, AIMD concurrency
// limit) under 2x load, and 2x load with every protection ablated —
// unbounded queues that serve expired work. Compare goodput-txn/s across
// the three: the protected 2x arm holds near capacity, the ablation
// collapses. The leave-one-out arms (E36) run through qchaos -overload.

func benchOverloadArm(b *testing.B, arm string) {
	ctx := context.Background()
	var committed int
	var shed, expired, served int64
	var elapsed time.Duration
	var last chaos.OverloadArm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chaos.RunOverloadArm(ctx, chaos.OverloadConfig{Seed: int64(i + 1)}, arm)
		if err != nil {
			b.Fatal(err)
		}
		committed += res.Committed
		shed += res.Shed
		expired += res.ExpiredOnArrival
		served += res.ServedExpired
		elapsed += res.Elapsed
		last = res
	}
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(committed)/elapsed.Seconds(), "goodput-txn/s")
	}
	b.ReportMetric(float64(shed)/float64(b.N), "shed/op")
	b.ReportMetric(float64(expired)/float64(b.N), "expired-on-arrival/op")
	b.ReportMetric(float64(served)/float64(b.N), "served-expired/op")
	b.ReportMetric(float64(last.P99.Microseconds()), "p99-us")
}

func BenchmarkE14_Goodput_Capacity(b *testing.B) {
	benchOverloadArm(b, "capacity")
}

func BenchmarkE14_Goodput_Overload2x(b *testing.B) {
	benchOverloadArm(b, "overload")
}

func BenchmarkE14_Goodput_Ablation2x(b *testing.B) {
	benchOverloadArm(b, "ablation")
}

// The no-fsync variant isolates the cost of stability itself: it is the
// simulated-crash harness configuration, where a crash loses memory but
// not the page cache.
func BenchmarkE12_WAL_NoFsync(b *testing.B) {
	benchWAL(b, true, wal.WithFsync(false))
}

// E16: sharded scale-out. Each benchmark runs one arm of the shard-scale
// experiment — the identical 95/5 zipfian closed-loop workload against 1,
// 2, 4 or 8 replica groups, every replica behind the same simulated
// service time — and reports throughput plus the read-latency quantiles.
// Compare txn/s across arms: with fixed offered load and per-replica
// capacity, throughput must rise with the group count (the qchaos
// -shardscale gate requires 4-shard >= 2.5x 1-shard) while read p99
// falls as queues drain.
func benchShardScaleArm(b *testing.B, shards int) {
	ctx := context.Background()
	var committed, failed int
	var elapsed time.Duration
	var last chaos.ShardScaleArm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arm, err := chaos.RunShardScaleArm(ctx, chaos.ShardScaleConfig{Seed: int64(i + 1)}, shards)
		if err != nil {
			b.Fatal(err)
		}
		committed += arm.Committed
		failed += arm.Failed
		elapsed += arm.Elapsed
		last = arm
	}
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(committed)/elapsed.Seconds(), "txn/s")
	}
	b.ReportMetric(float64(failed)/float64(b.N), "failed/op")
	b.ReportMetric(float64(last.ReadP50.Microseconds()), "read-p50-us")
	b.ReportMetric(float64(last.ReadP99.Microseconds()), "read-p99-us")
}

func BenchmarkE16_ShardScale_1(b *testing.B) { benchShardScaleArm(b, 1) }
func BenchmarkE16_ShardScale_2(b *testing.B) { benchShardScaleArm(b, 2) }
func BenchmarkE16_ShardScale_4(b *testing.B) { benchShardScaleArm(b, 4) }
func BenchmarkE16_ShardScale_8(b *testing.B) { benchShardScaleArm(b, 8) }

// E17: non-blocking commit. The clean-path pairs price what Paxos Commit's
// extra fan-out costs a healthy write transaction — one ballot-0 accept
// round at the acceptor cohort between the write phase and the commit
// broadcast. Compare msgs/txn and ns/op against the TwoPhase arm at the
// same replica count. Reads are identical under both protocols (a
// read-only transaction has no acceptor cohort), so only writes are paired.

func benchE17Cluster(b *testing.B, n int, proto commit.Protocol) (*cluster.Store, *sim.Network) {
	b.Helper()
	dms := make([]string, n)
	for i := range dms {
		dms[i] = fmt.Sprintf("dm%d", i)
	}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 1})
	store, err := cluster.Open(net, []cluster.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		cluster.WithCallTimeout(25*time.Millisecond), cluster.WithSeed(1),
		cluster.WithCommitProtocol(proto))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		store.Close()
		net.Close()
	})
	return store, net
}

func BenchmarkE17_Write_TwoPhase_N3(b *testing.B) {
	store, net := benchE17Cluster(b, 3, commit.TwoPhase)
	benchOps(b, store, net, true)
}

func BenchmarkE17_Write_Paxos_N3(b *testing.B) {
	store, net := benchE17Cluster(b, 3, commit.PaxosCommit)
	benchOps(b, store, net, true)
}

func BenchmarkE17_Write_TwoPhase_N5(b *testing.B) {
	store, net := benchE17Cluster(b, 5, commit.TwoPhase)
	benchOps(b, store, net, true)
}

func BenchmarkE17_Write_Paxos_N5(b *testing.B) {
	store, net := benchE17Cluster(b, 5, commit.PaxosCommit)
	benchOps(b, store, net, true)
}

// BenchmarkE17_InDoubt_* measures the in-doubt window in the one scenario
// 2PC cannot shrink: the coordinator dies partway through the commit
// broadcast (exactly one replica learned the outcome), and that knowing
// replica then crashes. Under 2PC the blocked client cannot presume abort —
// a silent replica might hold the commit, and here it does — so the item
// stays wedged until the knowing replica returns (the harness restarts it
// after three lease TTLs). Paxos Commit reconstructs the decision from the
// surviving acceptor majority at the first conflict. The
// ttl-rounds-to-writable metric is the window: expect 1 for Paxos and 4
// for 2PC (three stalled rounds plus one after the restart).
func benchE17InDoubt(b *testing.B, proto commit.Protocol) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 1})
	clk := sim.NewManualClock(time.Unix(0, 0))
	store, err := cluster.Open(net, []cluster.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		cluster.WithSeed(1), cluster.WithCallTimeout(25*time.Millisecond),
		cluster.WithClock(clk), cluster.WithRetryBackoff(time.Millisecond),
		cluster.WithCommitProtocol(proto))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		store.Close()
		net.Close()
	})
	ctx := context.Background()
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, cerr := store.CrashCommit(ctx, "x", i, cluster.CommitCrashOptions{
			Stage: cluster.CommitCrashMidLearn, Deliver: 1,
		})
		if !errors.Is(cerr, cluster.ErrCommitAbandoned) {
			b.Fatal(cerr)
		}
		if rep.Learned != 1 {
			b.Fatalf("%d replicas learned, want exactly 1", rep.Learned)
		}
		learned := ""
		for _, dm := range rep.DMs {
			if p, perr := store.ResolutionProbe(ctx, dm, rep.Txn); perr == nil && p.Known {
				learned = dm
				break
			}
		}
		if learned == "" {
			b.Fatal("no replica knows the outcome")
		}
		net.Crash(learned)
		down := true
		for r := 1; ; r++ {
			clk.Advance(cluster.LeaseTTL + time.Millisecond)
			if serr := store.ResolveOrphans(ctx); serr != nil {
				b.Fatal(serr)
			}
			net.Quiesce()
			werr := store.Run(ctx, func(tx *cluster.Txn) error { return tx.Write(ctx, "x", i) })
			if werr == nil {
				rounds += r
				break
			}
			if r == 3 {
				// Give 2PC its blocked window back: the knowing replica
				// returns, the next probe round finds the commit record and
				// re-serves it to the stragglers.
				net.Restart(learned)
				down = false
			}
			if r > 6 {
				b.Fatalf("item never unwedged: %v", werr)
			}
		}
		if down {
			net.Restart(learned)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/float64(b.N), "ttl-rounds-to-writable")
}

func BenchmarkE17_InDoubt_TwoPhase(b *testing.B) {
	benchE17InDoubt(b, commit.TwoPhase)
}

func BenchmarkE17_InDoubt_Paxos(b *testing.B) {
	benchE17InDoubt(b, commit.PaxosCommit)
}

// E18: storage-fault recovery. Each iteration builds a durable 3-replica
// cluster, commits a write history, then destroys one replica's log on
// disk — a seeded bit flip through the fault-injecting filesystem — and
// restarts it, which detects the damage at recovery and quarantines the
// replica. Only the quorum peer rebuild is timed: move the damaged log
// aside, pull certified state from every peer, merge at the maximum
// version per item, re-seed a synthetic snapshot, rejoin. The metrics
// qualify the transfer (items and resolution records restored per
// rebuild) and prove the rebuilt replica rejoined writable.
func BenchmarkE18_PeerRebuild(b *testing.B) {
	ctx := context.Background()
	dms := []string{"dm0", "dm1", "dm2"}
	var items, resolved int
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		ffs := wal.NewFaultFS(int64(i + 1))
		dir := b.TempDir()
		net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: int64(i + 1)})
		store, err := cluster.Open(net, []cluster.ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
			cluster.WithCallTimeout(25*time.Millisecond), cluster.WithSeed(int64(i+1)),
			cluster.WithDurability(dir),
			cluster.WithWALOptions(wal.WithFsync(false), wal.WithFS(ffs), wal.WithSegmentBytes(256)))
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j <= 16; j++ {
			if err := store.Run(ctx, func(tx *cluster.Txn) error { return tx.Write(ctx, "x", j) }); err != nil {
				b.Fatal(err)
			}
		}
		if err := store.StopDM("dm0"); err != nil {
			b.Fatal(err)
		}
		if _, _, hit, cerr := ffs.CorruptSegmentFrame(filepath.Join(dir, "dm0")); cerr != nil || !hit {
			b.Fatalf("corrupt: hit=%v err=%v", hit, cerr)
		}
		if _, err := store.RestartDM("dm0"); err != nil {
			b.Fatal(err)
		}
		if qs := store.QuarantinedDMs(); len(qs) != 1 {
			b.Fatalf("quarantined %v, want exactly dm0", qs)
		}
		b.StartTimer()
		st, rerr := store.RebuildReplica(ctx, "dm0")
		b.StopTimer()
		if rerr != nil {
			b.Fatal(rerr)
		}
		items += st.Items
		resolved += st.Resolved
		if err := store.Run(ctx, func(tx *cluster.Txn) error { return tx.Write(ctx, "x", 99) }); err != nil {
			b.Fatal(err)
		}
		if qs := store.QuarantinedDMs(); len(qs) != 0 {
			b.Fatalf("still quarantined after rebuild: %v", qs)
		}
		store.Close()
		net.Close()
	}
	b.ReportMetric(float64(items)/float64(b.N), "items/rebuild")
	b.ReportMetric(float64(resolved)/float64(b.N), "resolved/rebuild")
}
