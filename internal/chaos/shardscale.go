package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ShardScaleConfig parameterizes the shard scale-out experiment (E16):
// the same read-heavy zipfian workload driven against clusters of 1, 2, 4
// and 8 shards (replica groups), each replica behind a finite simulated
// service time, so throughput is bounded by aggregate service capacity —
// the thing sharding is supposed to scale. Zero values take the defaults
// noted on each field.
type ShardScaleConfig struct {
	// Seed drives key placement and workload content. Like E14 the
	// experiment measures wall-clock throughput, so it is reproducible in
	// distribution, not bit for bit.
	Seed int64
	// Shards lists the arm sizes (default 1, 2, 4, 8 groups).
	Shards []int
	// Replicas is the number of DMs per group (default 3, majority quorums).
	Replicas int
	// Keys is the keyspace size (default 128: wide enough that even the
	// zipfian head spreads across shards once ranks are striped).
	Keys int
	// Workers is the closed-loop client concurrency, identical across arms
	// (default 8): enough to saturate the 1-shard arm's service capacity
	// while the same load spread over 4 groups leaves headroom — the
	// throughput gain and the latency relief are the measurement.
	Workers int
	// TxnsPerWorker is how many transactions each worker drives
	// (default 80).
	TxnsPerWorker int
	// ServiceTime is the simulated per-request service delay at every
	// replica (default 1.2ms): large enough that queueing at saturated
	// groups, not host CPU contention, decides each arm's throughput. A
	// read asks two of a group's three replicas; at 400µs one group then
	// served reads so fast that four groups outran a 2-core host, and the
	// 4-shard arm measured the host instead of the replicas.
	ServiceTime time.Duration
	// ReadFraction (default 0.95) and Theta (default 0.9) shape the 95/5
	// zipfian mix. The theta default sits below YCSB's 0.99 deliberately:
	// at 0.99 a quarter of all traffic lands on one key, and the exclusive
	// write lock on that key — not service capacity — becomes the
	// bottleneck, which no amount of sharding removes (or should appear
	// to).
	ReadFraction float64
	Theta        float64
}

func (c ShardScaleConfig) withDefaults() ShardScaleConfig {
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Keys <= 0 {
		c.Keys = 128
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.TxnsPerWorker <= 0 {
		c.TxnsPerWorker = 80
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 1200 * time.Microsecond
	}
	if c.ReadFraction <= 0 {
		c.ReadFraction = 0.95
	}
	if c.Theta <= 0 {
		c.Theta = 0.9
	}
	return c
}

// ShardScaleArm is one arm's outcome.
type ShardScaleArm struct {
	Shards    int
	Replicas  int
	Workers   int
	Committed int
	Failed    int
	// Throughput is committed transactions per second of wall time. P50 and
	// P99 are latency quantiles over all committed transactions; ReadP50
	// and ReadP99 restrict to read-only transactions — the gated series,
	// since the all-txn tail is writer lock-wait on the zipfian head, a
	// contention cost sharding does not claim to remove.
	Throughput       float64
	P50, P99         time.Duration
	ReadP50, ReadP99 time.Duration
	Elapsed          time.Duration
}

// ShardScaleResult holds every arm, smallest first.
type ShardScaleResult struct {
	Arms []ShardScaleArm
}

// Arm returns the arm with the given shard count.
func (r ShardScaleResult) Arm(shards int) (ShardScaleArm, bool) {
	for _, a := range r.Arms {
		if a.Shards == shards {
			return a, true
		}
	}
	return ShardScaleArm{}, false
}

// Check is the E16 gate: scale-out must actually scale. With identical
// offered load and per-replica service capacity, the 4-shard arm must
// deliver at least 2.5x the 1-shard arm's throughput, and the latency of
// committed (read-dominated) work must not regress — more capacity can
// only shorten queues. A generous absolute allowance keeps scheduler
// noise on loaded CI hosts from failing a healthy run.
func (r ShardScaleResult) Check() error {
	one, ok1 := r.Arm(1)
	four, ok4 := r.Arm(4)
	if !ok1 || !ok4 {
		return fmt.Errorf("shardscale: need 1- and 4-shard arms to gate (have %d arms)", len(r.Arms))
	}
	for _, a := range r.Arms {
		if a.Committed == 0 {
			return fmt.Errorf("shardscale: %d-shard arm committed nothing", a.Shards)
		}
		if a.Failed*20 > a.Committed {
			return fmt.Errorf("shardscale: %d-shard arm failed %d of %d transactions — beyond starved hot-key writers",
				a.Shards, a.Failed, a.Committed+a.Failed)
		}
	}
	if four.Throughput < 2.5*one.Throughput {
		return fmt.Errorf("shardscale: 4-shard throughput %.0f txn/s < 2.5x 1-shard %.0f txn/s",
			four.Throughput, one.Throughput)
	}
	if four.ReadP99 > one.ReadP99+one.ReadP99/2+2*time.Millisecond {
		return fmt.Errorf("shardscale: read p99 regressed %v -> %v going 1 -> 4 shards", one.ReadP99, four.ReadP99)
	}
	return nil
}

// RunShardScale runs every arm back to back, each on a fresh cluster.
func RunShardScale(ctx context.Context, cfg ShardScaleConfig) (ShardScaleResult, error) {
	cfg = cfg.withDefaults()
	var res ShardScaleResult
	for _, n := range cfg.Shards {
		arm, err := RunShardScaleArm(ctx, cfg, n)
		if err != nil {
			return res, fmt.Errorf("shardscale: %d-shard arm: %w", n, err)
		}
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}

// RunShardScaleArm runs one arm — a fresh sharded cluster of n replica
// groups under the configured workload — in isolation, for benchmarks
// that want per-arm series; RunShardScale composes the sweep and Check
// gates on the comparison.
func RunShardScaleArm(ctx context.Context, cfg ShardScaleConfig, n int) (ShardScaleArm, error) {
	cfg = cfg.withDefaults()
	if n <= 0 {
		return ShardScaleArm{}, fmt.Errorf("chaos: shard arm size %d", n)
	}
	groups := make([]shard.Group, n)
	for i := range groups {
		dms := make([]string, cfg.Replicas)
		for j := range dms {
			dms[j] = fmt.Sprintf("g%d-dm%d", i, j)
		}
		groups[i] = shard.Group{Name: fmt.Sprintf("g%d", i), DMs: dms}
	}
	ring, err := shard.New(cfg.Seed, 64, groups)
	if err != nil {
		return ShardScaleArm{}, err
	}
	keys := shard.Keys("k", cfg.Keys)
	// Consistent hashing balances key count, not key heat: a zipfian head
	// that the hash happens to co-locate would measure placement luck, not
	// scale-out. Stripe ranks round-robin instead — the balanced placement
	// an operator converges on with MigrateShard once heat is known.
	for i, k := range keys {
		if err := ring.MoveKey(k, fmt.Sprintf("g%d", i%n)); err != nil {
			return ShardScaleArm{}, err
		}
	}
	items, err := cluster.ShardItems(ring, keys, 0)
	if err != nil {
		return ShardScaleArm{}, err
	}
	net := sim.NewNetwork(sim.Config{Seed: cfg.Seed})
	defer net.Close()
	store, err := cluster.Open(net, items,
		cluster.WithSeed(cfg.Seed),
		cluster.WithCallTimeout(time.Second),
		cluster.WithHedgeDelay(0), // phases widen only on a refusal: timed widening would inflate offered load
		// The service delay only bites behind an admission queue (that is
		// where the single service goroutine lives); a deep bound keeps the
		// finite service rate without ever shedding the closed-loop load.
		cluster.WithAdmissionCapacity(1024),
		cluster.WithServiceTime(cfg.ServiceTime),
		cluster.WithRing(ring),
		// The 5% writes collide on the zipfian head; generous retries with a
		// short backoff let them serialize instead of failing the run.
		cluster.WithLockRetries(10),
		cluster.WithTxnRetries(10),
		cluster.WithRetryBackoff(500*time.Microsecond),
	)
	if err != nil {
		return ShardScaleArm{}, err
	}
	defer store.Close()

	workers := cfg.Workers
	wres, werr := workload.Run(ctx, store, workload.Profile{
		ReadFraction: cfg.ReadFraction,
		OpsPerTxn:    1, // single-key txns: the scaling measurement; cross-shard txns are TestCrossShardRun's job
		Items:        keys,
		Distribution: workload.DistZipfian,
		Theta:        cfg.Theta,
		Seed:         CampaignSeed(cfg.Seed, n),
	}, workers*cfg.TxnsPerWorker, workers)
	if werr != nil && !errors.Is(werr, cluster.ErrConflict) {
		// Conflict-exhausted writes are starved writers on the zipfian
		// head — shed load the arm reports (Failed) and Check bounds, not
		// a harness failure. Anything else is.
		return ShardScaleArm{}, werr
	}
	return ShardScaleArm{
		Shards:     n,
		Replicas:   cfg.Replicas,
		Workers:    workers,
		Committed:  wres.Committed,
		Failed:     wres.Failed,
		Throughput: wres.Throughput(),
		P50:        wres.P50,
		P99:        wres.P99,
		ReadP50:    wres.ReadP50,
		ReadP99:    wres.ReadP99,
		Elapsed:    wres.Elapsed,
	}, ctx.Err()
}
