package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/quorum"
	"repro/internal/sim"
)

// OverloadConfig parameterizes the overload experiment (E14, E36): a
// capacity arm, the protected arm under 2x load, one leave-one-out arm per
// protection and the ablation. Zero values take the defaults noted on each
// field.
type OverloadConfig struct {
	// Seed drives workload content (item choice per worker). The experiment
	// measures wall-clock goodput, so unlike a campaign it is reproducible
	// in distribution, not bit for bit.
	Seed int64
	// Items (default 2) and Replicas (default 3) shape the cluster.
	Items    int
	Replicas int
	// Workers is the capacity arm's concurrency (default 12); every other
	// arm runs 2x. A read asks one quorum, two of the three replicas, and
	// leaves no copy behind to be served after its caller gave up, so it
	// takes twelve workers to hold the replicas at capacity; at six, twice
	// the load never makes the ablated queues outlast a deadline.
	Workers int
	// TxnsPerWorker is how many transactions each worker attempts
	// (default 60).
	TxnsPerWorker int
	// ServiceTime is the simulated per-request service delay at every
	// replica (default 2ms) — it is what makes service capacity finite. It
	// is deliberately large so queueing physics, not host CPU contention,
	// decides the outcome.
	ServiceTime time.Duration
	// Deadline is each transaction's end-to-end budget (default 25ms),
	// propagated through every hop.
	Deadline time.Duration
	// AdmitCapacity is the replica admission queue bound wherever the
	// queue bound is on (default 2); where it is off the queue is
	// effectively unbounded.
	AdmitCapacity int
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Items <= 0 {
		c.Items = 2
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Workers <= 0 {
		c.Workers = 12
	}
	if c.TxnsPerWorker <= 0 {
		c.TxnsPerWorker = 60
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 2 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 25 * time.Millisecond
	}
	if c.AdmitCapacity <= 0 {
		c.AdmitCapacity = 2
	}
	return c
}

// OverloadArm is one arm's outcome.
type OverloadArm struct {
	Name    string
	Workers int
	// Offered is transactions attempted; Committed is transactions that
	// finished inside their deadline — the goodput numerator.
	Offered   int
	Committed int
	// Client-side failure classes: Overloaded (typed fast rejections),
	// Expired (the transaction's own deadline lapsed), Other.
	Overloaded int
	Expired    int
	Other      int
	// Replica-side admission verdicts, summed over all DMs: requests shed
	// at a full queue, admitted requests discarded at dequeue because their
	// deadline had lapsed, and — where the discard is off — expired
	// requests served anyway (dead work burning real service capacity).
	Shed             int64
	ExpiredOnArrival int64
	ServedExpired    int64
	// PeakQueue is the deepest any DM's admission queue got
	// (Stats.QueueDepth's maximum); Limit is the AIMD limiter's in-flight
	// ceiling at the end of the arm, 0 where no limiter runs.
	PeakQueue int64
	Limit     int64
	// P50/P99 are latency quantiles of committed transactions only: the
	// experience of admitted work.
	P50, P99 time.Duration
	Elapsed  time.Duration
	// Goodput is committed transactions per second of wall time.
	Goodput float64
}

// The protections an arm can run with, each on or off: the bounded
// admission queue, the discard of expired work at dequeue, and the AIMD
// in-flight limiter (DESIGN.md §7).
type protections struct{ queueBound, expiredDiscard, limiter bool }

var allProtections = protections{true, true, true}

// overloadArms names every arm in the order RunOverload runs them, with its
// load (a multiple of Workers) and the protections it keeps. Each
// leave-one-out arm is the protected 2x arm with exactly one protection
// off; the ablation turns all of them off.
var overloadArms = []struct {
	name string
	load int
	on   protections
}{
	{"capacity", 1, allProtections},
	{"overload", 2, allProtections},
	{"no-queue-bound", 2, protections{false, true, true}},
	{"serve-expired", 2, protections{true, false, true}},
	{"no-limiter", 2, protections{true, true, false}},
	{"ablation", 2, protections{}},
}

// OverloadResult is the comparison of every arm: a healthy cluster at
// capacity, the protections under 2x load, the three leave-one-out arms,
// and 2x load with every protection ablated.
type OverloadResult struct {
	Capacity OverloadArm
	Overload OverloadArm
	// NoQueueBound, ServeExpired and NoLimiter are the leave-one-out arms:
	// what each protection buys shows against Overload on its own signal.
	NoQueueBound OverloadArm
	ServeExpired OverloadArm
	NoLimiter    OverloadArm
	Ablation     OverloadArm
}

// Arms lists r's arms in the order RunOverload runs them.
func (r *OverloadResult) Arms() []*OverloadArm {
	return []*OverloadArm{&r.Capacity, &r.Overload, &r.NoQueueBound, &r.ServeExpired, &r.NoLimiter, &r.Ablation}
}

// RunOverload runs every arm back to back, each on a fresh cluster.
func RunOverload(ctx context.Context, cfg OverloadConfig) (OverloadResult, error) {
	var res OverloadResult
	for i, arm := range res.Arms() {
		var err error
		if *arm, err = RunOverloadArm(ctx, cfg, overloadArms[i].name); err != nil {
			return res, err
		}
	}
	return res, nil
}

// RunOverloadArm runs one named arm in isolation, for benchmarks that want
// per-arm series; RunOverload composes all of them and Check gates on the
// comparison.
func RunOverloadArm(ctx context.Context, cfg OverloadConfig, arm string) (OverloadArm, error) {
	cfg = cfg.withDefaults()
	for _, a := range overloadArms {
		if a.name == arm {
			return runOverloadArm(ctx, cfg, arm, a.load*cfg.Workers, a.on)
		}
	}
	return OverloadArm{}, fmt.Errorf("chaos: unknown overload arm %q", arm)
}

// Check is the E14 gate with E36's leave-one-out margins: under 2x load
// the protections must hold goodput within 20% of single-load capacity
// without ever serving expired work, admitted work's p99 must not blow up,
// the ablation must demonstrate the meltdown the protections exist to
// prevent, and each protection must show what it buys on its own signal —
// the limiter on goodput, the expired discard on expired work served, the
// queue bound on the p50 of admitted work.
func (r OverloadResult) Check() error {
	c, o, a := r.Capacity, r.Overload, r.Ablation
	if c.Committed == 0 {
		return fmt.Errorf("overload: capacity arm committed nothing")
	}
	if o.Goodput < 0.8*c.Goodput {
		return fmt.Errorf("overload: goodput at 2x load = %.0f txn/s, want >= 80%% of capacity (%.0f txn/s)",
			o.Goodput, c.Goodput)
	}
	if c.ServedExpired != 0 || o.ServedExpired != 0 {
		return fmt.Errorf("overload: protected arms served expired work (capacity=%d overload=%d), want zero",
			c.ServedExpired, o.ServedExpired)
	}
	if o.Shed == 0 {
		return fmt.Errorf("overload: 2x load shed nothing — admission never engaged, the arm proves nothing")
	}
	if o.P99 > 5*c.P99+5*time.Millisecond {
		return fmt.Errorf("overload: p99 of admitted work regressed %v -> %v under 2x load", c.P99, o.P99)
	}
	if a.ServedExpired == 0 {
		return fmt.Errorf("overload: ablation served no expired work — the meltdown mechanism never engaged")
	}
	if a.Goodput >= 0.8*o.Goodput {
		return fmt.Errorf("overload: ablation goodput %.0f txn/s did not collapse below protected %.0f txn/s",
			a.Goodput, o.Goodput)
	}
	if n := r.NoLimiter; n.Goodput >= 0.8*o.Goodput {
		return fmt.Errorf("overload: goodput without the limiter %.0f txn/s not below 80%% of protected %.0f txn/s — the limiter bought nothing",
			n.Goodput, o.Goodput)
	}
	if r.ServeExpired.ServedExpired == 0 {
		return fmt.Errorf("overload: with expired work served no expired work was served — the discard bought nothing")
	}
	if u := r.NoQueueBound; 2*u.P50 < 3*o.P50 {
		return fmt.Errorf("overload: p50 of admitted work with an unbounded queue %v not 1.5x protected %v — the queue bound bought nothing",
			u.P50, o.P50)
	}
	return nil
}

func runOverloadArm(ctx context.Context, cfg OverloadConfig, name string, workers int, on protections) (OverloadArm, error) {
	net := sim.NewNetwork(sim.Config{Seed: cfg.Seed})
	defer net.Close()
	items := make([]cluster.ItemSpec, cfg.Items)
	names := make([]string, cfg.Items)
	for i := range items {
		n := fmt.Sprintf("x%d", i)
		dms := make([]string, cfg.Replicas)
		for j := range dms {
			dms[j] = fmt.Sprintf("%s-dm%d", n, j)
		}
		items[i] = cluster.ItemSpec{Name: n, Initial: 0, DMs: dms, Config: quorum.Majority(dms)}
		names[i] = n
	}
	// A queue too deep to ever shed stands for the queue bound's absence.
	capacity := 1 << 20
	if on.queueBound {
		capacity = cfg.AdmitCapacity
	}
	limit := 0
	if on.limiter {
		limit = workers
	}
	store, err := cluster.Open(net, items,
		cluster.WithSeed(cfg.Seed),
		cluster.WithCallTimeout(time.Second), // backstop; the deadline clamps it
		cluster.WithHedgeDelay(0),            // phases widen only on a refusal: timed widening would amplify offered load
		cluster.WithServiceTime(cfg.ServiceTime),
		cluster.WithLockRetries(2),
		cluster.WithTxnRetries(0),
		cluster.WithAdmissionCapacity(capacity),
		cluster.WithExpiredService(!on.expiredDiscard),
		cluster.WithInflightLimit(limit),
	)
	if err != nil {
		return OverloadArm{}, err
	}
	defer store.Close()

	arm := OverloadArm{Name: name, Workers: workers}
	var mu sync.Mutex
	var lat []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(CampaignSeed(cfg.Seed, w)))
			for i := 0; i < cfg.TxnsPerWorker; i++ {
				if ctx.Err() != nil {
					return
				}
				item := names[rng.Intn(len(names))]
				tctx, cancel := context.WithTimeout(ctx, cfg.Deadline)
				t0 := time.Now()
				rerr := store.Run(tctx, func(tx *cluster.Txn) error {
					_, err := tx.Read(tctx, item)
					return err
				})
				d := time.Since(t0)
				cancel()
				mu.Lock()
				arm.Offered++
				switch {
				case rerr == nil:
					arm.Committed++
					lat = append(lat, d)
				case errors.Is(rerr, cluster.ErrOverloaded):
					arm.Overloaded++
				case errors.Is(rerr, context.DeadlineExceeded):
					arm.Expired++
				default:
					arm.Other++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	arm.Elapsed = time.Since(start)
	if arm.Elapsed > 0 {
		arm.Goodput = float64(arm.Committed) / arm.Elapsed.Seconds()
	}
	totals := store.OverloadTotals()
	arm.Shed = totals.Shed
	arm.ExpiredOnArrival = totals.ExpiredDropped
	arm.ServedExpired = totals.ServedExpired
	arm.PeakQueue = store.Stats.QueueDepth.Snapshot().Max
	arm.Limit = store.Stats.InflightLimit.Value()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		arm.P50 = lat[len(lat)/2]
		arm.P99 = lat[len(lat)*99/100]
	}
	return arm, ctx.Err()
}
