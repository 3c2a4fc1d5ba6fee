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

// OverloadConfig parameterizes the three-arm overload experiment (E14).
// Zero values take the defaults noted on each field.
type OverloadConfig struct {
	// Seed drives workload content (item choice per worker). The experiment
	// measures wall-clock goodput, so unlike a campaign it is reproducible
	// in distribution, not bit for bit.
	Seed int64
	// Items (default 2) and Replicas (default 3) shape the cluster.
	Items    int
	Replicas int
	// Workers is the capacity arm's concurrency (default 12); the overload
	// and ablation arms run 2x. A read asks one quorum, two of the three
	// replicas, and leaves no copy behind to be served after its caller
	// gave up, so it takes twelve workers to hold the replicas at capacity;
	// at six, twice the load never makes the ablated queues outlast a
	// deadline.
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
	// AdmitCapacity is the replica admission queue bound on the protected
	// arms (default 2). The ablation arm runs effectively unbounded.
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
	// deadline had lapsed, and — ablation only — expired requests served
	// anyway (dead work burning real service capacity).
	Shed             int64
	ExpiredOnArrival int64
	ServedExpired    int64
	// P50/P99 are latency quantiles of committed transactions only: the
	// experience of admitted work.
	P50, P99 time.Duration
	Elapsed  time.Duration
	// Goodput is committed transactions per second of wall time.
	Goodput float64
}

// OverloadResult is the three-arm comparison: a healthy cluster at
// capacity, the same protections under 2x load, and 2x load with every
// protection ablated (unbounded queues, expired work served, no retry
// budget, no concurrency limiter).
type OverloadResult struct {
	Capacity OverloadArm
	Overload OverloadArm
	Ablation OverloadArm
}

// RunOverload runs the three arms back to back, each on a fresh cluster.
func RunOverload(ctx context.Context, cfg OverloadConfig) (OverloadResult, error) {
	cfg = cfg.withDefaults()
	var res OverloadResult
	var err error
	if res.Capacity, err = runOverloadArm(ctx, cfg, "capacity", cfg.Workers, true); err != nil {
		return res, err
	}
	if res.Overload, err = runOverloadArm(ctx, cfg, "overload", 2*cfg.Workers, true); err != nil {
		return res, err
	}
	if res.Ablation, err = runOverloadArm(ctx, cfg, "ablation", 2*cfg.Workers, false); err != nil {
		return res, err
	}
	return res, nil
}

// RunOverloadArm runs one named arm — "capacity", "overload" or
// "ablation" — in isolation, for benchmarks that want per-arm series;
// RunOverload composes all three and Check gates on the comparison.
func RunOverloadArm(ctx context.Context, cfg OverloadConfig, arm string) (OverloadArm, error) {
	cfg = cfg.withDefaults()
	switch arm {
	case "capacity":
		return runOverloadArm(ctx, cfg, arm, cfg.Workers, true)
	case "overload":
		return runOverloadArm(ctx, cfg, arm, 2*cfg.Workers, true)
	case "ablation":
		return runOverloadArm(ctx, cfg, arm, 2*cfg.Workers, false)
	}
	return OverloadArm{}, fmt.Errorf("chaos: unknown overload arm %q", arm)
}

// Check is the E14 gate: under 2x load the protections must hold goodput
// within 20% of single-load capacity without ever serving expired work,
// admitted work's p99 must not blow up, and the ablation must demonstrate
// the meltdown the protections exist to prevent.
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
	return nil
}

func runOverloadArm(ctx context.Context, cfg OverloadConfig, name string, workers int, protected bool) (OverloadArm, error) {
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
	opts := []cluster.Option{
		cluster.WithSeed(cfg.Seed),
		cluster.WithCallTimeout(time.Second), // backstop; the deadline clamps it
		cluster.WithHedgeDelay(0),            // phases widen only on a refusal: timed widening would amplify offered load
		cluster.WithServiceTime(cfg.ServiceTime),
		cluster.WithLockRetries(2),
		cluster.WithTxnRetries(0),
	}
	if protected {
		opts = append(opts,
			cluster.WithAdmissionCapacity(cfg.AdmitCapacity),
			cluster.WithRetryBudget(0.5),
			cluster.WithInflightLimit(workers),
			// A generous hop allowance makes deadline propagation bite early:
			// a phase with under 3ms of budget left fails at the caller
			// instead of burning scarce service on work it cannot finish,
			// and in-queue requests expire (and are discarded) 3ms sooner.
			cluster.WithHopAllowance(3*time.Millisecond),
		)
	} else {
		// Every protection ablated: a queue too deep to ever shed, expired
		// work served as if fresh, unlimited retries and concurrency.
		opts = append(opts,
			cluster.WithAdmissionCapacity(1<<20),
			cluster.WithExpiredService(true),
		)
	}
	store, err := cluster.Open(net, items, opts...)
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
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		arm.P50 = lat[len(lat)/2]
		arm.P99 = lat[len(lat)*99/100]
	}
	return arm, ctx.Err()
}
