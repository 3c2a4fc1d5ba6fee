// Package workload generates and drives transaction workloads against a
// cluster store, for the benchmark harness: read/write mixes over item
// sets, optional nesting, and deliberate subtransaction aborts (exercising
// the algorithm's abort tolerance).
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Profile shapes a workload.
type Profile struct {
	// ReadFraction is the probability an operation is a logical read.
	ReadFraction float64
	// OpsPerTxn is the number of logical operations per top-level
	// transaction (default 2).
	OpsPerTxn int
	// NestDepth wraps each operation in this many levels of
	// subtransactions (0 = flat).
	NestDepth int
	// SubAbortProb is the probability a subtransaction deliberately aborts
	// after doing its work; the parent tolerates the abort and continues.
	SubAbortProb float64
	// Items are the logical data items to touch.
	Items []string
	// Distribution selects the key popularity model: "uniform" (every
	// item equally likely, the default) or "zipfian" (rank-skewed per
	// Gray et al.'s self-similar generator, the YCSB standard — rank 0 is
	// Items[0], the hottest key).
	Distribution string
	// Theta is the zipfian skew parameter in [0, 1): 0 degenerates to
	// uniform, 0.99 is the YCSB default ("zipfian" with Theta 0 gets
	// 0.99). Ignored for uniform.
	Theta float64
	// Seed drives the generator.
	Seed int64
}

const (
	// DistUniform and DistZipfian are the Distribution values.
	DistUniform = "uniform"
	DistZipfian = "zipfian"
	// DefaultTheta is the YCSB-standard zipfian skew.
	DefaultTheta = 0.99
)

func (p Profile) withDefaults() Profile {
	if p.OpsPerTxn <= 0 {
		p.OpsPerTxn = 2
	}
	if p.Distribution == "" {
		p.Distribution = DistUniform
	}
	if p.Distribution == DistZipfian && p.Theta == 0 {
		p.Theta = DefaultTheta
	}
	return p
}

// picker builds the key chooser the profile describes. The chooser is a
// pure function of the passed rng, so per-transaction seeded rngs keep
// runs replayable regardless of worker interleaving.
func (p Profile) picker() (func(rng *rand.Rand) string, error) {
	switch p.Distribution {
	case DistUniform:
		return func(rng *rand.Rand) string {
			return p.Items[rng.Intn(len(p.Items))]
		}, nil
	case DistZipfian:
		z, err := newZipfian(len(p.Items), p.Theta)
		if err != nil {
			return nil, err
		}
		return func(rng *rand.Rand) string {
			return p.Items[z.next(rng)]
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q (want %q or %q)",
			p.Distribution, DistUniform, DistZipfian)
	}
}

// Result summarizes a run.
type Result struct {
	Committed int
	Failed    int
	Tolerated int // deliberate subtransaction aborts survived
	Elapsed   time.Duration
	// P50 and P99 are end-to-end latency quantiles over committed
	// transactions only (zero when nothing committed). ReadP50 and ReadP99
	// restrict to committed transactions that performed no writes — the
	// read experience, untainted by writer lock-wait tails.
	P50, P99         time.Duration
	ReadP50, ReadP99 time.Duration
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// errDeliberate marks the injected subtransaction failures.
var errDeliberate = errors.New("workload: deliberate abort")

// Run executes txns top-level transactions across workers concurrent
// workers against the store.
func Run(ctx context.Context, store *cluster.Store, p Profile, txns, workers int) (Result, error) {
	p = p.withDefaults()
	if len(p.Items) == 0 {
		return Result{}, errors.New("workload: no items")
	}
	pick, err := p.picker()
	if err != nil {
		return Result{}, err
	}
	if workers <= 0 {
		workers = 1
	}
	var (
		mu      sync.Mutex
		res     Result
		lat     []time.Duration
		readLat []time.Duration
	)
	start := time.Now()
	work := make(chan int64)
	var wg sync.WaitGroup
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seed := range work {
				rng := rand.New(rand.NewSource(p.Seed + seed))
				t0 := time.Now()
				tolerated, wrote, err := runTxn(ctx, store, p, rng, pick)
				d := time.Since(t0)
				mu.Lock()
				res.Tolerated += tolerated
				if err != nil {
					res.Failed++
					if firstErr == nil && !errors.Is(err, context.DeadlineExceeded) {
						firstErr = fmt.Errorf("worker %d: %w", w, err)
					}
				} else {
					res.Committed++
					lat = append(lat, d)
					if !wrote {
						readLat = append(readLat, d)
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < txns; i++ {
		work <- int64(i)
	}
	close(work)
	wg.Wait()
	res.Elapsed = time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		res.P50 = lat[len(lat)/2]
		res.P99 = lat[len(lat)*99/100]
	}
	sort.Slice(readLat, func(i, j int) bool { return readLat[i] < readLat[j] })
	if len(readLat) > 0 {
		res.ReadP50 = readLat[len(readLat)/2]
		res.ReadP99 = readLat[len(readLat)*99/100]
	}
	return res, firstErr
}

// runTxn executes one top-level transaction per the profile, reporting
// whether it performed any write.
func runTxn(ctx context.Context, store *cluster.Store, p Profile, rng *rand.Rand, pick func(*rand.Rand) string) (tolerated int, wrote bool, err error) {
	err = store.Run(ctx, func(tx *cluster.Txn) error {
		for op := 0; op < p.OpsPerTxn; op++ {
			item := pick(rng)
			isRead := rng.Float64() < p.ReadFraction
			if !isRead {
				wrote = true
			}
			val := rng.Intn(1 << 20)
			// Deliberate aborts only make sense inside a subtransaction;
			// at the top level the failure would kill the whole txn.
			abortHere := p.NestDepth > 0 && p.SubAbortProb > 0 && rng.Float64() < p.SubAbortProb

			body := func(t *cluster.Txn) error {
				if isRead {
					_, err := t.Read(ctx, item)
					return err
				}
				if err := t.Write(ctx, item, val); err != nil {
					return err
				}
				if abortHere {
					return errDeliberate
				}
				return nil
			}
			err := nest(ctx, tx, p.NestDepth, body)
			if errors.Is(err, errDeliberate) {
				tolerated++
				continue // the parent tolerates the subtransaction abort
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return tolerated, wrote, err
}

// nest wraps body in depth levels of subtransactions.
func nest(ctx context.Context, tx *cluster.Txn, depth int, body func(*cluster.Txn) error) error {
	if depth <= 0 {
		return body(tx)
	}
	return tx.Sub(ctx, func(sub *cluster.Txn) error {
		return nest(ctx, sub, depth-1, body)
	})
}
