// Command qchaos runs seeded deterministic chaos campaigns against the
// quorum-consensus cluster and verifies every committed history for
// cross-item serializability. A failing campaign prints its seed and exact
// replay instructions; with the same flags and seed, the campaign — down
// to the network's fate counters — reproduces bit-for-bit.
//
// With -overload it instead runs the overload experiment (E14, E36): a
// cluster at capacity, the same protections under 2x load, 2x load with
// each protection left out in turn, and 2x load with every protection
// ablated — and gates on goodput: the protected arm must stay within 20% of
// capacity while the ablation collapses, and each protection must show
// what it buys against the protected arm.
//
// With -shardscale it runs the shard scale-out experiment (E16): the same
// 95/5 zipfian workload against 1, 2, 4 and 8 consistent-hash shards of
// service-time-bounded replicas — and gates on scaling: the 4-shard arm
// must deliver at least 2.5x the 1-shard throughput without regressing
// read latency.
//
// Usage:
//
//	qchaos -seed 1 -campaigns 50
//	qchaos -seed 99 -duration 30s -faults crash,partition,dup
//	qchaos -seed 1 -first 17 -campaigns 1 -v   # replay campaign 17
//	qchaos -overload                           # goodput-under-overload gate
//	qchaos -shardscale                         # shard scale-out gate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/commit"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "base seed; campaign i runs with CampaignSeed(seed, i)")
		campaigns  = flag.Int("campaigns", 10, "number of campaigns (ignored when -duration is set)")
		duration   = flag.Duration("duration", 0, "run campaigns until this much wall time has elapsed")
		first      = flag.Int("first", 0, "index of the first campaign (for replaying one campaign of a larger run)")
		faults     = flag.String("faults", "all", "comma-separated fault classes: crash,amnesia,partition,straggler,drop,dup,reorder,flap,clientcrash,overload,stalecopy,migrate,coordcrash,diskfault")
		protocol   = flag.String("protocol", "2pc", "commit protocol: 2pc or paxos (paxos resolves coordinator crashes through acceptor recovery instead of lease-TTL presumption)")
		items      = flag.Int("items", 2, "replicated items per campaign")
		replicas   = flag.Int("replicas", 3, "replicas (DMs) per item")
		rounds     = flag.Int("rounds", 4, "workload rounds per campaign (faults advance between rounds)")
		txns       = flag.Int("txns", 8, "top-level transactions per round")
		live       = flag.Bool("live", false, "live mode: fan-out, hedging, concurrent workers (forfeits exact replay)")
		overload   = flag.Bool("overload", false, "run the overload goodput experiment, leave-one-out arms included, instead of campaigns")
		shardscale = flag.Bool("shardscale", false, "run the shard scale-out throughput experiment instead of campaigns")
		proc       = flag.Bool("proc", false, "run the process-level kill -9 recovery check against real qcstore processes over TCP")
		procBin    = flag.String("bin", "", "qcstore binary for -proc (empty builds it with `go build`)")
		verbose    = flag.Bool("v", false, "print one line per campaign")
	)
	flag.Parse()

	ctx := context.Background()
	if *proc {
		os.Exit(runProcGate(ctx, *procBin, *replicas, *verbose))
	}
	if *overload {
		os.Exit(runOverloadGate(ctx, *seed))
	}
	if *shardscale {
		os.Exit(runShardScaleGate(ctx, *seed))
	}

	fs, err := chaos.ParseFaults(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	proto, err := commit.ParseProtocol(*protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now()
	var agg chaos.Result
	ran := 0
	for i := *first; ; i++ {
		if *duration > 0 {
			if time.Since(start) >= *duration {
				break
			}
		} else if i >= *first+*campaigns {
			break
		}
		cseed := chaos.CampaignSeed(*seed, i)
		cfg := chaos.Config{
			Seed:         cseed,
			Items:        *items,
			Replicas:     *replicas,
			Rounds:       *rounds,
			TxnsPerRound: *txns,
			Faults:       fs,
			Live:         *live,
			Protocol:     proto,
		}
		res, err := chaos.Run(ctx, cfg)
		ran++
		if *verbose {
			fmt.Printf("campaign %d seed=%d committed=%d failed=%d tolerated=%d ops=%d finalround=%d sent=%d delivered=%d dropped=%d dup=%d reordered=%d recoveries=%d replayed=%d orphans=%d reaps=%d/%d queries=%d wedged=%d bursts=%d shed=%d expired=%d injected=%v\n",
				i, cseed, res.Committed, res.Failed, res.Tolerated, res.Ops, res.FinalRoundCommitted,
				res.Net.Sent, res.Net.Delivered, res.Net.Dropped,
				res.Net.Duplicated, res.Net.Reordered,
				res.Recoveries, res.ReplayedRecords,
				res.Orphans, res.ReapsAborted, res.ReapsCommitted,
				res.ResolutionQueries, res.Wedged,
				res.Bursts, res.Shed, res.ExpiredOnArrival, res.Injected)
			if res.Migrations > 0 || res.MigrationsAbandoned > 0 {
				fmt.Printf("campaign %d migrations: clean=%d abandoned=%d\n",
					i, res.Migrations, res.MigrationsAbandoned)
			}
			if res.StaleCopies > 0 {
				fmt.Printf("campaign %d stalecopy: injected=%d written=%d\n",
					i, res.StaleCopies, res.StaleCopyWrites)
			}
			if res.DiskFaults > 0 {
				fmt.Printf("campaign %d disk: faults=%d quarantines=%d rebuilds=%d rebuilt_items=%d\n",
					i, res.DiskFaults, res.DiskQuarantines, res.DiskRebuilds, res.DiskRebuiltItems)
			}
			if res.CoordCrashes > 0 || res.PaxosCommits > 0 {
				// Decisions learned from acceptor hard state vs decisions
				// presumed/served by the lease reaper — the E17 contrast.
				fmt.Printf("campaign %d commit(%s): paxoscommits=%d coordcrashes=%d crashresolved=%d commit / %d abort | via acceptors=%d commit / %d abort, via reaper=%d abort / %d commit\n",
					i, proto, res.PaxosCommits, res.CoordCrashes,
					res.CoordCrashCommitted, res.CoordCrashAborted,
					res.AcceptorResolvesCommitted, res.AcceptorResolvesAborted,
					res.ReapsAborted, res.ReapsCommitted)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign %d (seed %d) FAILED: %v\n", i, cseed, err)
			var v *checker.Violation
			if errors.As(err, &v) {
				fmt.Fprintln(os.Stderr, v.Diagnostic())
			}
			fmt.Fprintf(os.Stderr, "replay: go run ./cmd/qchaos -seed %d -first %d -campaigns 1 -faults %s -protocol %s -items %d -replicas %d -rounds %d -txns %d -v\n",
				*seed, i, *faults, proto, *items, *replicas, *rounds, *txns)
			os.Exit(1)
		}
		agg.Committed += res.Committed
		agg.Failed += res.Failed
		agg.Tolerated += res.Tolerated
		agg.Ops += res.Ops
		agg.Recoveries += res.Recoveries
		agg.ReplayedRecords += res.ReplayedRecords
		agg.Orphans += res.Orphans
		agg.ReapsAborted += res.ReapsAborted
		agg.ReapsCommitted += res.ReapsCommitted
		agg.ResolutionQueries += res.ResolutionQueries
		agg.Wedged += res.Wedged
		agg.StaleCopies += res.StaleCopies
		agg.StaleCopyWrites += res.StaleCopyWrites
		agg.Bursts += res.Bursts
		agg.Shed += res.Shed
		agg.ExpiredOnArrival += res.ExpiredOnArrival
		agg.Migrations += res.Migrations
		agg.MigrationsAbandoned += res.MigrationsAbandoned
		agg.CoordCrashes += res.CoordCrashes
		agg.CoordCrashCommitted += res.CoordCrashCommitted
		agg.CoordCrashAborted += res.CoordCrashAborted
		agg.PaxosCommits += res.PaxosCommits
		agg.AcceptorResolvesCommitted += res.AcceptorResolvesCommitted
		agg.AcceptorResolvesAborted += res.AcceptorResolvesAborted
		agg.DiskFaults += res.DiskFaults
		agg.DiskQuarantines += res.DiskQuarantines
		agg.DiskRebuilds += res.DiskRebuilds
		agg.DiskRebuiltItems += res.DiskRebuiltItems
		agg.FinalRoundCommitted += res.FinalRoundCommitted
		agg.Net.Sent += res.Net.Sent
		agg.Net.Delivered += res.Net.Delivered
		agg.Net.Dropped += res.Net.Dropped
		agg.Net.Duplicated += res.Net.Duplicated
		agg.Net.Reordered += res.Net.Reordered
	}
	fmt.Printf("%d campaigns verified in %v: committed=%d failed=%d tolerated=%d ops=%d finalround=%d recoveries=%d replayed=%d | orphans=%d reaps=%d aborted / %d committed, queries=%d wedged=%d | bursts=%d shed=%d expired=%d | stalecopies=%d written=%d | migrations=%d abandoned=%d | commit(%s) paxoscommits=%d coordcrashes=%d crashresolved=%d/%d, via acceptors=%d commit / %d abort | disk faults=%d quarantines=%d rebuilds=%d rebuilt_items=%d | net sent=%d delivered=%d dropped=%d dup=%d reordered=%d\n",
		ran, time.Since(start).Round(time.Millisecond),
		agg.Committed, agg.Failed, agg.Tolerated, agg.Ops, agg.FinalRoundCommitted,
		agg.Recoveries, agg.ReplayedRecords,
		agg.Orphans, agg.ReapsAborted, agg.ReapsCommitted, agg.ResolutionQueries, agg.Wedged,
		agg.Bursts, agg.Shed, agg.ExpiredOnArrival,
		agg.StaleCopies, agg.StaleCopyWrites,
		agg.Migrations, agg.MigrationsAbandoned,
		proto, agg.PaxosCommits, agg.CoordCrashes, agg.CoordCrashCommitted, agg.CoordCrashAborted,
		agg.AcceptorResolvesCommitted, agg.AcceptorResolvesAborted,
		agg.DiskFaults, agg.DiskQuarantines, agg.DiskRebuilds, agg.DiskRebuiltItems,
		agg.Net.Sent, agg.Net.Delivered, agg.Net.Dropped, agg.Net.Duplicated, agg.Net.Reordered)
}

// runOverloadGate runs the overload experiment, prints one line per arm and
// applies the E14 gate with E36's leave-one-out margins. Goodput is a wall-clock measurement, so a failed gate gets one
// retry on a fresh seed before it is declared real.
func runOverloadGate(ctx context.Context, seed int64) int {
	for attempt := 0; ; attempt++ {
		res, err := chaos.RunOverload(ctx, chaos.OverloadConfig{Seed: seed + int64(attempt)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "overload experiment: %v\n", err)
			return 1
		}
		for _, a := range res.Arms() {
			fmt.Printf("arm=%-14s workers=%2d offered=%d committed=%d overloaded=%d expired=%d shed=%d expired_on_arrival=%d served_expired=%d peak_queue=%d limit=%d p50=%v p99=%v goodput=%.0f txn/s\n",
				a.Name, a.Workers, a.Offered, a.Committed, a.Overloaded, a.Expired,
				a.Shed, a.ExpiredOnArrival, a.ServedExpired, a.PeakQueue, a.Limit, a.P50, a.P99, a.Goodput)
		}
		gerr := res.Check()
		if gerr == nil {
			fmt.Printf("overload gate PASS: 2x-load goodput %.0f txn/s >= 80%% of capacity %.0f txn/s; ablation collapsed to %.0f txn/s; "+
				"without the limiter %.0f txn/s, with expired work served %d served, without the queue bound p50 %v against %v\n",
				res.Overload.Goodput, res.Capacity.Goodput, res.Ablation.Goodput,
				res.NoLimiter.Goodput, res.ServeExpired.ServedExpired, res.NoQueueBound.P50, res.Overload.P50)
			return 0
		}
		if attempt == 0 {
			fmt.Fprintf(os.Stderr, "overload gate failed (%v); retrying once with seed %d\n", gerr, seed+1)
			continue
		}
		fmt.Fprintf(os.Stderr, "overload gate FAILED: %v\n", gerr)
		return 1
	}
}

// runShardScaleGate runs the shard scale-out experiment and applies the
// E16 gate. Throughput is a wall-clock measurement, so a failed gate gets
// one retry on a fresh seed before it is declared real.
func runShardScaleGate(ctx context.Context, seed int64) int {
	for attempt := 0; ; attempt++ {
		res, err := chaos.RunShardScale(ctx, chaos.ShardScaleConfig{Seed: seed + int64(attempt)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "shardscale experiment: %v\n", err)
			return 1
		}
		for _, a := range res.Arms {
			fmt.Printf("arm=%d-shard workers=%d committed=%d failed=%d tput=%.0f txn/s p50=%v p99=%v read_p50=%v read_p99=%v\n",
				a.Shards, a.Workers, a.Committed, a.Failed, a.Throughput, a.P50, a.P99, a.ReadP50, a.ReadP99)
		}
		gerr := res.Check()
		if gerr == nil {
			one, _ := res.Arm(1)
			four, _ := res.Arm(4)
			fmt.Printf("shardscale gate PASS: 4-shard %.0f txn/s = %.1fx 1-shard %.0f txn/s; read p99 %v -> %v\n",
				four.Throughput, four.Throughput/one.Throughput, one.Throughput, one.ReadP99, four.ReadP99)
			return 0
		}
		if attempt == 0 {
			fmt.Fprintf(os.Stderr, "shardscale gate failed (%v); retrying once with seed %d\n", gerr, seed+1)
			continue
		}
		fmt.Fprintf(os.Stderr, "shardscale gate FAILED: %v\n", gerr)
		return 1
	}
}
