// Package chaos runs seeded, deterministic fault campaigns against a
// replicated cluster store and checks every committed operation against
// the serializability checker. A campaign interleaves rounds of randomized
// nested-transaction workload with a fault scheduler that crashes and
// restarts replicas, amnesia-crashes them (memory wiped, state rebuilt
// from the replica's write-ahead log), partitions them from the client,
// slows them down, and injects message loss, duplication and bounded
// reordering — all driven by one int64 seed, so a failing campaign
// replays exactly from its seed.
//
// Determinism engineering: fault transitions happen only between rounds,
// behind a network Quiesce barrier, so no transaction ever spans a fault
// toggle; the store runs with sequential quorum phases, no hedging,
// synchronous control cleanup and a single workload worker, on a manual
// clock that moves one lock-lease period per round boundary, so the message
// sequence on every network lane — and with it every per-lane fate stream
// — is a pure function of the seed. Live mode (Config.Live) re-enables the
// fan-out, hedging and concurrency for realism at the cost of exact
// replay; histories are verified either way.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Fault identifies one injectable fault class.
type Fault string

// The fault classes a campaign can inject.
const (
	FaultCrash     Fault = "crash"     // crash a replica, restart it later
	FaultAmnesia   Fault = "amnesia"   // crash a replica, wipe its memory, recover it from its WAL
	FaultPartition Fault = "partition" // sever the client↔replica link
	FaultStraggler Fault = "straggler" // per-node delivery latency
	FaultDrop      Fault = "drop"      // network-wide message loss
	FaultDup       Fault = "dup"       // network-wide message duplication
	FaultReorder   Fault = "reorder"   // bounded cross-lane reordering
	// FaultFlap bounces one replica at every round boundary for the
	// episode's lifetime — never down long enough to count as dead, never
	// up long enough to be trusted. The failure detector's worst customer.
	FaultFlap Fault = "flap"
	// FaultClientCrash simulates a client that died mid-transaction: a
	// write-quorum's worth of write locks is planted under a transaction id
	// nobody will ever resolve. The first client the orphan blocks after its
	// lease lapsed presumes it aborted. There is no heal — recovery is the
	// store's job.
	FaultClientCrash Fault = "clientcrash"
	// FaultOverload slams one replica's admission queue with a seeded burst
	// of inert requests (some pre-expired), injected behind a held service
	// loop and bypassing the network, so the admit/shed/expire verdicts are
	// a pure function of the burst shape. Selecting it runs every DM with
	// bounded admission; the burst is instantaneous, so there is no heal.
	FaultOverload Fault = "overload"
	// FaultStalecopy leaves one replica holding a superseded version: it
	// partitions the client from one replica of a random group, commits a
	// newer version of the group's item through the survivors, and heals the
	// partition when the episode ends. The healed replica still holds the
	// old version, so every later read quorum that includes it must still
	// return the newer one — the intersection of read and write quorums the
	// paper's Lemma 8 rests on. The serializability checker gates it: a read
	// served from the superseded copy is a violation.
	FaultStalecopy Fault = "stalecopy"
	// FaultMigrate live-migrates one item to a different replica group at a
	// round boundary — and, half the time, kills the migration coordinator at
	// its nastiest moments: after every intention is buffered but before any
	// CommitTopReq (the next client its locks block must presume abort), or
	// partway through the commit broadcast (one delivered copy decides commit;
	// that client must find the record and finish the job). Selecting it runs
	// the store sharded (a consistent-hash ring over the per-item replica
	// groups): abandoned coordinators are exactly orphaned clients, resolved
	// once their leases lapse. The campaign's final writability probe then
	// gates zero wedged items and the checker zero serializability violations,
	// whichever way each crash resolved.
	FaultMigrate Fault = "migrate"
	// FaultCoordCrash kills a top-level transaction's commit coordinator at a
	// seeded instant around the commit point: before any decide message,
	// partway through the Phase-2a accept fan-out (PaxosCommit), after the
	// decision but before any replica learns it, or partway through the learn
	// broadcast — locks, intentions, and acceptor votes left dangling exactly
	// as a kill -9 would leave them. The campaign holds every crash to the
	// convergence contract: exactly one outcome cluster-wide, a decided commit
	// never aborted, an un-voted transaction never committed, and — under
	// PaxosCommit — every outcome that reached an acceptor resolved by acceptor
	// recovery rather than a presumption. Resolved commits are backfilled into
	// the history, so the serializability checker gates every crash's
	// resolution too.
	FaultCoordCrash Fault = "coordcrash"
	// FaultDiskfault turns the stable storage the WAL is named after into a
	// fault domain of its own: at a seeded boundary one replica's log is
	// scrambled on disk (a bit flip in a sealed segment, a whole segment
	// dropped, or the snapshot damaged) and the replica restarted onto the
	// wreckage, or its disk "fills" so the next logged write fails its append —
	// and, at its nastiest, a commit coordinator is killed around the commit
	// point with a cohort member's disk scrambled in the same breath. The
	// replica must fail closed into quarantine (serving the typed refusal,
	// never corrupt state), the cluster must keep serving through the remaining
	// majority, and the heal is a peer rebuild that pulls the committed state
	// back from ALL peers. Selecting it runs the durability stack; at most a
	// minority of any group is disk-impaired, and only one disk at a time (a
	// rebuild needs every peer answering). The campaign's final gates then hold
	// the whole path to account: zero serializability violations, zero
	// permanently quarantined replicas, and a writable cluster.
	FaultDiskfault Fault = "diskfault"
)

// AllFaults lists every fault class in canonical order. Newer classes
// (migrate, then coordcrash, then diskfault) come last so enabling them
// never perturbs the draw order — and with it the schedule — of seeded
// campaigns that predate them. Stalecopy holds the slot of the class it
// replaced, so campaigns that do not select it draw as they did.
var AllFaults = []Fault{FaultCrash, FaultAmnesia, FaultPartition, FaultStraggler, FaultDrop, FaultDup, FaultReorder, FaultFlap, FaultClientCrash, FaultOverload, FaultStalecopy, FaultMigrate, FaultCoordCrash, FaultDiskfault}

// overloadAdmitCap is the per-DM admission queue capacity campaigns use
// when FaultOverload is selected: small enough that a burst always sheds,
// large enough that the campaign's own workload (queue depth ≤ a few under
// sequential phases) never does.
const overloadAdmitCap = 8

// ParseFaults parses a comma-separated fault list such as
// "crash,partition,dup". Empty input and "all" select every class.
func ParseFaults(s string) ([]Fault, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return append([]Fault(nil), AllFaults...), nil
	}
	known := map[Fault]bool{}
	for _, f := range AllFaults {
		known[f] = true
	}
	var out []Fault
	for _, part := range strings.Split(s, ",") {
		f := Fault(strings.TrimSpace(part))
		if !known[f] {
			return nil, fmt.Errorf("chaos: unknown fault %q (known: %v)", f, AllFaults)
		}
		out = append(out, f)
	}
	return out, nil
}

// Config parameterizes one campaign.
type Config struct {
	// Seed drives everything: workload content, fault schedule, and the
	// network's per-lane fate streams.
	Seed int64
	// Items is the number of replicated logical items (default 2). Each
	// item gets its own disjoint replica group.
	Items int
	// Replicas is the number of DMs per item (default 3), under a
	// majority quorum configuration.
	Replicas int
	// Rounds is the number of workload rounds; the fault schedule advances
	// between rounds (default 4).
	Rounds int
	// TxnsPerRound is the number of top-level transactions per round
	// (default 8).
	TxnsPerRound int
	// OpsPerTxn, NestDepth, SubAbortProb and ReadFraction shape the
	// workload profile (defaults 3, 1, 0.1, 0.5).
	OpsPerTxn    int
	NestDepth    int
	SubAbortProb float64
	ReadFraction float64
	// Faults is the set of fault classes to inject; nil means all.
	Faults []Fault
	// CallTimeout bounds each RPC (default 10ms). It must exceed the
	// worst straggler latency or timeouts become scheduling races.
	CallTimeout time.Duration
	// Live disables the determinism constraints: phases that ask one quorum
	// and widen on a refusal or the hedge timer, hedging and concurrent
	// workers come back on. Campaigns still verify, but exact replay of
	// network counters is no longer guaranteed.
	Live bool
	// Workers is the number of concurrent workload workers in live mode
	// (default 2; deterministic mode always uses 1).
	Workers int
	// MutateVN, when set, is installed as the store's test-only write
	// version mutation hook — the self-test uses it to plant a
	// fault-masking bug and assert the checker catches it.
	MutateVN func(item string, vn int) int
	// Protocol selects the store's commit protocol. The zero value is
	// TwoPhase, so seeded campaigns that predate the option replay
	// unchanged; commit.PaxosCommit arms the non-blocking commit path and
	// tightens the coordcrash convergence contract (acceptor recovery, not
	// TTL presumption, must resolve every outcome an acceptor holds).
	Protocol commit.Protocol
}

func (c Config) withDefaults() Config {
	if c.Items <= 0 {
		c.Items = 2
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.TxnsPerRound <= 0 {
		c.TxnsPerRound = 8
	}
	if c.OpsPerTxn <= 0 {
		c.OpsPerTxn = 3
	}
	if c.NestDepth == 0 {
		c.NestDepth = 1
	}
	if c.SubAbortProb == 0 {
		c.SubAbortProb = 0.1
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.Faults == nil {
		c.Faults = AllFaults
	}
	if c.CallTimeout <= 0 {
		// With fate feedback on, every lost call fails the instant its
		// fate is decided, so the timeout is pure backstop and almost
		// never fires. It sits far above the worst straggler round trip
		// because a timeout that CAN fire on a scheduling hiccup is a
		// wall-clock race that would fork an otherwise seeded replay.
		c.CallTimeout = 100 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// Result summarizes one campaign.
type Result struct {
	Seed      int64
	Rounds    int
	Committed int
	Failed    int
	Tolerated int
	// Ops is the number of committed operations the checker verified.
	Ops int
	// Injected counts fault episodes started, by class.
	Injected map[Fault]int
	// Recoveries counts DM state machines rebuilt from their write-ahead
	// logs (amnesia heals); ReplayedRecords totals the log records those
	// recoveries re-applied. Zero when FaultAmnesia is not in play.
	Recoveries      int
	ReplayedRecords int64
	// Orphans counts transactions deliberately orphaned by clientcrash
	// faults. ReapsAborted and ReapsCommitted count the store's resolutions of
	// orphans (presumed aborts and re-served commit records);
	// ResolutionQueries the probe rounds behind them.
	Orphans           int
	ReapsAborted      int64
	ReapsCommitted    int64
	ResolutionQueries int64
	// Wedged counts items still unwritable after the final heal and two
	// lease TTLs of reap settling — the campaign's permanently-wedged
	// check; a campaign that ends with one fails.
	Wedged int
	// Bursts counts overload fault injections; Shed and ExpiredOnArrival
	// total the admission verdicts across them (requests rejected at a full
	// queue, and admitted requests discarded at dequeue because their
	// deadline had lapsed). Bursts bypass the network, so all three are
	// replayable bit for bit from the seed.
	Bursts           int
	Shed             int64
	ExpiredOnArrival int64
	// StaleCopies counts stalecopy injections: a replica partitioned away
	// while a newer version was written through the survivors;
	// StaleCopyWrites the ones whose write committed. Both zero when
	// FaultStalecopy is not in play.
	StaleCopies     int
	StaleCopyWrites int
	// Migrations counts live migrations the scheduler completed cleanly;
	// MigrationsAbandoned the ones whose coordinator it killed (before
	// commit or mid-broadcast — both left for whoever they block to resolve).
	// Both zero when FaultMigrate is not in play.
	Migrations          int
	MigrationsAbandoned int
	// CoordCrashes counts commit coordinators killed at the commit point;
	// CoordCrashCommitted and CoordCrashAborted how the cluster resolved
	// them (every crash resolves exactly one way — the settle pass fails the
	// campaign otherwise). PaxosCommits is the store's count of clean-path
	// decisions through the acceptors; AcceptorResolvesCommitted/Aborted its
	// acceptor-recovery resolutions — the decisions reconstructed from
	// acceptor hard state, where TwoPhase can only find a record or presume
	// (those show up in ReapsAborted/ReapsCommitted instead). All zero when FaultCoordCrash is off and the protocol is
	// TwoPhase.
	CoordCrashes              int
	CoordCrashCommitted       int
	CoordCrashAborted         int
	PaxosCommits              int64
	AcceptorResolvesCommitted int64
	AcceptorResolvesAborted   int64
	// DiskFaults counts diskfault episodes injected (a log scrambled at
	// rest, a disk filling mid-round, or a coordinator kill with a cohort
	// disk scrambled — those crashes also count under CoordCrashes).
	// DiskQuarantines is the store's count of replicas that failed closed
	// into quarantine, DiskRebuilds its completed peer rebuilds, and
	// DiskRebuiltItems the item replicas those rebuilds restored. All zero
	// when FaultDiskfault is not in play.
	DiskFaults       int
	DiskQuarantines  int64
	DiskRebuilds     int64
	DiskRebuiltItems int64
	// FinalRoundCommitted is the last round's committed transactions — the
	// throughput the cluster re-attained after its accumulated damage.
	FinalRoundCommitted int
	// Net is the network's final counter snapshot; with the same seed and
	// deterministic mode it is identical run to run.
	Net sim.Stats
}

// CampaignSeed derives the i-th campaign's seed from a base seed using a
// splitmix64 finalization round, so campaign seeds are decorrelated while
// remaining a pure function of (base, i).
func CampaignSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Run executes one campaign and verifies the recorded history. The error
// is a *checker.Violation when the history fails verification; the Result
// is valid (counters populated) in that case too.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	// FateFeedback makes a lost call fail the moment the network decides
	// its fate instead of waiting out a timeout: campaigns run orders of
	// magnitude faster under crash/partition/loss, and failure detection
	// stops being a wall-clock race the replay could lose.
	net := sim.NewNetwork(sim.Config{Seed: cfg.Seed, FateFeedback: true})
	defer net.Close()

	rec := checker.NewRecorder()
	items := make([]cluster.ItemSpec, cfg.Items)
	itemNames := make([]string, cfg.Items)
	groups := make([][]string, cfg.Items)
	for i := range items {
		name := fmt.Sprintf("x%d", i)
		dms := make([]string, cfg.Replicas)
		for j := range dms {
			dms[j] = fmt.Sprintf("%s-dm%d", name, j)
		}
		items[i] = cluster.ItemSpec{Name: name, Initial: 0, DMs: dms, Config: quorum.Majority(dms)}
		itemNames[i] = name
		groups[i] = dms
		rec.DeclareItem(name, 0)
	}

	opts := []cluster.Option{
		cluster.WithSeed(cfg.Seed),
		cluster.WithCallTimeout(cfg.CallTimeout),
		cluster.WithHistory(rec),
		cluster.WithCommitProtocol(cfg.Protocol),
	}
	amnesiaOn, overloadOn, migrateOn, diskOn := false, false, false, false
	for _, f := range cfg.Faults {
		if f == FaultAmnesia {
			amnesiaOn = true
		}
		if f == FaultOverload {
			overloadOn = true
		}
		if f == FaultMigrate {
			migrateOn = true
		}
		if f == FaultDiskfault {
			diskOn = true
		}
	}
	if migrateOn {
		// Migrate needs somewhere to migrate to: shard the store over a
		// consistent-hash ring with one named group per replica group, each
		// item pinned (ring override) to the group that already hosts it, so
		// the ring starts out agreeing with the item specs.
		sgroups := make([]shard.Group, cfg.Items)
		for i := range sgroups {
			sgroups[i] = shard.Group{Name: fmt.Sprintf("g%d", i), DMs: groups[i]}
		}
		ring, rerr := shard.New(cfg.Seed, 32, sgroups)
		if rerr != nil {
			return Result{}, rerr
		}
		for i, name := range itemNames {
			if merr := ring.MoveKey(name, fmt.Sprintf("g%d", i)); merr != nil {
				return Result{}, merr
			}
		}
		opts = append(opts, cluster.WithRing(ring))
	}
	if overloadOn {
		// Overload needs something to overload: run every DM behind a
		// bounded admission queue.
		opts = append(opts, cluster.WithAdmissionCapacity(overloadAdmitCap))
	}
	var ffs *wal.FaultFS
	var walDir string
	if amnesiaOn || diskOn {
		// Amnesia needs somewhere to forget from, and diskfault something to
		// scramble: give every DM a WAL in a scratch directory. Fsync stays
		// off because a simulated crash loses the process heap, not the page
		// cache — the recovery logic exercised is identical, and the wal
		// package's own tests plus the E12 experiment cover real fsync.
		dir, err := os.MkdirTemp("", "chaos-wal-")
		if err != nil {
			return Result{}, err
		}
		defer os.RemoveAll(dir)
		walDir = dir
		walOpts := []wal.Option{wal.WithFsync(false)}
		if diskOn {
			// Diskfault routes every log I/O through a seeded fault-injecting
			// filesystem, with segments kept small so even a few rounds of
			// workload seal segments for the at-rest corruptor to target. The
			// FS seed derives from the campaign seed, so what gets corrupted
			// — file, offset, bit — replays exactly.
			ffs = wal.NewFaultFS(CampaignSeed(cfg.Seed, 0xD15F))
			walOpts = append(walOpts, wal.WithFS(ffs), wal.WithSegmentBytes(512))
		}
		opts = append(opts,
			cluster.WithDurability(dir),
			cluster.WithWALOptions(walOpts...),
		)
	}
	if !cfg.Live {
		opts = append(opts,
			cluster.WithSequentialPhases(true),
			cluster.WithHedgeDelay(0),
			// One worker means lock conflicts cannot happen, so deep retry
			// loops would only re-probe quorums whose members stay crashed
			// for the whole round — each probe a full call timeout. A few
			// retries still ride out transient message loss.
			cluster.WithLockRetries(4),
		)
	}
	// Leases expire against a campaign-driven manual clock: time moves only
	// at round boundaries, behind a quiesce barrier, so lease expiry — and
	// every reap it triggers — is a pure function of the seed, never of
	// wall-clock scheduling. Under the wall clock the store would run its
	// timer-driven lease renewer, whose traffic would fork the replay.
	clk := sim.NewManualClock(time.Unix(0, 0))
	// The store's failure detector reads no clock at all: its one timed
	// input, the hedge timer, is off in the deterministic campaigns.
	opts = append(opts, cluster.WithClock(clk))
	store, err := cluster.Open(net, items, opts...)
	if err != nil {
		return Result{}, err
	}
	defer store.Close()
	store.Hooks.MutateWriteVN = cfg.MutateVN

	// Prime every client↔DM lane in a fixed order. Lane fate streams are
	// seeded by creation order; without priming, the first concurrent
	// quorum phase would race lanes into existence and reshuffle the
	// streams run to run.
	client := store.ClientNode()
	var allDMs []string
	for _, g := range groups {
		allDMs = append(allDMs, g...)
	}
	sort.Strings(allDMs)
	for _, dm := range allDMs {
		net.PrimeLane(client, dm)
		net.PrimeLane(dm, client)
	}

	sched := newScheduler(net, store, client, groups, cfg)
	sched.ffs, sched.walDir = ffs, walDir
	res := Result{Seed: cfg.Seed, Injected: map[Fault]int{}}
	workers := 1
	if cfg.Live {
		workers = cfg.Workers
	}
	for round := 0; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		net.Quiesce()
		// One TTL per boundary: every lease stamped last round is now
		// expired, so this round's conflicts (and ResolveOrphans's
		// inspections) resolve last round's orphans. ResolveOrphans returns
		// after its resolutions; the quiesce after it drains their
		// notifies before any fault state changes.
		clk.Advance(cluster.LeaseTTL + time.Millisecond)
		if err := store.ResolveOrphans(ctx); err != nil {
			return res, err
		}
		net.Quiesce()
		// ResolveOrphans above resolved every pending coordinator crash it
		// could reach; hold each resolved one to the convergence contract
		// before any fault state changes. The probes only run when crashes are
		// pending, so the message sequence stays a pure function of the seed.
		if err := sched.settleCoordCrashes(ctx, rec, false); err != nil {
			return res, err
		}
		sched.advance(round, res.Injected)
		if sched.err != nil {
			return res, sched.err
		}
		// Orphans planted by this boundary's clientcrash rolls carry a fresh
		// lease; expire it now, before the round's workload runs, so the first
		// transaction that trips over the orphan resolves it before its first
		// backoff instead of burning its whole retry budget against a lease
		// that cannot lapse mid-round (the clock only moves at boundaries).
		clk.Advance(cluster.LeaseTTL + time.Millisecond)
		p := workload.Profile{
			ReadFraction: cfg.ReadFraction,
			OpsPerTxn:    cfg.OpsPerTxn,
			NestDepth:    cfg.NestDepth,
			SubAbortProb: cfg.SubAbortProb,
			Items:        itemNames,
			// Each round draws fresh transactions; workload seeds per-txn
			// generators at Seed+txnIndex, so offset rounds far apart.
			Seed: cfg.Seed + int64(round)*1_000_003,
		}
		wres, werr := workload.Run(ctx, store, p, cfg.TxnsPerRound, workers)
		res.Committed += wres.Committed
		res.Failed += wres.Failed
		res.Tolerated += wres.Tolerated
		res.FinalRoundCommitted = wres.Committed
		if werr != nil && !expectedUnderFaults(werr) {
			return res, werr
		}
		res.Rounds++
	}
	// Settle the last round's stragglers under the round's own fault state
	// BEFORE healing: a stray held-back message racing the heal would be
	// delivered in some runs and dropped in others, forking the counters.
	net.Quiesce()
	sched.healAll()
	if sched.err != nil {
		return res, sched.err
	}
	net.Quiesce()
	// Resolution settle: every DM answers on the now-healthy network, so one
	// sweep past the last leases resolves whatever a then-crashed or
	// partitioned DM kept in doubt.
	clk.Advance(cluster.LeaseTTL + time.Millisecond)
	if err := store.ResolveOrphans(ctx); err != nil {
		return res, err
	}
	net.Quiesce()
	// Every injected coordinator crash must be resolved by now — the final
	// settle fails the campaign on any transaction still in doubt.
	if err := sched.settleCoordCrashes(ctx, rec, true); err != nil {
		return res, err
	}
	// Final writability probe: after every fault healed and every orphan
	// was given a TTL and a sweep to be resolved, each item must accept a
	// write within the store's normal retry budget. An item
	// that cannot is permanently wedged — exactly what lock leases exist to
	// rule out.
	for _, name := range itemNames {
		perr := store.Run(ctx, func(t *cluster.Txn) error {
			return t.Write(ctx, name, fmt.Sprintf("final-%s", name))
		})
		if perr != nil {
			res.Wedged++
		}
	}

	hist := rec.History()
	res.Ops = hist.Events()
	// The probe's commits notify the replicas whose acknowledgement they do
	// not act on; count them delivered in every run, not only in those where
	// they landed before the snapshot.
	net.Quiesce()
	res.Net = net.Stats()
	res.Recoveries = int(store.Stats.Recoveries.Value())
	res.ReplayedRecords = store.Stats.ReplayedRecords.Value()
	res.Orphans = sched.orphans
	res.StaleCopies, res.StaleCopyWrites = sched.stales, sched.staleWrites
	res.Bursts = sched.bursts
	res.Shed = sched.shed
	res.ExpiredOnArrival = sched.expired
	res.Migrations = sched.migrations
	res.MigrationsAbandoned = sched.abandoned
	res.ReapsAborted = store.Stats.OrphanReapsAborted.Value()
	res.ReapsCommitted = store.Stats.OrphanReapsCommitted.Value()
	res.ResolutionQueries = store.Stats.ResolutionQueries.Value()
	res.CoordCrashes = sched.coordCrashes
	res.CoordCrashCommitted = sched.crashCommitted
	res.CoordCrashAborted = sched.crashAborted
	res.PaxosCommits = store.Stats.PaxosCommits.Value()
	res.AcceptorResolvesCommitted = store.Stats.AcceptorResolvesCommitted.Value()
	res.AcceptorResolvesAborted = store.Stats.AcceptorResolvesAborted.Value()
	res.DiskFaults = sched.diskFaults
	res.DiskQuarantines = store.Stats.Quarantines.Value()
	res.DiskRebuilds = store.Stats.Rebuilds.Value()
	res.DiskRebuiltItems = store.Stats.RebuiltItems.Value()
	if err := hist.Verify(); err != nil {
		return res, err
	}
	if qs := store.QuarantinedDMs(); len(qs) > 0 {
		// Every quarantined replica must have been rebuilt by the final
		// heal: a quarantine that outlives the campaign is lost redundancy
		// the operator never got back.
		return res, fmt.Errorf("chaos: replica(s) still quarantined after final heal: %v", qs)
	}
	if res.Wedged > 0 {
		return res, fmt.Errorf("chaos: %d item(s) permanently wedged after heal and reap settle", res.Wedged)
	}
	return res, nil
}

// expectedUnderFaults reports whether a workload error is an anticipated
// consequence of fault injection rather than a harness failure: lock
// conflicts past the retry budget, unreachable quorums, and deadline
// expiry all happen by design while faults are active.
func expectedUnderFaults(err error) bool {
	return errors.Is(err, cluster.ErrConflict) ||
		errors.Is(err, cluster.ErrUnavailable) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// episode is one active fault: what was injected, where, and the round
// index at which it heals.
type episode struct {
	fault Fault
	dm    string // node-scoped faults; "" for network-wide ones
	group int    // replica group index for node-scoped faults
	until int
	down  bool // flap only: whether the replica is currently crashed
	mode  int  // diskfault only: which disk fault was injected
}

// The diskfault injection modes.
const (
	diskAtRest    = iota // stop the replica, scramble its log, restart it
	diskNoSpace          // fail every append: the disk "fills" mid-round
	diskMidCommit        // kill a commit coordinator AND scramble a cohort disk
)

// scheduler owns the fault schedule. All randomness comes from its own
// generator, and every decision is made in a fixed iteration order, so the
// schedule is a pure function of the campaign seed.
type scheduler struct {
	rng     *rand.Rand
	net     *sim.Network
	store   *cluster.Store
	client  string
	groups  [][]string
	cfg     Config
	enabled map[Fault]bool
	active  []episode
	orphans int   // transactions orphaned by clientcrash faults
	stales  int   // stalecopy injections (one replica partitioned, newer VN written)
	bursts  int   // overload bursts fired
	shed    int64 // requests shed at admission across all bursts
	expired int64 // admitted requests expired at dequeue across all bursts
	err     error // first amnesia-recovery failure; fails the campaign

	staleWrites int // stalecopy writes that committed through the survivors

	// migrate fault bookkeeping: home[i] is the group index item x<i> is
	// believed to live on (updated only on clean cutover — a killed
	// coordinator leaves the outcome to the next client it blocks, and the next roll's
	// no-op/migrate either way is valid); migrations and abandoned count
	// clean and coordinator-killed injections.
	home       []int
	migrations int
	abandoned  int

	// coordcrash bookkeeping: crashes holds the injected coordinator kills
	// not yet observed resolved; the settle pass drains it, splitting into
	// crashCommitted/crashAborted and failing the campaign on any
	// convergence-contract breach.
	crashes        []coordCrash
	coordCrashes   int
	crashCommitted int
	crashAborted   int

	// diskfault bookkeeping: the fault-injecting filesystem every DM's log
	// runs through, the root its per-DM directories live under (both nil/""
	// unless diskfault or amnesia is selected), and the injection count.
	ffs        *wal.FaultFS
	walDir     string
	diskFaults int
}

// coordCrash is one injected coordinator kill awaiting resolution.
type coordCrash struct {
	rep cluster.CrashReport
	// base is the acceptor-recovery resolution count at injection: under
	// PaxosCommit a crash whose Phase-2a reached an acceptor but whose learn
	// reached nobody must advance it — resolution through acceptor state,
	// not TTL presumption.
	base int64
}

// acceptorResolves is the store's total acceptor-recovery resolutions.
func (s *scheduler) acceptorResolves() int64 {
	return s.store.Stats.AcceptorResolvesCommitted.Value() + s.store.Stats.AcceptorResolvesAborted.Value()
}

// settleCoordCrashes probes every replica a pending crashed coordinator
// may have left state at and enforces the convergence contract: one
// outcome cluster-wide, a decided commit never aborted, an un-voted
// transaction never committed, and (PaxosCommit) acceptor recovery — not a
// TTL presumption — resolving every outcome an acceptor held. A crash no
// reachable replica knows resolved yet stays pending — unless final, when
// doubt is a campaign failure. Resolved commits are backfilled into the
// history so the checker verifies their writes against every later read.
func (s *scheduler) settleCoordCrashes(ctx context.Context, rec *checker.Recorder, final bool) error {
	if len(s.crashes) == 0 {
		return nil
	}
	paxos := s.cfg.Protocol == commit.PaxosCommit
	var still []coordCrash
	for _, c := range s.crashes {
		known, committed, holds := 0, 0, 0
		for _, dm := range c.rep.DMs {
			resp, perr := s.store.ResolutionProbe(ctx, dm, c.rep.Txn)
			if perr != nil {
				continue // crashed or partitioned replica: no verdict from it
			}
			if resp.Holds {
				holds++
			}
			if resp.Known {
				known++
				if resp.Committed {
					committed++
				}
			}
		}
		if known == 0 {
			if final {
				return fmt.Errorf("chaos: coordcrash txn %s still in doubt after final settle", c.rep.Txn)
			}
			still = append(still, c)
			continue
		}
		if committed != 0 && committed != known {
			return fmt.Errorf("chaos: coordcrash txn %s split outcome: %d of %d knowing replicas committed", c.rep.Txn, committed, known)
		}
		didCommit := committed > 0
		if c.rep.Decided && !didCommit {
			return fmt.Errorf("chaos: coordcrash txn %s resolved abort over a decided commit", c.rep.Txn)
		}
		// Sends (dispatched requests), not Accepts (observed acks), gates
		// the no-evidence assertion: a lossy network can deliver an accept
		// and drop its ack, leaving a durable vote the coordinator never
		// saw — recovery is then obligated to complete the commit.
		if !c.rep.Decided && c.rep.Sends == 0 && didCommit {
			return fmt.Errorf("chaos: coordcrash txn %s resolved commit though no commit-carrying request was ever sent", c.rep.Txn)
		}
		if paxos && c.rep.Accepts > 0 && c.rep.Learned == 0 && s.acceptorResolves() == c.base {
			return fmt.Errorf("chaos: coordcrash txn %s resolved without acceptor recovery", c.rep.Txn)
		}
		if final && holds > 0 {
			return fmt.Errorf("chaos: coordcrash txn %s still holds locks at %d replica(s) after final settle", c.rep.Txn, holds)
		}
		if didCommit {
			s.crashCommitted++
			rec.RecordTxn(checker.TxnRecord{
				ID: string(c.rep.Txn), Start: c.rep.Start, End: c.rep.End, Ops: c.rep.Ops,
			})
		} else {
			s.crashAborted++
		}
	}
	s.crashes = still
	return nil
}

func newScheduler(net *sim.Network, store *cluster.Store, client string, groups [][]string, cfg Config) *scheduler {
	enabled := map[Fault]bool{}
	for _, f := range cfg.Faults {
		enabled[f] = true
	}
	home := make([]int, len(groups))
	for i := range home {
		home[i] = i
	}
	return &scheduler{
		// Offset the seed so the scheduler's stream is independent of the
		// store's and the network's.
		rng:     rand.New(rand.NewSource(CampaignSeed(cfg.Seed, 0x5eed))),
		net:     net,
		store:   store,
		client:  client,
		groups:  groups,
		cfg:     cfg,
		enabled: enabled,
		home:    home,
	}
}

// impairBudget is how many replicas of one group may be node-impaired at
// once: a minority, so every item keeps a live majority quorum.
func (s *scheduler) impairBudget() int {
	return (s.cfg.Replicas - 1) / 2
}

// impaired counts the active node-scoped faults per group.
func (s *scheduler) impaired(group int) int {
	n := 0
	for _, e := range s.active {
		if e.dm != "" && e.group == group {
			n++
		}
	}
	return n
}

// advance heals expired episodes and rolls for new ones. It must only be
// called with the network quiesced and no transactions in flight, so no
// transaction observes a fault transition mid-run.
func (s *scheduler) advance(round int, injected map[Fault]int) {
	kept := s.active[:0]
	for _, e := range s.active {
		if e.until <= round {
			if e.fault == FaultDiskfault && !s.healDisk(e) {
				// The rebuild needs every peer answering, and one of them is
				// crashed or partitioned at this boundary. The replica stays
				// quarantined (still counted against the group's impair
				// budget) and the heal retries next boundary; the final
				// healAll runs disk heals after every other fault is gone.
				e.until = round + 1
				kept = append(kept, e)
				continue
			}
			if e.fault != FaultDiskfault {
				s.heal(e)
			}
			continue
		}
		if e.fault == FaultFlap {
			// The flap IS the fault: the replica bounces at every boundary,
			// never down long enough to be declared dead, never up long
			// enough to be trusted again.
			if e.down {
				s.net.Restart(e.dm)
			} else {
				s.net.Crash(e.dm)
			}
			e.down = !e.down
		}
		kept = append(kept, e)
	}
	s.active = kept

	for _, f := range AllFaults { // fixed order: determinism
		if !s.enabled[f] {
			continue
		}
		if s.rng.Float64() >= 0.5 {
			continue
		}
		ttl := round + 1 + s.rng.Intn(2)
		switch f {
		case FaultCrash, FaultAmnesia, FaultPartition, FaultStraggler, FaultFlap, FaultStalecopy:
			g := s.rng.Intn(len(s.groups))
			if s.impaired(g) >= s.impairBudget() {
				continue
			}
			dm := s.groups[g][s.rng.Intn(len(s.groups[g]))]
			if s.nodeFaulted(dm) {
				continue
			}
			switch f {
			case FaultCrash, FaultAmnesia:
				// Amnesia injects like a crash; the difference is the heal,
				// which wipes the DM's memory and rebuilds it from its WAL.
				s.net.Crash(dm)
			case FaultFlap:
				s.net.Crash(dm)
			case FaultPartition, FaultStalecopy:
				s.net.Disconnect(s.client, dm)
			case FaultStraggler:
				// Kept far below the call timeout so a straggler's reply —
				// the one case fate feedback cannot settle early — never
				// races the timer.
				d := time.Duration(1+s.rng.Intn(2)) * time.Millisecond
				s.net.SetNodeLatency(dm, d, d)
			}
			s.active = append(s.active, episode{fault: f, dm: dm, group: g, until: ttl, down: f == FaultFlap})
			if f == FaultStalecopy && !s.writePast(g) {
				return
			}
		case FaultDrop:
			if s.faultActive(f) {
				continue
			}
			// Kept modest: every lost request or reply stalls its caller
			// for a full call timeout, so loss dominates campaign wall
			// time well before it adds test power.
			s.net.SetDropProb(0.03 + 0.07*s.rng.Float64())
			s.active = append(s.active, episode{fault: f, until: ttl})
		case FaultDup:
			if s.faultActive(f) {
				continue
			}
			s.net.SetDupProb(0.10 + 0.20*s.rng.Float64())
			s.active = append(s.active, episode{fault: f, until: ttl})
		case FaultReorder:
			if s.faultActive(f) {
				continue
			}
			s.net.SetReorder(0.10+0.20*s.rng.Float64(), time.Millisecond)
			s.active = append(s.active, episode{fault: f, until: ttl})
		case FaultClientCrash:
			g := s.rng.Intn(len(s.groups))
			item := fmt.Sprintf("x%d", g)
			// The orphaned transaction holds write locks at a full write
			// quorum, so the item is unreadable and unwritable until the
			// first client it blocks presumes it aborted. No episode is recorded:
			// there is nothing the scheduler can heal — recovery is the
			// store's job, and the final writability probe checks it did.
			if _, perr := s.store.PlantOrphan(context.Background(), item); perr != nil {
				continue // a fully impaired group may refuse; the roll is spent
			}
			s.orphans++
		case FaultOverload:
			// A seeded burst at one replica's admission queue: always larger
			// than the queue, with a pre-expired prefix. Injection bypasses
			// the network behind a held service loop, the scheduler only
			// runs with the network quiesced, and Burst first drains what
			// the replica has yet to admit or serve, so the queue is empty
			// and the verdict counts depend on nothing but the burst shape.
			g := s.rng.Intn(len(s.groups))
			dm := s.groups[g][s.rng.Intn(len(s.groups[g]))]
			k := overloadAdmitCap + 2 + s.rng.Intn(8)
			rep := s.store.Burst(dm, k, s.rng.Intn(3))
			s.bursts++
			s.shed += int64(rep.Shed)
			s.expired += int64(rep.Expired)
		case FaultMigrate:
			if len(s.groups) < 2 {
				continue
			}
			i := s.rng.Intn(len(s.groups))
			tg := s.rng.Intn(len(s.groups) - 1)
			if tg >= s.home[i] {
				tg++ // a group other than the believed home
			}
			mode := s.rng.Intn(4)
			deliver := s.rng.Intn(3)
			// A target group already node-impaired would just fail the adopt
			// round (every new replica must host the placeholder); spend the
			// roll elsewhere. The believed-home group may be impaired — the
			// old side only needs quorums, and failing against them is part
			// of the exercise.
			if s.impaired(tg) > 0 {
				continue
			}
			item := fmt.Sprintf("x%d", i)
			target := fmt.Sprintf("g%d", tg)
			// The coordinator is killed before the commit decision (mode 2) or
			// partway through the commit broadcast (mode 3); modes 0 and 1
			// migrate cleanly.
			var cut cluster.CommitCrashOptions
			switch mode {
			case 2:
				cut.Stage = cluster.CommitCrashBeforeDecide
			case 3:
				cut = cluster.CommitCrashOptions{Stage: cluster.CommitCrashMidLearn, Deliver: deliver}
			}
			merr := s.store.MigrateItem(context.Background(), item, target, cut)
			switch {
			case merr == nil:
				s.migrations++
				s.home[i] = tg
			case errors.Is(merr, cluster.ErrCommitAbandoned), errors.Is(merr, cluster.ErrTxnInDoubt):
				// The injected coordinator kill, or a decide phase a concurrent
				// fault left in doubt. The item's fate — old group at the old
				// generation, or new group at gen+1 — now rests with whoever its
				// locks block next; the final writability probe and
				// the checker hold it to exactly one of those.
				s.abandoned++
			case expectedUnderFaults(merr):
				// Adopt/copy/fence lost to a concurrent fault before the
				// commit point; the coordinator aborted cleanly.
			default:
				if s.err == nil {
					s.err = fmt.Errorf("chaos: migrate %s -> %s: %w", item, target, merr)
				}
				return
			}
		case FaultCoordCrash:
			g := s.rng.Intn(len(s.groups))
			stage := cluster.CommitCrashStage(1 + s.rng.Intn(4))
			deliver := s.rng.Intn(s.cfg.Replicas)
			item := fmt.Sprintf("x%d", g)
			base := s.acceptorResolves()
			val := fmt.Sprintf("coordcrash-%d-%d", round, s.coordCrashes)
			rep, cerr := s.store.CrashCommit(context.Background(), item, val,
				cluster.CommitCrashOptions{Stage: stage, Deliver: deliver})
			switch {
			case errors.Is(cerr, cluster.ErrCommitAbandoned):
				// The injected kill. The transaction's locks (and any
				// acceptor votes) now dangle; the settle pass holds the
				// cluster's resolution to the convergence contract.
				s.coordCrashes++
				s.crashes = append(s.crashes, coordCrash{rep: rep, base: base})
			case expectedUnderFaults(cerr):
				continue // lost to a concurrent fault before the commit point; the roll is spent
			default:
				if s.err == nil {
					s.err = fmt.Errorf("chaos: coordcrash on %s: %w", item, cerr)
				}
				return
			}
		case FaultDiskfault:
			// One scrambled disk at a time: a rebuild pulls from EVERY peer,
			// so two concurrently quarantined replicas would fail each
			// other's pulls by construction, not by bug.
			if s.faultActive(f) {
				continue
			}
			g := s.rng.Intn(len(s.groups))
			if s.impaired(g) >= s.impairBudget() {
				continue
			}
			dm := s.groups[g][s.rng.Intn(len(s.groups[g]))]
			if s.nodeFaulted(dm) {
				continue
			}
			mode := s.rng.Intn(3)
			switch mode {
			case diskNoSpace:
				// The disk fills mid-round: the first logged write the
				// workload lands at this replica fails its append and the
				// replica quarantines itself — fail closed, no ack for state
				// the disk does not back.
				s.ffs.FailAppends(filepath.Join(s.walDir, dm), true)
			case diskMidCommit:
				// The nastiest seeded instant: kill a commit coordinator
				// around the commit point AND scramble a cohort member's disk
				// in the same breath. Under TwoPhase the stage is clamped to
				// BeforeDecide — a mid-learn 2PC commit whose only learner's
				// disk then dies is a genuinely lost decided commit (DESIGN.md
				// §12); PaxosCommit's majority-durable decision tolerates any
				// stage, which is exactly the point of running it here.
				stage := cluster.CommitCrashStage(1 + s.rng.Intn(4))
				deliver := s.rng.Intn(s.cfg.Replicas)
				if s.cfg.Protocol != commit.PaxosCommit {
					stage = cluster.CommitCrashBeforeDecide
				}
				base := s.acceptorResolves()
				item := fmt.Sprintf("x%d", g)
				val := fmt.Sprintf("diskfault-%d-%d", round, s.diskFaults)
				rep, cerr := s.store.CrashCommit(context.Background(), item, val,
					cluster.CommitCrashOptions{Stage: stage, Deliver: deliver})
				switch {
				case errors.Is(cerr, cluster.ErrCommitAbandoned):
					s.coordCrashes++
					s.crashes = append(s.crashes, coordCrash{rep: rep, base: base})
				case expectedUnderFaults(cerr):
					continue // lost to a concurrent fault; the roll is spent
				default:
					if s.err == nil {
						s.err = fmt.Errorf("chaos: diskfault mid-commit on %s: %w", item, cerr)
					}
					return
				}
				if !s.corruptAtRest(dm) {
					if s.err != nil {
						return
					}
					continue // nothing corruptible yet; the crash alone stands
				}
			case diskAtRest:
				if !s.corruptAtRest(dm) {
					if s.err != nil {
						return
					}
					continue // log too young to have sealed anything; the roll is spent
				}
			}
			s.active = append(s.active, episode{fault: f, dm: dm, group: g, until: ttl, mode: mode})
			s.diskFaults++
		}
		injected[f]++
	}
}

// corruptAtRest stops a replica, scrambles its log on the (virtual) disk —
// a bit flip in a sealed segment frame, else a whole sealed segment
// dropped, else the snapshot damaged — and restarts it onto the wreckage.
// The restart comes back quarantined (verified by the heal, which must
// rebuild it). Returns false when the log is still too young to hold
// anything corruptible; harness errors land in s.err.
func (s *scheduler) corruptAtRest(dm string) bool {
	dir := filepath.Join(s.walDir, dm)
	if err := s.store.StopDM(dm); err != nil {
		s.fail(fmt.Errorf("chaos: diskfault stop %s: %w", dm, err))
		return false
	}
	hit := false
	if _, _, ok, err := s.ffs.CorruptSegmentFrame(dir); err != nil {
		s.fail(fmt.Errorf("chaos: diskfault corrupt %s: %w", dm, err))
	} else if ok {
		hit = true
	}
	if !hit && s.err == nil {
		if _, ok, err := s.ffs.DropSegment(dir); err != nil {
			s.fail(fmt.Errorf("chaos: diskfault drop segment %s: %w", dm, err))
		} else if ok {
			hit = true
		}
	}
	if !hit && s.err == nil {
		if _, ok, err := s.ffs.CorruptSnapshot(dir); err != nil {
			s.fail(fmt.Errorf("chaos: diskfault corrupt snapshot %s: %w", dm, err))
		} else if ok {
			hit = true
		}
	}
	if _, err := s.store.RestartDM(dm); err != nil {
		s.fail(fmt.Errorf("chaos: diskfault restart %s: %w", dm, err))
		return false
	}
	return hit && s.err == nil
}

// healDisk disarms a diskfault episode and, when the replica actually
// quarantined, rebuilds it from its peers. Returns false when the rebuild
// cannot complete at this boundary (the pull needs ALL peers answering and
// one is crashed or partitioned); the caller retries at the next one.
func (s *scheduler) healDisk(e episode) bool {
	if e.mode == diskNoSpace {
		s.ffs.FailAppends(filepath.Join(s.walDir, e.dm), false)
	}
	quar := false
	for _, q := range s.store.QuarantinedDMs() {
		if q == e.dm {
			quar = true
		}
	}
	if !quar {
		// Mode B that never saw a logged write, or an at-rest scramble whose
		// restart somehow recovered: nothing to rebuild.
		return true
	}
	if _, err := s.store.RebuildReplica(context.Background(), e.dm); err != nil {
		return false
	}
	return true
}

// writePast moves group g's item past the replica a stalecopy episode cut
// off: the write's quorum is the survivors, and the healed replica rejoins
// holding the superseded version for later read quorums to outvote. False
// when the write failed in a way the campaign's faults do not explain.
func (s *scheduler) writePast(g int) bool {
	s.stales++
	item, val := fmt.Sprintf("x%d", g), fmt.Sprintf("stalecopy-%d", s.stales)
	err := s.store.Run(context.Background(), func(t *cluster.Txn) error {
		return t.Write(context.Background(), item, val)
	})
	switch {
	case err == nil:
		s.staleWrites++
	case !expectedUnderFaults(err):
		s.fail(fmt.Errorf("chaos: stalecopy write through survivors: %w", err))
		return false
	}
	return true
}

func (s *scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *scheduler) nodeFaulted(dm string) bool {
	for _, e := range s.active {
		if e.dm == dm {
			return true
		}
	}
	return false
}

func (s *scheduler) faultActive(f Fault) bool {
	for _, e := range s.active {
		if e.fault == f {
			return true
		}
	}
	return false
}

func (s *scheduler) heal(e episode) {
	switch e.fault {
	case FaultCrash:
		s.net.Restart(e.dm)
	case FaultFlap:
		if e.down {
			s.net.Restart(e.dm)
		}
	case FaultAmnesia:
		// The heal IS the amnesia: discard the replica's state machine,
		// rebuild it from its log, and only then let traffic back in. Heals
		// run behind a Quiesce barrier, so replay sees a settled log.
		if _, err := s.store.RestartDM(e.dm); err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("chaos: amnesia recovery of %s: %w", e.dm, err)
			}
			return
		}
		s.net.Restart(e.dm)
	case FaultPartition, FaultStalecopy:
		s.net.Reconnect(s.client, e.dm)
	case FaultStraggler:
		s.net.SetNodeLatency(e.dm, 0, 0)
	case FaultDrop:
		s.net.SetDropProb(0)
	case FaultDup:
		s.net.SetDupProb(0)
	case FaultReorder:
		s.net.SetReorder(0, 0)
	}
}

// healAll reverts every active fault; the final verification round runs on
// a healthy network. Disk heals run last — their rebuilds need every peer
// back, so every crash and partition must lift first.
func (s *scheduler) healAll() {
	var disks []episode
	for _, e := range s.active {
		if e.fault == FaultDiskfault {
			disks = append(disks, e)
			continue
		}
		s.heal(e)
	}
	for _, e := range disks {
		if !s.healDisk(e) {
			s.fail(fmt.Errorf("chaos: final rebuild of %s failed with every other fault healed", e.dm))
		}
	}
	s.active = nil
}
