package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
)

// selfHealCluster opens a volatile three-replica majority cluster on a
// manual clock, so tests control exactly when leases lapse: one
// clk.Advance past LeaseTTL lapses every lease stamped so far. Every message an operation causes is sent before Run returns — the
// cleanup as notifies — so a Quiesce after it settles them all in transit.
func selfHealCluster(t *testing.T, seed int64, extra ...Option) (*Store, *sim.Network, *sim.ManualClock, []string) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
		Seed: seed, FateFeedback: true,
	})
	clk := sim.NewManualClock(time.Unix(0, 0))
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	opts := append([]Option{
		WithSeed(seed),
		WithCallTimeout(25 * time.Millisecond),
		WithClock(clk),
		WithRetryBackoff(2 * time.Millisecond),
	}, extra...)
	store, err := Open(net, items, opts...)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		store.Close()
		net.Close()
	})
	return store, net, clk, dms
}

// settle flushes every DM's inbox: Quiesce settles network transit, but
// fire-and-forget traffic (commit notifies) settles on inbox enqueue, before
// the node's loop handles it. A follow-up Inspect call rides the same
// client→DM lane FIFO, so its reply proves every earlier message to that DM
// has been handled.
func settle(t *testing.T, store *Store, net *sim.Network, dms []string) {
	t.Helper()
	net.Quiesce()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, dm := range dms {
		if _, err := store.Inspect(ctx, dm, "x"); err != nil {
			t.Fatalf("settle %s: %v", dm, err)
		}
	}
}

// TestResolveOrphansStopsOnCancel: a pass over healthy replicas returns
// nil, and a pass under a cancelled context stops with its error.
func TestResolveOrphansStopsOnCancel(t *testing.T) {
	store, _, _, _ := selfHealCluster(t, 13, WithCallTimeout(time.Second))
	ctx := context.Background()
	if err := store.ResolveOrphans(ctx); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := store.ResolveOrphans(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass returned %v, want context.Canceled", err)
	}
}

// TestCloseIdempotent pins Store.Close's contract: any number of calls,
// from any number of goroutines, is safe and shuts the store down exactly
// once.
func TestCloseIdempotent(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(fastNet(301))
	defer net.Close()
	store, err := Open(net,
		[]ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		// A background loop makes double-Close genuinely dangerous (a second
		// close of stopBg would panic): the lease renewer runs under the wall
		// clock.
		WithSeed(301),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Run(context.Background(), func(tx *Txn) error {
		return tx.Write(context.Background(), "x", 1)
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			store.Close()
		}()
	}
	wg.Wait()
	store.Close() // and once more after everyone is done
}

// TestConflictRetryHonorsCancel is the satellite-1 regression: a
// transaction stuck behind a foreign lock, with a retry budget worth many
// seconds of backoff, must return promptly when its context is cancelled —
// from the retry loops and from the commit/abort control sends alike.
func TestConflictRetryHonorsCancel(t *testing.T) {
	store, _, _, dms := selfHealCluster(t, 302, // the clock never moves: the blocker is never reaped
		WithLockRetries(100),
		WithRetryBackoff(50*time.Millisecond),
		WithTxnRetries(100),
	)
	ctx := context.Background()
	// A foreign transaction write-locks every replica; nobody will ever
	// resolve it, so the write below can only end by cancellation.
	blocker := TxnID("zz.t1")
	for _, dm := range dms {
		raw, err := store.client.Call(ctx, dm, WriteReq{Txn: blocker, Item: "x", VN: 999, Val: 0, Seq: 1})
		if err != nil {
			t.Fatalf("plant blocker at %s: %v", dm, err)
		}
		if wr, ok := raw.(WriteResp); !ok || !wr.OK {
			t.Fatalf("blocker refused at %s: %#v", dm, raw)
		}
	}
	cctx, cancel := context.WithTimeout(ctx, 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := store.Run(cctx, func(tx *Txn) error { return tx.Write(cctx, "x", 7) })
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("write through a permanently locked item succeeded")
	}
	// The budget is 100 retries × ≥50ms ≈ 5s+ per attempt, times 100
	// restarts. Honoring cancellation means returning within a breath of
	// the 25ms deadline, not a slice of that budget.
	if elapsed > 2*time.Second {
		t.Fatalf("Run returned after %v; cancellation not honored through the retry budget", elapsed)
	}
}

// TestHealthBoardTransitions unit-tests the failure detector's counters:
// circuits open after failThreshold consecutive failures, close on one
// success, and expose their state through suspect().
func TestHealthBoardTransitions(t *testing.T) {
	var stats Stats
	b := newHealthBoard(&stats)
	for i := 0; i < defaultFailThreshold-1; i++ {
		b.observe("dm0", false)
	}
	if b.suspect("dm0") {
		t.Fatalf("circuit opened after %d failures, threshold is %d", defaultFailThreshold-1, defaultFailThreshold)
	}
	b.observe("dm0", false)
	if !b.suspect("dm0") {
		t.Fatal("circuit not open at the fail threshold")
	}
	if stats.CircuitOpens.Value() != 1 || stats.SuspectReplicas.Value() != 1 {
		t.Fatalf("counters: opens=%d suspects=%d, want 1/1", stats.CircuitOpens.Value(), stats.SuspectReplicas.Value())
	}
	// A success — even after a long failure streak — closes the circuit.
	b.observe("dm0", true)
	if b.suspect("dm0") {
		t.Fatal("circuit still open after a success")
	}
	if stats.SuspectReplicas.Value() != 0 {
		t.Fatalf("suspect gauge %d after recovery, want 0", stats.SuspectReplicas.Value())
	}
	// Interleaved successes keep resetting the streak.
	b.observe("dm1", false)
	b.observe("dm1", false)
	b.observe("dm1", true)
	b.observe("dm1", false)
	b.observe("dm1", false)
	if b.suspect("dm1") {
		t.Fatal("non-consecutive failures opened the circuit")
	}
}

// TestHealthBoardPlan checks fan-out planning: a phase first asks one
// smallest quorum of non-suspects, taking equal candidates in turn; suspects
// are skipped only while non-suspects still cover a quorum, and an open
// circuit gets a single half-open probe every probeEvery passes.
func TestHealthBoardPlan(t *testing.T) {
	b := newHealthBoard(nil)
	targets := []string{"dm0", "dm1", "dm2"}
	quorums := []uint64{0b011, 0b101, 0b110, 0b111} // the pairs, then all three
	// All healthy: every target may be dialed, and one pair is asked first —
	// each pair in turn, never the larger quorum.
	firsts := map[uint64]int{}
	for pass := 0; pass < 2*len(quorums); pass++ {
		p := b.plan(targets, quorums, 0)
		if p.send != 0b111 || p.probes != 0 || p.skipped != 0 || bits.OnesCount64(p.first) != 2 {
			t.Fatalf("healthy plan: %+v", p)
		}
		firsts[p.first]++
	}
	if len(firsts) != 3 {
		t.Fatalf("first quorums did not rotate over the three pairs: %v", firsts)
	}
	// Target i is asked at once when the plan has no first quorum or i is
	// in it or probed.
	asksFirst := func(p phasePlan, i int) bool { return p.first == 0 || (p.first|p.probes)&(1<<i) != 0 }
	for i := 0; i < defaultFailThreshold; i++ {
		b.observe("dm2", false)
	}
	// dm2 suspect, {dm0,dm1} covers a quorum: it is every first quorum; dm2
	// is skipped for probeEvery-1 passes, then probed exactly once.
	probed := 0
	for pass := 1; pass <= defaultProbeEvery; pass++ {
		p := b.plan(targets, quorums, 0)
		if p.first != 0b011 {
			t.Fatalf("pass %d: first quorum %b holds the suspect", pass, p.first)
		}
		if p.probes != 0 {
			probed++
			if p.probes != 0b100 || p.send != 0b111 || p.skipped != 0 || !asksFirst(p, 2) {
				t.Fatalf("pass %d: probe plan %+v", pass, p)
			}
		} else if p.send != 0b011 || p.skipped != 1 || asksFirst(p, 2) {
			t.Fatalf("pass %d: skip plan %+v", pass, p)
		}
	}
	if probed != 1 {
		t.Fatalf("%d probes in %d passes, want exactly 1", probed, defaultProbeEvery)
	}
	// Two suspects leave no healthy quorum: availability first, dial all at once.
	for i := 0; i < defaultFailThreshold; i++ {
		b.observe("dm1", false)
	}
	p := b.plan(targets, quorums, 0)
	if p.send != 0b111 || p.probes != 0 || p.skipped != 0 || p.first != 0 {
		t.Fatalf("uncovered plan must dial everyone: %+v", p)
	}
	for i, dm := range targets {
		if !asksFirst(p, i) {
			t.Fatalf("uncovered plan holds %s back", dm)
		}
	}
}

// TestHealthBoardOrderQuorums checks the sequential path's steering:
// quorums are stably reordered by suspect count, fewest first.
func TestHealthBoardOrderQuorums(t *testing.T) {
	b := newHealthBoard(nil)
	for i := 0; i < defaultFailThreshold; i++ {
		b.observe("dm0", false)
	}
	qs := []quorum.Set{
		quorum.NewSet("dm0", "dm1"), // 1 suspect
		quorum.NewSet("dm1", "dm2"), // 0 suspects
		quorum.NewSet("dm0", "dm2"), // 1 suspect
	}
	out := b.orderQuorums(qs)
	if !out[0].Contains("dm1") || !out[0].Contains("dm2") || out[0].Contains("dm0") {
		t.Fatalf("healthiest quorum not first: %v", out)
	}
	// Stable: the two one-suspect quorums keep their relative order.
	if !out[1].Contains("dm1") || !out[2].Contains("dm2") {
		t.Fatalf("equal-count quorums reordered: %v", out)
	}
}

// TestFanOutSteersAroundCrashedReplica drives the detector end to end: a
// crashed replica opens its circuit after a few writes, later fan-outs skip
// it, and once it restarts a half-open probe closes the circuit again.
func TestFanOutSteersAroundCrashedReplica(t *testing.T) {
	store, net, _, _ := selfHealCluster(t, 303)
	ctx := context.Background()
	write := func(i int) {
		t.Helper()
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	write(0)
	net.Crash("dm2")
	for i := 1; i <= 8; i++ {
		write(i)
	}
	if store.Stats.CircuitOpens.Value() == 0 {
		t.Fatal("crashed replica never opened its circuit")
	}
	if store.Stats.SuspectSkips.Value() == 0 {
		t.Fatal("fan-outs never steered around the suspect")
	}
	net.Restart("dm2")
	for i := 9; i <= 20; i++ {
		write(i)
	}
	if store.Stats.ProbeTrials.Value() == 0 {
		t.Fatal("no half-open probes were sent")
	}
	for _, h := range store.Health() {
		if h.Suspect {
			t.Fatalf("%s still suspect after restart and probes: %+v", h.DM, h)
		}
	}
	if g := store.Stats.SuspectReplicas.Value(); g != 0 {
		t.Fatalf("suspect gauge %d after recovery, want 0", g)
	}
}

// TestLeaseReapsOrphanedLocks is the lease's core promise: a client that
// crashed holding write locks wedges the item only until its lease lapses;
// the next conflicting writer is told who is in its way, asks every DM,
// every DM answers "unknown", and the orphan is presumed aborted — locks
// freed, intention dropped, the writer's retry succeeds.
func TestLeaseReapsOrphanedLocks(t *testing.T) {
	store, net, clk, dms := selfHealCluster(t, 304)
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := store.PlantOrphan(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	clk.Advance(LeaseTTL + time.Millisecond)
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 2) }); err != nil {
		t.Fatalf("write after orphan's lease lapsed: %v", err)
	}
	if got := store.Stats.OrphanReapsAborted.Value(); got == 0 {
		t.Fatal("no orphan was reaped")
	}
	if got := store.Stats.ResolutionQueries.Value(); got == 0 {
		t.Fatal("reap happened without a probe round")
	}
	for _, dm := range dms {
		insp, err := store.Inspect(ctx, dm, "x")
		if err != nil {
			t.Fatalf("inspect %s: %v", dm, err)
		}
		if insp.Locks != 0 || insp.Intents != 0 {
			t.Fatalf("%s still holds %d lock(s), %d intent(s) after reap", dm, insp.Locks, insp.Intents)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 2 {
			t.Errorf("read %d, want 2 — the orphan's buffered write must not survive", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// crashWriterBeforeCommit arms store to crash, just before the next
// top-level commit is sent, the first replica by name that buffers an
// intention for item — a member of the write quorum the commit must reach —
// and returns where the victim's name is stored.
func crashWriterBeforeCommit(t *testing.T, store *Store, net *sim.Network, dms []string, item string) *string {
	t.Helper()
	victim := new(string)
	store.Hooks.BeforeCommitTop = func(TxnID) {
		if *victim != "" {
			return
		}
		for _, dm := range dms {
			if insp, err := store.Inspect(context.Background(), dm, item); err == nil && insp.Intents > 0 {
				*victim = dm
				net.Crash(dm)
				return
			}
		}
		t.Errorf("no replica buffers an intention for %s before the commit", item)
	}
	return victim
}

// TestReapAppliesPeerCommitRecord covers the other reap outcome: a replica
// that missed the commit broadcast (crashed across the commit point) still
// holds the committed transaction's locks and intention. Once the lease
// lapses, ResolveOrphans's probes reach peers that DID resolve the
// transaction, and the straggler is served their record — intention folded
// in, not discarded.
func TestReapAppliesPeerCommitRecord(t *testing.T) {
	store, net, clk, dms := selfHealCluster(t, 305, WithLockRetries(3))
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
		t.Fatal(err)
	}
	victim := crashWriterBeforeCommit(t, store, net, dms, "x")
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 42) }); err != nil {
		t.Fatalf("commit with crashed minority: %v", err)
	}
	store.Hooks.BeforeCommitTop = nil
	straggler := *victim
	net.Restart(straggler)
	pre, err := store.Inspect(ctx, straggler, "x")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Intents == 0 || pre.Locks == 0 {
		t.Fatalf("precondition: %s should be a straggler with lock+intent, got %+v", straggler, pre)
	}

	clk.Advance(LeaseTTL + time.Millisecond)
	// ResolveOrphans's inspection is the orphan hunter here — no client is
	// waiting on the straggler, since quorums route around it.
	if err := store.ResolveOrphans(ctx); err != nil {
		t.Fatal(err)
	}

	if got := store.Stats.OrphanReapsCommitted.Value(); got == 0 {
		t.Fatal("straggler never applied the peers' commit record")
	}
	post, err := store.Inspect(ctx, straggler, "x")
	if err != nil {
		t.Fatal(err)
	}
	if post.Intents != 0 || post.Locks != 0 {
		t.Fatalf("straggler still holds %d intent(s), %d lock(s)", post.Intents, post.Locks)
	}
	if post.Val != 42 {
		t.Fatalf("straggler reaped to value %v, want the committed 42", post.Val)
	}
}

// TestLeaseFenceStopsReapedCommit is the safety half of presumed abort: a
// slow client whose locks were reaped must NOT be able to commit. The
// pre-commit lease fence hits the replicas that resolved the transaction,
// they refuse the renewal, and Run surfaces ErrLeaseExpired instead of
// committing a transaction the cluster already aborted.
func TestLeaseFenceStopsReapedCommit(t *testing.T) {
	store, net, clk, dms := selfHealCluster(t, 306, WithTxnRetries(0))
	ctx := context.Background()
	other, err := OpenClient(net, store.Items(),
		WithSeed(307), WithCallTimeout(25*time.Millisecond),
		WithClock(clk), WithRetryBackoff(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	err = store.Run(ctx, func(tx *Txn) error {
		if err := tx.Write(ctx, "x", 111); err != nil {
			return err
		}
		// The client now "stalls": its lease lapses, and a second client's
		// conflicting write gets the locks reaped out from under it. (A
		// widened phase's copy still in flight to a replica, or queued in its
		// inbox, must be handled before the clock moves, or its grant stamps
		// a lease the second client's probe finds live: an Inspect rides the
		// same lane, so its reply proves the replica handled the copy.)
		settle(t, store, net, dms)
		clk.Advance(LeaseTTL + time.Millisecond)
		if err := other.Run(ctx, func(tx2 *Txn) error { return tx2.Write(ctx, "x", 222) }); err != nil {
			return fmt.Errorf("second client could not write past the expired lease: %w", err)
		}
		return nil // and then tries to commit
	})
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("stalled client's commit returned %v, want ErrLeaseExpired", err)
	}
	if store.Stats.LeaseExpiries.Value() == 0 {
		t.Fatal("lease expiry not counted")
	}
	net.Quiesce()
	if err := other.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 222 {
			t.Errorf("final value %d, want the surviving client's 222", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// lostRelease opens three replicas of "x" on a manual clock, with default
// options otherwise — reads need two replicas and writes all three — and runs
// one transaction whose subtransaction read-locks two of them. The first, the
// victim, never hears the commit: its notify is eaten. between runs after the
// read and before the commit. It returns the store, its clock, the reader and
// the victim, once the victim is known to still hold the reader's lock.
func lostRelease(t *testing.T, seed int64, between func(store *Store, victim string), extra ...Option) (*Store, *sim.ManualClock, TxnID, string) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
		Seed: seed, FateFeedback: true,
	})
	t.Cleanup(net.Close)
	// Set and read on the Run goroutine: the reader, the replica whose commit
	// notify is eaten, and how many were.
	var (
		reader  TxnID
		victim  string
		dropped int
	)
	tap := tapTransport{Transport: net, onNotify: func(to string, req any) bool {
		if c, ok := req.(CommitTopReq); ok && c.Txn == reader && to == victim {
			dropped++
			return true
		}
		return false
	}}
	cfg, err := quorum.Voting(map[string]int{"dm0": 1, "dm1": 1, "dm2": 1}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewManualClock(time.Unix(0, 0))
	store, err := Open(tap, []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: cfg}}, append([]Option{
		WithSeed(seed), WithCallTimeout(time.Second), WithClock(clk),
		WithSequentialPhases(true), WithHedgeDelay(0), WithRetryBackoff(2 * time.Millisecond),
	}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	ctx := context.Background()

	if err := store.Run(ctx, func(tx *Txn) error {
		if err := tx.Sub(ctx, func(sub *Txn) error {
			_, err := sub.Read(ctx, "x")
			return err
		}); err != nil {
			return err
		}
		_, granted, _ := tx.controlSets()
		reader, victim = tx.ID(), granted[0]
		between(store, victim)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("%d commit notifies to %s dropped, want 1", dropped, victim)
	}
	net.Quiesce()
	if p, err := store.ResolutionProbe(ctx, victim, reader); err != nil || !p.Holds {
		t.Fatalf("%s after the lost notify: %+v, %v — want %s's read lock still held", victim, p, err, reader)
	}
	return store, clk, reader, victim
}

// writeBehindLapsedLease lets every lease lapse and then writes "x", whose
// write quorum is every replica: the victim refuses with Busy naming the
// reader, and the writer resolves it by re-serving the commit record the
// other read-quorum replica holds, and commits. The victim then holds the
// reader's commit record and none of its locks.
func writeBehindLapsedLease(t *testing.T, store *Store, clk *sim.ManualClock, reader TxnID, victim string) {
	t.Helper()
	ctx := context.Background()
	clk.Advance(LeaseTTL + time.Millisecond)
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
		t.Fatalf("writer behind the lapsed lease: %v", err)
	}
	if got := store.Stats.OrphanReapsCommitted.Value(); got != 1 {
		t.Fatalf("%d orphans resolved as committed, want 1 (%s, re-served from its record)", got, reader)
	}
	if got := store.Stats.OrphanReapsAborted.Value(); got != 0 {
		t.Fatalf("%d orphans presumed aborted: the commit record was not found", got)
	}
	p, err := store.ResolutionProbe(ctx, victim, reader)
	if err != nil {
		t.Fatal(err)
	}
	if p.Holds || !p.Known || !p.Committed {
		t.Fatalf("%s after the resolution: %+v, want %s's commit record and none of its locks", victim, p, reader)
	}
	if insp, err := store.Inspect(ctx, victim, "x"); err != nil || insp.Locks != 0 {
		t.Fatalf("%s after the resolution: %+v, %v — want 0 locks", victim, insp, err)
	}
}

// TestLostReleaseNotifyIsResolvedByTheLease: a read-only transaction's
// commit reaches its replicas only as notifies, and the network may eat one —
// that replica keeps the read lock, and the lock lease, which every lock has,
// is the backstop: a writer that needs the replica commits once the lease
// lapsed. The read runs in a subtransaction, where it locks: a top-level
// first read leaves nothing to release.
func TestLostReleaseNotifyIsResolvedByTheLease(t *testing.T) {
	store, clk, reader, victim := lostRelease(t, 41, func(*Store, string) {})
	writeBehindLapsedLease(t, store, clk, reader, victim)
}

// TestRestartBetweenGrantAndReleaseIsResolvedByTheLease: a durable replica
// that restarts between a read lock's grant and its release recovers the
// lock from its log, and the release — sent while it was down — never
// arrives. Recovery stamps the recovered holder a fresh lease, so once that
// lapses a writer that needs the replica commits, and the replica is left
// with no lock.
func TestRestartBetweenGrantAndReleaseIsResolvedByTheLease(t *testing.T) {
	store, clk, reader, victim := lostRelease(t, 42, func(store *Store, victim string) {
		if _, err := store.RestartDM(victim); err != nil {
			t.Errorf("restart %s: %v", victim, err)
		}
	}, WithDurability(t.TempDir()))
	writeBehindLapsedLease(t, store, clk, reader, victim)
}
