package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/quorum"
	"repro/internal/sim"
)

// amnesia wipes a DM's in-memory state and rebuilds it from its
// write-ahead log, proving recovery reads the disk and not the heap.
func amnesia(t *testing.T, store *Store, dm string) RecoveryStats {
	t.Helper()
	h := store.host(dm)
	if h == nil {
		t.Fatalf("no DM %q", dm)
	}
	// Links are FIFO, so the answer to a ping proves the replica's loop is
	// done with everything this client sent it before (a fan-out's stray
	// release, say) and is not reading the state zeroed below. A crashed
	// replica answers nothing and handles nothing.
	store.callDM(context.Background(), dm, PingReq{})
	// Zero the state machine before reopening: anything the recovered DM
	// serves afterwards can only have come from the log.
	h.srv.dmState = emptyState()
	stats, err := store.RestartDM(dm)
	if err != nil {
		t.Fatalf("restart %s: %v", dm, err)
	}
	return stats
}

func openDurable(t *testing.T, seed int64, opts ...Option) (*sim.Network, *Store, []string) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
		Seed: seed, FateFeedback: true,
	})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	all := append([]Option{WithSeed(seed), WithDurability(t.TempDir())}, opts...)
	store, err := Open(net, items, all...)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	return net, store, dms
}

// TestRestartServesDurableState is the direct restart proof: a DM whose
// memory is zeroed before reopening still serves its pre-crash version
// number, value, lock table and pending intentions — all replayed from its
// WAL. A logged abort is replayed too, so the aborted intention is not
// resurrected by a second restart.
func TestRestartServesDurableState(t *testing.T) {
	net, store, dms := openDurable(t, 61)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 10; i <= 20; i += 10 {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	// The replica to restart is one the second write's quorum reached.
	victim := ""
	for _, dm := range dms {
		if insp, err := store.Inspect(ctx, dm, "x"); err == nil && insp.VN == 2 && victim == "" {
			victim = dm
		}
	}
	// Plant a pending intention with a raw write from a foreign
	// transaction that never resolves: the recovered DM must still buffer
	// it and hold its write lock.
	pending := TxnID("zz.t9")
	raw, err := store.client.Call(ctx, victim, WriteReq{Txn: pending, Item: "x", VN: 99, Val: 777, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wr, ok := raw.(WriteResp); !ok || !wr.OK {
		t.Fatalf("raw write refused: %#v", raw)
	}
	pre, err := store.Inspect(ctx, victim, "x")
	if err != nil {
		t.Fatal(err)
	}
	if pre.VN == 0 || pre.Intents == 0 || pre.Locks == 0 {
		t.Fatalf("precondition: %s must hold state, got %+v", victim, pre)
	}

	stats := amnesia(t, store, victim)
	if stats.Replayed == 0 && !stats.FromSnapshot {
		t.Fatalf("recovery replayed nothing: %+v", stats)
	}
	post, err := store.Inspect(ctx, victim, "x")
	if err != nil {
		t.Fatal(err)
	}
	if post.VN != pre.VN || post.Val != pre.Val || post.Gen != pre.Gen ||
		post.Intents != pre.Intents || post.Locks != pre.Locks {
		t.Fatalf("recovered state %+v, want pre-crash %+v", post, pre)
	}
	if store.Stats.Recoveries.Value() == 0 || store.Stats.ReplayedRecords.Value() == 0 {
		t.Error("recovery counters not advanced")
	}

	// The cluster still works through the recovered replica.
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 20 {
			t.Errorf("read %d after recovery, want 20", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Abort the planted transaction; the abort is logged, so even another
	// amnesia crash cannot resurrect the intention.
	if _, err := store.client.Call(ctx, victim, AbortReq{Txn: pending}); err != nil {
		t.Fatal(err)
	}
	amnesia(t, store, victim)
	post, err = store.Inspect(ctx, victim, "x")
	if err != nil {
		t.Fatal(err)
	}
	if post.Intents != pre.Intents-1 {
		t.Fatalf("aborted intention resurrected: %+v", post)
	}
}

// TestAmnesiaMidCommitBroadcast crashes a minority replica the write phase
// wrote exactly inside the commit-point window — after the commit decision,
// before any CommitTopReq lands — wipes its memory, recovers it from its
// WAL, and checks (a) the full history stays serializable and (b) the
// recovered replica still buffers the committed transaction's intention,
// which the crash prevented it from applying.
func TestAmnesiaMidCommitBroadcast(t *testing.T) {
	rec := checker.NewRecorder()
	rec.DeclareItem("x", 0)
	net, store, dms := openDurable(t, 62,
		WithHistory(rec),
		WithCallTimeout(20*time.Millisecond),
		WithLockRetries(3),
	)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 3; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	// The write phase asks one write quorum: the victim is a member of it,
	// the first replica found holding the intention.
	victim := ""
	store.Hooks.BeforeCommitTop = func(TxnID) {
		if victim != "" {
			return
		}
		for _, dm := range dms {
			if insp, err := store.Inspect(ctx, dm, "x"); err == nil && insp.Intents > 0 {
				victim = dm
				net.Crash(dm)
				return
			}
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 100) }); err != nil {
		t.Fatalf("commit with crashed minority must succeed: %v", err)
	}
	store.Hooks.BeforeCommitTop = nil
	if victim == "" {
		t.Fatal("no replica held the write's intention at the commit point")
	}
	// A notify to the victim still in transit would be delivered after the
	// restart below and legitimately apply the commit — correct behaviour,
	// but it would make the pending-intention assertion racy. Settled in
	// transit while the victim is down, it is dropped.
	net.Quiesce()

	stats := amnesia(t, store, victim)
	net.Restart(victim)
	if stats.Replayed == 0 && !stats.FromSnapshot {
		t.Fatalf("recovery replayed nothing: %+v", stats)
	}
	// The victim acknowledged the write phase (persist-before-ack), then
	// missed the commit broadcast: recovery must resurrect the intention,
	// not the applied state.
	insp, err := store.Inspect(ctx, victim, "x")
	if err != nil {
		t.Fatal(err)
	}
	if insp.Intents == 0 {
		t.Errorf("recovered %s lost the committed txn's pending intention: %+v", victim, insp)
	}

	// The cluster keeps serving — readers and writers route around the
	// straggler through quorums that applied the commit.
	for i := 101; i <= 103; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 103 {
			t.Errorf("read %d, want 103", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.History().Verify(); err != nil {
		t.Fatalf("history not serializable after amnesia recovery: %v", err)
	}
}

// TestDurableReopenAcrossStores runs the full restart cycle three times
// over one directory: open, run a workload (nested transaction with a
// tolerated sub-abort, two replica crashes, online reconfiguration, a
// final read-only transaction), Close, then open a fresh store over the
// same WALs and repeat. Each reopened cluster must recover every replica
// that has a log, serve the pre-close balance and grant locks freely. The
// final transaction is deliberately read-only and reads inside a Sub, so
// it takes read locks — a top-level first read would take none — while its
// commit has no required acks: everything it tells the replicas rides on
// notifies. Were Close to strand them, its read locks would be recovered
// into the next cycle and every later write would conflict (the regression
// this test pins).
func TestDurableReopenAcrossStores(t *testing.T) {
	dir := t.TempDir()
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	items := []ItemSpec{{Name: "x", Initial: 100, DMs: dms, Config: quorum.Majority(dms)}}
	ctx := context.Background()
	errRisky := errors.New("risky")

	// logged counts the replicas whose log directory holds any bytes. A
	// phase asks one quorum, and later phases stay on the replicas the
	// transaction already holds, so a replica no phase reached has no log.
	logged := func() int {
		n := 0
		for _, dm := range dms {
			entries, _ := os.ReadDir(filepath.Join(dir, dm))
			for _, e := range entries {
				if info, err := e.Info(); err == nil && info.Size() > 0 {
					n++
					break
				}
			}
		}
		return n
	}

	cycle := func(n int, seed int64, want int) {
		wantRecoveries := int64(logged())
		net := sim.NewNetwork(sim.Config{
			MinLatency: 100 * time.Microsecond, MaxLatency: time.Millisecond, Seed: seed,
		})
		defer net.Close()
		store, err := Open(net, items, WithSeed(seed), WithDurability(dir))
		if err != nil {
			t.Fatalf("cycle %d: open: %v", n, err)
		}
		defer store.Close()
		if n > 1 {
			if got := store.Stats.Recoveries.Value(); got != wantRecoveries || got < 3 {
				t.Fatalf("cycle %d: %d recoveries, want the %d replicas with a log, at least a majority", n, got, wantRecoveries)
			}
			if store.Stats.ReplayedRecords.Value() == 0 {
				t.Fatalf("cycle %d: no records replayed", n)
			}
			for _, dm := range dms[:3] {
				insp, err := store.Inspect(ctx, dm, "x")
				if err != nil {
					t.Fatalf("cycle %d: inspect %s: %v", n, dm, err)
				}
				if insp.Locks != 0 {
					t.Fatalf("cycle %d: %s recovered %d stale lock(s)", n, dm, insp.Locks)
				}
			}
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			v, err := ReadAs[int](ctx, tx, "x")
			if err != nil {
				return err
			}
			if v != want {
				t.Errorf("cycle %d opened with balance %d, want %d", n, v, want)
			}
			if err := tx.Write(ctx, "x", 150); err != nil {
				return err
			}
			if err := tx.Sub(ctx, func(sub *Txn) error {
				if err := sub.Write(ctx, "x", -1); err != nil {
					return err
				}
				return errRisky
			}); !errors.Is(err, errRisky) {
				return fmt.Errorf("sub-abort not surfaced: %v", err)
			}
			return nil
		}); err != nil {
			t.Fatalf("cycle %d: txn1: %v", n, err)
		}
		net.Crash("dm3")
		net.Crash("dm4")
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 175) }); err != nil {
			t.Fatalf("cycle %d: txn2: %v", n, err)
		}
		if err := store.Reconfigure(ctx, "x", quorum.Majority(dms[:3])); err != nil {
			t.Fatalf("cycle %d: reconfigure: %v", n, err)
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Sub(ctx, func(sub *Txn) error {
				_, err := sub.Read(ctx, "x")
				return err
			})
		}); err != nil {
			t.Fatalf("cycle %d: txn3: %v", n, err)
		}
	}

	cycle(1, 71, 100)
	cycle(2, 72, 175)
	cycle(3, 73, 175)
}

// TestCloseRacingReadOnlyRunsLeavesNoLocks: a read-only transaction's
// releases ride entirely on notifies, sent before Run returns and carrying
// no context, and an orderly Close delivers what is queued. So however Close
// races a stream of read-only Runs, no transaction that returned before Close
// began leaves a read lock in any replica's log: after a restart from the
// logs, every replica has let go of every one of them — the leak a release
// dying with the process would leave wedging every later writer.
func TestCloseRacingReadOnlyRunsLeavesNoLocks(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	ctx := context.Background()
	for seed := int64(81); seed <= 85; seed++ {
		dir := t.TempDir()
		open := func() (*sim.Network, *Store) {
			net := sim.NewNetwork(sim.Config{
				MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
				Seed: seed, FateFeedback: true,
			})
			store, err := Open(net, items, WithSeed(seed), WithDurability(dir))
			if err != nil {
				net.Close()
				t.Fatal(err)
			}
			return net, store
		}
		net, store := open()
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 7) }); err != nil {
			t.Fatal(err)
		}
		var (
			closing  atomic.Bool
			mu       sync.Mutex
			returned []TxnID // read-only transactions that committed before Close began
		)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Errors are expected once Close tears the cluster down.
					var id TxnID
					err := store.Run(ctx, func(tx *Txn) error {
						id = tx.ID()
						_, err := tx.Read(ctx, "x")
						return err
					})
					if err == nil && !closing.Load() {
						mu.Lock()
						returned = append(returned, id)
						mu.Unlock()
					}
				}
			}()
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			mu.Lock()
			n := len(returned)
			mu.Unlock()
			if n >= 8 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %d read-only transactions committed in 10s", seed, n)
			}
		}
		closing.Store(true)
		store.Close() // races the workers' release notifies
		close(stop)
		wg.Wait()
		net.Close()

		net, store = open()
		for _, id := range returned {
			for _, dm := range dms {
				probe, err := store.ResolutionProbe(ctx, dm, id)
				if err != nil {
					t.Fatal(err)
				}
				if probe.Holds {
					t.Fatalf("seed %d: %s recovered a lock of %s, which returned before Close", seed, dm, id)
				}
			}
		}
		store.Close()
		net.Close()
	}
}

// TestReaperAndReplayConverge crosses orphan resolution with amnesia
// recovery: a replica crashes across the commit point, is amnesia-restarted
// (WAL replay resurrects the committed transaction's lock and intention,
// with a fresh lease), and the sweeper then resolves the orphan from the
// peers' commit records. A second amnesia restart must converge to the same
// state purely from the log — the re-served decision was persisted as a
// DecisionReq record — and must not double-count the resolution.
func TestReaperAndReplayConverge(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	net, store, dms := openDurable(t, 65,
		WithCallTimeout(20*time.Millisecond),
		WithLockRetries(3),
		WithClock(clk),
	)
	defer func() { store.Close(); net.Close() }()
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

	// Amnesia-restart the straggler: replay resurrects the committed
	// transaction's write lock and intention (persist-before-ack covered the
	// write phase), and recovery stamps them a fresh lease.
	stats := amnesia(t, store, straggler)
	net.Restart(straggler)
	if stats.Replayed == 0 && !stats.FromSnapshot {
		t.Fatalf("recovery replayed nothing: %+v", stats)
	}
	pre, err := store.Inspect(ctx, straggler, "x")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Intents == 0 || pre.Locks == 0 {
		t.Fatalf("precondition: recovered %s should hold the orphan lock+intent, got %+v", straggler, pre)
	}

	clk.Advance(LeaseTTL + time.Millisecond)
	if _, err := store.SweepOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats.OrphanReapsCommitted.Value(); got != 1 {
		t.Fatalf("%d commit-reaps after sweep, want 1", got)
	}
	post, err := store.Inspect(ctx, straggler, "x")
	if err != nil {
		t.Fatal(err)
	}
	if post.Intents != 0 || post.Locks != 0 || post.Val != 42 {
		t.Fatalf("reap did not converge %s: %+v", straggler, post)
	}

	// Second amnesia restart, with no clock advance and no sweep: the only
	// way the straggler can come back already resolved is the logged DecisionReq.
	amnesia(t, store, straggler)
	replayed, err := store.Inspect(ctx, straggler, "x")
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Intents != 0 || replayed.Locks != 0 || replayed.Val != 42 {
		t.Fatalf("replay lost the reap: %+v", replayed)
	}
	if got := store.Stats.OrphanReapsCommitted.Value(); got != 1 {
		t.Fatalf("replay double-counted the reap: %d", got)
	}
	// And the cluster as a whole still serves the committed value.
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 42 {
			t.Errorf("read %d, want 42", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigGenerationSurvivesAmnesia reconfigures an item (generation
// 0 → 1), amnesia-crashes a write-quorum member that durably holds the new
// generation, and checks the recovered replica still serves generation 1 —
// and that a stale client chasing generation numbers through it converges
// on the new configuration.
func TestReconfigGenerationSurvivesAmnesia(t *testing.T) {
	net, store, dms := openDurable(t, 63)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
		t.Fatal(err)
	}
	// New configuration: read anywhere, write everywhere. Its value write
	// reaches every DM, so single-replica reads stay safe.
	newCfg := quorum.ReadOneWriteAll(dms)
	if err := store.Reconfigure(ctx, "x", newCfg); err != nil {
		t.Fatal(err)
	}

	// Find a replica that durably installed generation 1 (the config write
	// needed only a write quorum of the old configuration).
	victim := ""
	for _, dm := range dms {
		if insp, err := store.Inspect(ctx, dm, "x"); err == nil && insp.Gen == 1 {
			victim = dm
			break
		}
	}
	if victim == "" {
		t.Fatal("no replica installed generation 1")
	}

	net.Crash(victim)
	stats := amnesia(t, store, victim)
	net.Restart(victim)
	if stats.Replayed == 0 && !stats.FromSnapshot {
		t.Fatalf("recovery replayed nothing: %+v", stats)
	}
	insp, err := store.Inspect(ctx, victim, "x")
	if err != nil {
		t.Fatal(err)
	}
	if insp.Gen != 1 {
		t.Fatalf("recovered %s serves generation %d, want 1", victim, insp.Gen)
	}

	// A stale client still believing generation 0 discovers the new
	// configuration through the generation chase — the recovered replica's
	// durable generation participates in that discovery.
	items := store.Items()
	stale, err := OpenClient(net, items, WithSeed(64))
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if err := stale.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 1 {
			t.Errorf("stale client read %d, want 1", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := stale.config("x"); got.gen != 1 {
		t.Errorf("stale client converged to generation %d, want 1", got.gen)
	}
	// Writes through the recovered replica under the new configuration
	// keep working (write-all includes the victim).
	if err := stale.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 2) }); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedChildSurvivesAmnesiaBeforeTopCommit: a child's commit is
// stated on its tree's later accesses, not performed at the replicas, so
// nothing about it is logged on its own — the logged grants and intentions
// under the child's id are the whole record. Every replica is restarted
// from its log between the child's commit and the parent's next access —
// those of the child's write quorum must recover its records, and a replica
// no phase reached has none — and the parent must still pass the child's
// recovered write lock and read its value, the top-level commit must apply
// it, and it must be there after the directory is closed and reopened.
func TestCommittedChildSurvivesAmnesiaBeforeTopCommit(t *testing.T) {
	dir := t.TempDir()
	dms := []string{"dm0", "dm1", "dm2"}
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	ctx := context.Background()
	open := func(seed int64) (*sim.Network, *Store) {
		net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: seed})
		store, err := Open(net, items, WithSeed(seed), WithDurability(dir))
		if err != nil {
			net.Close()
			t.Fatal(err)
		}
		return net, store
	}

	net, store := open(81)
	if err := store.Run(ctx, func(tx *Txn) error {
		if err := tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, "x", 7) }); err != nil {
			return err
		}
		net.Quiesce()
		holders := 0
		for _, dm := range dms {
			insp, err := store.Inspect(ctx, dm, "x")
			if err != nil {
				t.Fatalf("inspect %s: %v", dm, err)
			}
			stats := amnesia(t, store, dm)
			if insp.Intents == 0 {
				continue
			}
			holders++
			if stats.Replayed == 0 && !stats.FromSnapshot {
				t.Errorf("%s held the child's intention and recovered nothing: %+v", dm, stats)
			}
			if after, err := store.Inspect(ctx, dm, "x"); err != nil || after.Intents == 0 || after.Locks == 0 {
				t.Errorf("%s lost the child's intention or lock in recovery: %+v, %v", dm, after, err)
			}
		}
		if holders < 2 {
			t.Errorf("%d replicas hold the child's intention, want a write quorum of 2", holders)
		}
		v, vn, err := tx.ReadVersioned(ctx, "x")
		if err == nil && (v != 7 || vn != 1) {
			t.Errorf("parent read (%v, vn %d) through the recovered replicas, want (7, vn 1)", v, vn)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	net.Close()

	net, store = open(82)
	defer func() { store.Close(); net.Close() }()
	if err := store.Run(ctx, func(tx *Txn) error {
		v, vn, err := tx.ReadVersioned(ctx, "x")
		if err == nil && (v != 7 || vn != 1) {
			t.Errorf("read back (%v, vn %d) after reopen, want (7, vn 1)", v, vn)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPromiseSurvivesAmnesiaBetweenThePhases: a recovering client's Phase 1
// is a logged request, so an acceptor that loses its memory between that
// client's two phases comes back still bound by the promise — the ballot
// and whom it was promised to. It refuses the dead coordinator's ballot 0
// and any other proposer at the promised ballot, grants the promised
// proposer its retry, and accepts its Phase 2.
func TestPromiseSurvivesAmnesiaBetweenThePhases(t *testing.T) {
	net, store, dms := openPaxos(t, 66)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()
	rep, err := store.CrashCommit(ctx, "x", 5, CommitCrashOptions{Stage: CommitCrashMidDecide, Deliver: 1})
	if !errors.Is(err, ErrCommitAbandoned) {
		t.Fatalf("CrashCommit: %v", err)
	}
	call := func(dm string, req any) any {
		t.Helper()
		raw, err := store.client.Call(ctx, dm, req)
		if err != nil {
			t.Fatalf("%T at %s: %v", req, dm, err)
		}
		return raw
	}
	prep := PaxosPrepareReq{Txn: rep.Txn, Ballot: 3, Cohort: dms, Proposer: "c7"}
	for _, dm := range dms {
		if p := call(dm, prep).(PaxosPrepareResp); !p.OK || (p.AccBal == 0) != (dm == dms[0]) {
			t.Fatalf("phase 1 at %s: %+v", dm, p)
		}
	}
	for _, dm := range dms {
		amnesia(t, store, dm)
	}
	for _, dm := range dms {
		if a := call(dm, PaxosAcceptReq{Txn: rep.Txn, Ballot: 0, Commit: true, Cohort: dms}).(PaxosAcceptResp); a.OK || a.Promised != 3 {
			t.Errorf("%s after amnesia took the coordinator's ballot 0: %+v", dm, a)
		}
		other := prep
		other.Proposer = "c8"
		if p := call(dm, other).(PaxosPrepareResp); p.OK || p.Promised != 3 {
			t.Errorf("%s after amnesia promised ballot 3 a second time, to c8: %+v", dm, p)
		}
		if p := call(dm, prep).(PaxosPrepareResp); !p.OK {
			t.Errorf("%s after amnesia refused the promised proposer's retry: %+v", dm, p)
		}
		if a := call(dm, PaxosAcceptReq{Txn: rep.Txn, Ballot: 3, Commit: true, Cohort: dms}).(PaxosAcceptResp); !a.OK {
			t.Errorf("%s after amnesia refused phase 2 at the promised ballot: %+v", dm, a)
		}
	}
	for dm, p := range probeAll(t, store, dms, rep.Txn) {
		if p.Promised != 3 || p.AccBal != 3 || !p.AccCommit || !reflect.DeepEqual(p.Cohort, dms) {
			t.Errorf("%s ended at %+v, want ballot 3 accepted over the recorded cohort", dm, p)
		}
	}
}
