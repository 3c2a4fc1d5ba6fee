package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/shard"
	"repro/internal/sim"
)

// shardedCluster opens a two-group (three replicas each) sharded cluster
// whose keys are placed by a seeded ring, on a manual clock so tests decide
// exactly when an abandoned migration coordinator's locks become reapable.
func shardedCluster(t *testing.T, seed int64, keys []string, extra ...Option) (*Store, *sim.Network, *sim.ManualClock, *shard.Ring) {
	t.Helper()
	groups := []shard.Group{
		{Name: "g0", DMs: []string{"a0", "a1", "a2"}},
		{Name: "g1", DMs: []string{"b0", "b1", "b2"}},
	}
	ring, err := shard.New(seed, 64, groups)
	if err != nil {
		t.Fatal(err)
	}
	items, err := ShardItems(ring, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
		Seed: seed, FateFeedback: true,
	})
	clk := sim.NewManualClock(time.Unix(0, 0))
	opts := append([]Option{
		WithSeed(seed),
		WithCallTimeout(25 * time.Millisecond),
		WithClock(clk),
		WithRetryBackoff(2 * time.Millisecond),
		WithRing(ring),
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
	return store, net, clk, ring
}

// keyOn returns a key from keys the ring places on group, failing the test
// when the seed produced none.
func keyOn(t *testing.T, r *shard.Ring, keys []string, group string) string {
	t.Helper()
	for _, k := range keys {
		if r.Lookup(k) == group {
			return k
		}
	}
	t.Fatalf("no key maps to group %q (reseed the test)", group)
	return ""
}

func TestMigrateItemMovesValue(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, net, _, ring := shardedCluster(t, 501, keys)
	ctx := context.Background()
	key := keyOn(t, ring, keys, "g0")

	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 7) }); err != nil {
		t.Fatal(err)
	}
	if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	net.Quiesce()
	if got := store.Stats.Migrations.Value(); got != 1 {
		t.Fatalf("Migrations = %d, want 1", got)
	}
	if g := store.Ring().Lookup(key); g != "g1" {
		t.Fatalf("ring places %q on %q after migrate, want g1", key, g)
	}
	// The client's own spec now names the new group's replicas.
	for _, it := range store.Items() {
		if it.Name != key {
			continue
		}
		for _, dm := range it.DMs {
			if dm[0] != 'b' {
				t.Fatalf("spec of %q still names old replica %s: %v", key, dm, it.DMs)
			}
		}
	}
	// The both-quorums record rule: with disjoint replica sets the new
	// configuration's own write quorum must carry the (gen+1, newCfg) record
	// too — the old group's copies only redirect.
	recorded := 0
	for _, dm := range []string{"b0", "b1", "b2"} {
		if insp, err := store.Inspect(ctx, dm, key); err == nil && insp.Gen == 1 && len(insp.Cfg.W) > 0 {
			recorded++
		}
	}
	if recorded < 2 {
		t.Fatalf("%d new-group replicas hold the config record, want a write quorum", recorded)
	}
	// Value survived the cutover, and the item is fully writable after.
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, key)
		if err != nil {
			return err
		}
		if v != 7 {
			t.Errorf("read %v after migrate, want 7", v)
		}
		return tx.Write(ctx, key, 8)
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, key)
		if err == nil && v != 8 {
			t.Errorf("read %v, want 8", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Migrating an item already on the target group is a no-op.
	if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
		t.Fatalf("idempotent migrate: %v", err)
	}
	if got := store.Stats.Migrations.Value(); got != 1 {
		t.Fatalf("no-op migrate bumped Migrations to %d", got)
	}
}

// TestMigrateStaleClientRedirect: a client still believing the old
// placement reads through retired replicas, absorbs their WrongShardResp
// redirect transparently, and ends up with the adopted placement.
func TestMigrateStaleClientRedirect(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, net, _, ring := shardedCluster(t, 502, keys)
	ctx := context.Background()
	key := keyOn(t, ring, keys, "g0")

	items, err := ShardItems(ring, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := OpenClient(net, items,
		WithSeed(1502), WithCallTimeout(25*time.Millisecond),
		WithRetryBackoff(2*time.Millisecond),
		WithRing(ring))
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 41) }); err != nil {
		t.Fatal(err)
	}
	// Prime the stale client's believed config under the old placement.
	if err := stale.Run(ctx, func(tx *Txn) error {
		_, err := tx.Read(ctx, key)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	net.Quiesce()

	// The stale client's next read fans out to retired replicas and must
	// come back with the committed value anyway.
	if err := stale.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, key)
		if err != nil {
			return err
		}
		if v != 41 {
			t.Errorf("stale client read %v, want 41", v)
		}
		return nil
	}); err != nil {
		t.Fatalf("stale read after migrate: %v", err)
	}
	if stale.Stats.WrongShardRedirects.Value() == 0 {
		t.Fatal("stale client never saw a WrongShard redirect")
	}
	if g := stale.Ring().Lookup(key); g != "g1" {
		t.Fatalf("stale client's ring still places %q on %q", key, g)
	}
	// Writes route to the new group too.
	if err := stale.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 42) }); err != nil {
		t.Fatalf("stale write after migrate: %v", err)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, key)
		if err == nil && v != 42 {
			t.Errorf("read %v, want the stale client's 42", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateCoordinatorCrash cuts the migration's commit tail at every
// stage that matters, under both commit protocols, and holds the cluster to
// exactly one outcome: the item wholly at the old group (abort) or wholly at
// the new one (commit), never wedged, never a lost value.
//
// Under TwoPhase a coordinator that dies before any CommitTopReq leaves only
// leased locks: once the lease lapses the first client they block presumes
// abort. Delivering one CommitTopReq decides commit, and that client's
// probes find the record and complete the cutover at the stragglers. Under PaxosCommit the
// migration decides before it learns like every other commit: a coordinator
// that dies between the two leaves a decided cutover no replica applied,
// which acceptor recovery — not TTL presumption — must finish.
func TestMigrateCoordinatorCrash(t *testing.T) {
	for i, tc := range []struct {
		name       string
		protocol   commit.Protocol
		cut        CommitCrashOptions
		wantCommit bool
	}{
		{"2pc/before-decide", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashBeforeDecide}, false},
		{"2pc/mid-learn-0", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashMidLearn}, false},
		{"2pc/mid-learn-1", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashMidLearn, Deliver: 1}, true},
		{"paxos/clean", commit.PaxosCommit, CommitCrashOptions{}, true},
		{"paxos/before-decide", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashBeforeDecide}, false},
		{"paxos/before-learn", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashBeforeLearn}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := shard.Keys("k", 12)
			store, net, clk, ring := shardedCluster(t, 503+int64(i), keys,
				WithLockRetries(8), WithTxnRetries(8), WithCommitProtocol(tc.protocol))
			ctx := context.Background()
			key := keyOn(t, ring, keys, "g0")
			paxos := tc.protocol == commit.PaxosCommit
			// holding counts the group's replicas whose committed state is
			// (gen, val) with nothing pending; anyGen or a nil val matches
			// every generation or value. A configuration record and a value
			// each live at some write quorum, not necessarily the same one.
			const anyGen = -1
			holding := func(group byte, gen int, val any) int {
				n := 0
				for _, dm := range []string{"0", "1", "2"} {
					insp, err := store.Inspect(ctx, string(group)+dm, key)
					if err == nil && (gen == anyGen || insp.Gen == gen) && (val == nil || insp.Val == val) &&
						insp.Locks == 0 && insp.Intents == 0 {
						n++
					}
				}
				return n
			}

			if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 9) }); err != nil {
				t.Fatal(err)
			}
			decided := store.Stats.PaxosCommits.Value()
			err := store.MigrateItem(ctx, key, "g1", tc.cut)
			// Settle before the clock moves: a widened phase's copy still in
			// transit, or queued in a replica's inbox, would land after the
			// advance below and stamp the orphan a live lease there. An
			// Inspect rides the same client→DM lane, so its reply proves the
			// replica handled every earlier copy.
			net.Quiesce()
			for _, dm := range []string{"a0", "a1", "a2", "b0", "b1", "b2"} {
				_, _ = store.Inspect(ctx, dm, key)
			}
			if paxos && tc.wantCommit {
				if got := store.Stats.PaxosCommits.Value() - decided; got != 1 {
					t.Fatalf("migration decided %d Paxos commits, want 1: it must decide before it learns", got)
				}
			}
			if tc.cut.Stage == CommitCrashNone {
				if err != nil {
					t.Fatalf("clean migration: %v", err)
				}
				if store.Stats.Migrations.Value() != 1 || store.Ring().Lookup(key) != "g1" {
					t.Fatal("clean migration did not cut over")
				}
			} else {
				if !errors.Is(err, ErrCommitAbandoned) {
					t.Fatalf("crashed migration returned %v, want ErrCommitAbandoned", err)
				}
				if got := store.Stats.Migrations.Value(); got != 0 {
					t.Fatalf("abandoned migration counted as completed (%d)", got)
				}
				if g := store.Ring().Lookup(key); g != "g0" {
					t.Fatalf("abandoned migration moved the ring placement to %q", g)
				}
				if tc.cut.Stage == CommitCrashBeforeLearn && holding('b', 1, nil)+holding('b', anyGen, 9) != 0 {
					t.Fatal("a replica applied the cutover before any learn")
				}
			}
			clk.Advance(LeaseTTL + time.Millisecond)

			// The item is not wedged: the first conflicting operation finds the
			// orphan's lapsed lease and triggers its resolution. The copy
			// preserved the value, so both outcomes serve 9.
			if err := store.Run(ctx, func(tx *Txn) error {
				v, rerr := tx.Read(ctx, key)
				if rerr == nil && v != 9 {
					t.Errorf("read %v after the crash, want 9", v)
				}
				return rerr
			}); err != nil {
				t.Fatalf("read after the crash: %v", err)
			}
			if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 10) }); err != nil {
				t.Fatalf("write after the crash: %v", err)
			}

			st := &store.Stats
			reapedAbort, reapedCommit := st.OrphanReapsAborted.Value(), st.OrphanReapsCommitted.Value()
			switch {
			case tc.cut.Stage == CommitCrashNone:
			case !tc.wantCommit && reapedAbort == 0:
				t.Error("coordinator never reaped as a presumed abort")
			case tc.wantCommit && !paxos && reapedCommit == 0:
				t.Error("stragglers never applied the peer's commit record")
			case tc.wantCommit && paxos && (st.AcceptorResolvesCommitted.Value() == 0 || reapedAbort+reapedCommit != 0):
				t.Errorf("decided cutover resolved by %d acceptor recoveries and %d lease reaps, want acceptor recovery alone",
					st.AcceptorResolvesCommitted.Value(), reapedAbort+reapedCommit)
			}
			if tc.wantCommit {
				// Wholly at the new group: the configuration record and the write
				// each landed at a new-config write quorum, and an old-config
				// write quorum still carries the record that redirects stale
				// clients, beside the copied value at one — unless the live
				// coordinator already retired them to moved-markers.
				if n := holding('b', 1, nil); n < 2 {
					t.Errorf("%d new-group replicas hold the gen-1 configuration, want a write quorum", n)
				}
				if n := holding('b', anyGen, 10); n < 2 {
					t.Errorf("%d new-group replicas hold the post-cutover write, want a write quorum", n)
				}
				if tc.cut.Stage != CommitCrashNone {
					if holding('a', 1, nil) < 2 {
						t.Error("no old-config write quorum holds the redirecting config record")
					}
					if holding('a', anyGen, 9) < 2 {
						t.Error("no old-config write quorum holds the value the migration copied")
					}
					if holding('a', anyGen, 10) != 0 {
						t.Error("the post-cutover write reached the old group")
					}
				}
				return
			}
			// Wholly at the old group: the placeholders stayed placeholders —
			// the presumed abort went to every DM, the new group's included,
			// though nobody conflicts with the orphan's locks over there.
			if holding('a', 0, 10) < 2 || holding('b', 0, 0) != 3 {
				t.Errorf("aborted cutover left the item split: old group %d at gen 0, new group %d untouched",
					holding('a', 0, 10), holding('b', 0, 0))
			}
			// And the migration itself can be retried to completion.
			clk.Advance(LeaseTTL + time.Millisecond)
			if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
				t.Fatalf("retried migration: %v", err)
			}
			if err := store.Run(ctx, func(tx *Txn) error {
				v, rerr := tx.Read(ctx, key)
				if rerr == nil && v != 10 {
					t.Errorf("read %v after retried migration, want 10", v)
				}
				return rerr
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
