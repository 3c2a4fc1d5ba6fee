package cluster

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/shard"
	"repro/internal/sim"
)

// twoGroups and threeGroups are the replica groups of the sharded test
// clusters, three replicas each.
var (
	twoGroups = []shard.Group{
		{Name: "g0", DMs: []string{"a0", "a1", "a2"}},
		{Name: "g1", DMs: []string{"b0", "b1", "b2"}},
	}
	threeGroups = append(slices.Clone(twoGroups), shard.Group{Name: "g2", DMs: []string{"c0", "c1", "c2"}})
)

// shardedCluster opens a two-group sharded cluster whose keys are placed by
// a seeded ring, on a manual clock so tests decide exactly when an abandoned
// migration coordinator's locks become reapable.
func shardedCluster(t *testing.T, seed int64, keys []string, extra ...Option) (*Store, *sim.Network, *sim.ManualClock, *shard.Ring) {
	t.Helper()
	return shardedClusterOf(t, seed, twoGroups, keys, extra...)
}

// shardedClusterOf is shardedCluster over the given groups.
func shardedClusterOf(t *testing.T, seed int64, groups []shard.Group, keys []string, extra ...Option) (*Store, *sim.Network, *sim.ManualClock, *shard.Ring) {
	t.Helper()
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

// specOf returns the replica set the store's own spec names for item.
func specOf(store *Store, item string) []string {
	it, _ := store.itemSpec(item)
	return it.DMs
}

// onGroup reports whether every DM of dms belongs to the group whose DM ids
// start with prefix.
func onGroup(dms []string, prefix byte) bool {
	return len(dms) > 0 && !slices.ContainsFunc(dms, func(dm string) bool { return dm[0] != prefix })
}

// dataPath names the messages a transaction's own reads, writes and commit
// exchange: every request and answer of its phases, lease renewals, and the
// commit or abort that ends it.
var dataPath = []string{
	"cluster.ReadReq", "cluster.WriteReq", "cluster.ReleaseReq", "cluster.RenewLeaseReq",
	"cluster.CommitTopReq", "cluster.AbortReq", "cluster.ReadResp", "cluster.WriteResp", "cluster.Ack",
}

// paxosPath is what a Paxos Commit transaction adds to the data path on its
// clean path: the accept round before the commit point.
var paxosPath = []string{"cluster.PaxosAcceptReq", "cluster.PaxosAcceptResp"}

// offDataPath returns the message kinds net carried since before (a
// Stats.ByType snapshot) that are neither on the data path nor among own.
func offDataPath(net *sim.Network, before map[string]int64, own ...string) []string {
	var out []string
	for kind, n := range net.Stats().ByType {
		_, inner, _ := strings.Cut(kind, "/")
		if n > before[kind] && !slices.Contains(dataPath, inner) && !slices.Contains(own, inner) {
			out = append(out, kind)
		}
	}
	return out
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
	// The client's own spec now names the new group's replicas.
	if dms := specOf(store, key); !onGroup(dms, 'b') {
		t.Fatalf("spec of %q names %v after migrate, want the new group", key, dms)
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

// staleClient attaches a second client to store's cluster that believes
// the ring's initial placement and has read key under it once.
func staleClient(t *testing.T, store *Store, net *sim.Network, ring *shard.Ring, keys []string, key string, extra ...Option) *Store {
	t.Helper()
	items, err := ShardItems(ring, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := OpenClient(net, items, append([]Option{
		WithSeed(1502), WithCallTimeout(25 * time.Millisecond),
		WithRetryBackoff(2 * time.Millisecond),
		WithRing(ring)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stale.Close)
	ctx := context.Background()
	if err := stale.Run(ctx, func(tx *Txn) error {
		_, err := tx.Read(ctx, key)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return stale
}

// readIs runs a read of key through s and fails the test unless it returns
// want.
func readIs(t *testing.T, s *Store, key string, want any) {
	t.Helper()
	ctx := context.Background()
	var got any
	if err := s.Run(ctx, func(tx *Txn) (err error) {
		got, err = tx.Read(ctx, key)
		return err
	}); err != nil || got != want {
		t.Fatalf("read %q = %v, %v; want %v", key, got, err, want)
	}
}

// TestMigrateStaleClientRedirect: a client still believing the old
// placement reads and writes the migrated item through the old group's
// replicas, which keep their copies and the gen+1 configuration record: its
// read quorum meets that record, and the generation chase alone takes it to
// the new group. It sends nothing but its transactions' own messages — no
// placement lookup, no retry of a refused phase — under either commit
// protocol, the store and the stale client both running it.
func TestMigrateStaleClientRedirect(t *testing.T) {
	for _, tc := range []struct {
		name     string
		protocol commit.Protocol
		own      []string
	}{
		{"2pc", commit.TwoPhase, nil},
		{"paxos", commit.PaxosCommit, paxosPath},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := shard.Keys("k", 12)
			store, net, _, ring := shardedCluster(t, 502, keys, WithCommitProtocol(tc.protocol))
			ctx := context.Background()
			key := keyOn(t, ring, keys, "g0")

			if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 41) }); err != nil {
				t.Fatal(err)
			}
			stale := staleClient(t, store, net, ring, keys, key, WithCommitProtocol(tc.protocol))
			if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
				t.Fatalf("migrate: %v", err)
			}
			net.Quiesce()
			// The old group kept its copies, and a write quorum of it the record.
			recorded := 0
			for _, dm := range []string{"a0", "a1", "a2"} {
				insp, err := store.Inspect(ctx, dm, key)
				if err != nil {
					t.Fatalf("old replica %s: %v", dm, err)
				}
				if insp.Gen == 1 && onGroup(insp.Cfg.Members(), 'b') {
					recorded++
				}
			}
			if recorded < 2 {
				t.Fatalf("%d old-group replicas hold the gen-1 record, want a write quorum", recorded)
			}

			before := net.Stats().ByType
			readIs(t, stale, key, 41)
			if got := stale.config(key); got.gen != 1 || !onGroup(got.cfg.Members(), 'b') {
				t.Fatalf("stale client believes gen %d over %v after its read, want gen 1 on the new group", got.gen, got.cfg.Members())
			}
			if err := stale.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 42) }); err != nil {
				t.Fatalf("stale write after migrate: %v", err)
			}
			if paxos := stale.Stats.PaxosCommits.Value(); (paxos == 1) != (tc.protocol == commit.PaxosCommit) {
				t.Fatalf("the stale write decided %d times through acceptors under %s", paxos, tc.name)
			}
			net.Quiesce()
			if off := offDataPath(net, before, tc.own...); len(off) > 0 {
				t.Fatalf("the stale client sent %v beside its transactions", off)
			}
			readIs(t, store, key, 42)
		})
	}
}

// TestMigrateTwoHopsStale: a client that missed two migrations (g0 → g1 →
// g2) reaches the item in two chases: the old group's record names g1, and
// g1's names g2 — one read phase per generation, three in all.
func TestMigrateTwoHopsStale(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, net, _, ring := shardedClusterOf(t, 504, threeGroups, keys)
	ctx := context.Background()
	key := keyOn(t, ring, keys, "g0")
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 5) }); err != nil {
		t.Fatal(err)
	}
	stale := staleClient(t, store, net, ring, keys, key)
	for _, g := range []string{"g1", "g2"} {
		if err := store.MigrateItem(ctx, key, g, CommitCrashOptions{}); err != nil {
			t.Fatalf("migrate to %s: %v", g, err)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 6) }); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()

	phases := stale.Stats.ReadPhaseLatency.Count()
	readIs(t, stale, key, 6)
	if n := stale.Stats.ReadPhaseLatency.Count() - phases; n > 3 {
		t.Fatalf("the stale read took %d phases, want at most 3 (two chases)", n)
	}
	if got := stale.config(key); got.gen != 2 || !onGroup(got.cfg.Members(), 'c') {
		t.Fatalf("stale client believes gen %d over %v, want gen 2 on g2", got.gen, got.cfg.Members())
	}
}

// TestMigrateRoundTrip: an item that moves g0 → g1 → g0 comes back to
// replicas that kept their copies. The adopt round leaves those copies as
// they are, the migration's copy phase overwrites a write quorum of them, and
// reads — the coordinator's and a client that missed both moves — return
// the newest value.
func TestMigrateRoundTrip(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, net, _, ring := shardedCluster(t, 505, keys)
	ctx := context.Background()
	key := keyOn(t, ring, keys, "g0")
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 7) }); err != nil {
		t.Fatal(err)
	}
	stale := staleClient(t, store, net, ring, keys, key)
	if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate to g1: %v", err)
	}
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 8) }); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	vn := map[string]int{}
	for _, dm := range []string{"a0", "a1", "a2"} {
		insp, err := store.Inspect(ctx, dm, key)
		if err != nil {
			t.Fatalf("old replica %s: %v", dm, err)
		}
		vn[dm] = insp.VN
	}
	if err := store.MigrateItem(ctx, key, "g0", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate back to g0: %v", err)
	}
	net.Quiesce()
	if dms := specOf(store, key); !onGroup(dms, 'a') {
		t.Fatalf("spec of %q names %v after the round trip, want g0", key, dms)
	}
	fresh := 0
	for _, dm := range []string{"a0", "a1", "a2"} {
		insp, err := store.Inspect(ctx, dm, key)
		if err != nil {
			t.Fatalf("replica %s: %v", dm, err)
		}
		if insp.VN < vn[dm] {
			t.Fatalf("%s went back from version %d to %d: the adopt round reset its copy", dm, vn[dm], insp.VN)
		}
		if insp.Val == 8 && insp.Gen == 2 {
			fresh++
		}
	}
	if fresh < 2 {
		t.Fatalf("%d g0 replicas hold the newest value at gen 2, want a write quorum", fresh)
	}
	readIs(t, store, key, 8)
	readIs(t, stale, key, 8)
	if err := stale.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 9) }); err != nil {
		t.Fatal(err)
	}
	readIs(t, store, key, 9)
}

// TestMigrateBackCrashMidLearn: an item that was the only one on g1 moves to
// g0 and, with its coordinator killed after one commit delivery, back again.
// The commit record lands at a g0 replica while g1's replicas hold the
// orphan's locks. No item spec names g1 any more, yet the store's members
// still do, so the client the locks block finds the record and re-serves it
// there too: the item is not wedged.
func TestMigrateBackCrashMidLearn(t *testing.T) {
	const seed = 506
	ring, err := shard.New(seed, 64, twoGroups)
	if err != nil {
		t.Fatal(err)
	}
	all := shard.Keys("k", 12)
	stay, key := keyOn(t, ring, all, "g0"), keyOn(t, ring, all, "g1")
	store, net, clk, _ := shardedCluster(t, seed, []string{stay, key})
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := store.MigrateItem(ctx, key, "g0", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate to g0: %v", err)
	}
	cut := CommitCrashOptions{Stage: CommitCrashMidLearn, Deliver: 1}
	if err := store.MigrateItem(ctx, key, "g1", cut); !errors.Is(err, ErrCommitAbandoned) {
		t.Fatalf("crashed migration returned %v, want ErrCommitAbandoned", err)
	}
	net.Quiesce()
	for _, dm := range []string{"a0", "a1", "a2", "b0", "b1", "b2"} {
		_, _ = store.Inspect(ctx, dm, key)
	}
	if got := store.DMs(); !slices.Contains(got, "b0") {
		t.Fatalf("store members %v lost g1 when its last item moved away", got)
	}
	clk.Advance(LeaseTTL + time.Millisecond)
	readIs(t, store, key, 3)
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, 4) }); err != nil {
		t.Fatalf("write after the crash: %v", err)
	}
	if store.Stats.OrphanReapsCommitted.Value() == 0 {
		t.Fatal("the commit record was never re-served")
	}
	locked := 0
	for _, dm := range []string{"b0", "b1", "b2"} {
		if insp, err := store.Inspect(ctx, dm, key); err == nil && insp.Locks+insp.Intents > 0 {
			locked++
		}
	}
	if locked > 0 {
		t.Fatalf("%d g1 replicas still hold the migration's locks", locked)
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
				if store.Stats.Migrations.Value() != 1 || !onGroup(specOf(store, key), 'b') {
					t.Fatal("clean migration did not cut over")
				}
			} else {
				if !errors.Is(err, ErrCommitAbandoned) {
					t.Fatalf("crashed migration returned %v, want ErrCommitAbandoned", err)
				}
				if got := store.Stats.Migrations.Value(); got != 0 {
					t.Fatalf("abandoned migration counted as completed (%d)", got)
				}
				if dms := specOf(store, key); !onGroup(dms, 'a') {
					t.Fatalf("abandoned migration moved the client's spec to %v", dms)
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
				// clients, beside the copied value at one.
				if n := holding('b', 1, nil); n < 2 {
					t.Errorf("%d new-group replicas hold the gen-1 configuration, want a write quorum", n)
				}
				if n := holding('b', anyGen, 10); n < 2 {
					t.Errorf("%d new-group replicas hold the post-cutover write, want a write quorum", n)
				}
				if holding('a', 1, nil) < 2 {
					t.Error("no old-config write quorum holds the redirecting config record")
				}
				if holding('a', anyGen, 9) < 2 {
					t.Error("no old-config write quorum holds the value the migration copied")
				}
				if holding('a', anyGen, 10) != 0 {
					t.Error("the post-cutover write reached the old group")
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

// TestCrossShardRun: a transaction over items of several groups is one Run
// with one Sub per group — the paper's nested transaction, with nothing
// placement-aware around it — and stays atomic across a migration that
// moved one of its items.
func TestCrossShardRun(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, _, _, ring := shardedCluster(t, 601, keys)
	ctx := context.Background()
	k0, k1 := keyOn(t, ring, keys, "g0"), keyOn(t, ring, keys, "g1")
	bothWrite := func(v0, v1 int) error {
		return store.Run(ctx, func(tx *Txn) error {
			for key, v := range map[string]int{k0: v0, k1: v1} {
				if err := tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, key, v) }); err != nil {
					return err
				}
			}
			return nil
		})
	}
	bothRead := func() (v0, v1 any) {
		if err := store.Run(ctx, func(tx *Txn) (err error) {
			if err = tx.Sub(ctx, func(sub *Txn) (err error) { v0, err = sub.Read(ctx, k0); return err }); err != nil {
				return err
			}
			return tx.Sub(ctx, func(sub *Txn) (err error) { v1, err = sub.Read(ctx, k1); return err })
		}); err != nil {
			t.Fatalf("cross-shard read: %v", err)
		}
		return v0, v1
	}
	if err := bothWrite(100, 200); err != nil {
		t.Fatalf("cross-shard write: %v", err)
	}
	if v0, v1 := bothRead(); v0 != 100 || v1 != 200 {
		t.Fatalf("cross-shard read %v, %v; want 100, 200", v0, v1)
	}
	if err := store.MigrateItem(ctx, k0, "g1", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := bothWrite(101, 201); err != nil {
		t.Fatalf("cross-shard write after migrate: %v", err)
	}
	if v0, v1 := bothRead(); v0 != 101 || v1 != 201 {
		t.Fatalf("cross-shard read after migrate %v, %v; want 101, 201", v0, v1)
	}
}

func TestShardItemsPlacement(t *testing.T) {
	groups := []shard.Group{
		{Name: "g0", DMs: []string{"a0", "a1", "a2"}},
		{Name: "g1", DMs: []string{"b0", "b1", "b2"}},
	}
	ring, err := shard.New(7, 64, groups)
	if err != nil {
		t.Fatal(err)
	}
	keys := shard.Keys("k", 32)
	items, err := ShardItems(ring, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(keys) {
		t.Fatalf("ShardItems returned %d specs for %d keys", len(items), len(keys))
	}
	for _, it := range items {
		g, _ := ring.Group(ring.Lookup(it.Name))
		if len(it.DMs) != len(g.DMs) {
			t.Fatalf("item %q spec names %v, group has %v", it.Name, it.DMs, g.DMs)
		}
		if err := it.Config.Validate(it.DMs); err != nil {
			t.Fatalf("item %q config invalid: %v", it.Name, err)
		}
	}
}
