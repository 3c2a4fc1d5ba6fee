package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wal"
)

// walPathOf exposes one DM's log directory to the tests.
func walPathOf(t *testing.T, store *Store, dm string) string {
	t.Helper()
	h := store.host(dm)
	if h == nil || h.dir == "" {
		t.Fatalf("no durable DM %q", dm)
	}
	return h.dir
}

// TestCorruptLogQuarantineAndRebuild is the tentpole end-to-end: a replica
// whose log is corrupted at rest comes back QUARANTINED (serving the typed
// refusal, not garbage), the cluster keeps serving through the remaining
// majority, and a peer rebuild restores the replica's committed state and
// rejoins it — after which the rebuilt state is itself durable.
func TestCorruptLogQuarantineAndRebuild(t *testing.T) {
	net, store, _ := openDurable(t, 121, WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)))
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 8; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i*10) }); err != nil {
			t.Fatal(err)
		}
	}
	pre, err := store.Inspect(ctx, "dm0", "x")
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt dm0's log at rest and restart it: the restart must succeed —
	// as a quarantined slot, not a serving replica.
	dir := walPathOf(t, store, "dm0")
	if err := store.StopDM("dm0"); err != nil {
		t.Fatal(err)
	}
	ffs := wal.NewFaultFS(7)
	if _, _, ok, err := ffs.CorruptSegmentFrame(dir); err != nil || !ok {
		t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
	}
	if _, err := store.RestartDM("dm0"); err != nil {
		t.Fatalf("restart onto corrupt log must quarantine, not fail: %v", err)
	}
	if got := store.QuarantinedDMs(); len(got) != 1 || got[0] != "dm0" {
		t.Fatalf("QuarantinedDMs = %v, want [dm0]", got)
	}
	if store.Stats.Quarantines.Value() != 1 {
		t.Fatalf("Quarantines = %d, want 1", store.Stats.Quarantines.Value())
	}

	// The quarantined replica answers every request with the typed refusal.
	raw, err := store.client.Call(ctx, "dm0", PingReq{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, ok := raw.(QuarantinedResp)
	if !ok || q.DM != "dm0" || q.Reason == "" {
		t.Fatalf("quarantined ping answered %#v, want QuarantinedResp{DM: dm0}", raw)
	}

	// The cluster still serves reads and writes through the healthy majority.
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 80 {
			t.Errorf("read %d with dm0 quarantined, want 80", v)
		}
		return tx.Write(ctx, "x", 90)
	}); err != nil {
		t.Fatalf("cluster must serve around one quarantined replica: %v", err)
	}

	// Peer rebuild: dm0 pulls the committed state back from dm1/dm2.
	rst, err := store.RebuildReplica(ctx, "dm0")
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if rst.Items != 1 || rst.Peers != 2 {
		t.Fatalf("RebuildStats = %+v, want Items=1 Peers=2", rst)
	}
	if got := store.QuarantinedDMs(); len(got) != 0 {
		t.Fatalf("QuarantinedDMs after rebuild = %v, want none", got)
	}
	if store.Stats.Rebuilds.Value() != 1 || store.Stats.RebuiltItems.Value() != 1 {
		t.Fatalf("rebuild counters = %d/%d, want 1/1",
			store.Stats.Rebuilds.Value(), store.Stats.RebuiltItems.Value())
	}
	post, err := store.Inspect(ctx, "dm0", "x")
	if err != nil {
		t.Fatal(err)
	}
	if post.VN < pre.VN || post.Val == nil {
		t.Fatalf("rebuilt state %+v regressed below pre-corruption %+v", post, pre)
	}

	// The rebuilt state is durable: an amnesia restart replays it from the
	// fresh log's synthetic snapshot.
	stats := amnesia(t, store, "dm0")
	if !stats.FromSnapshot {
		t.Fatalf("restart after rebuild recovered %+v, want FromSnapshot", stats)
	}
	again, err := store.Inspect(ctx, "dm0", "x")
	if err != nil {
		t.Fatal(err)
	}
	if again.VN != post.VN {
		t.Fatalf("rebuilt state not durable: vn %d after restart, had %d", again.VN, post.VN)
	}
	// And the cluster is fully writable again through all three replicas.
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 100) }); err != nil {
		t.Fatal(err)
	}
}

// TestAppendFailureQuarantinesAtRuntime is the fail-closed regression at
// cluster level: a replica whose log starts refusing appends (ENOSPC)
// answers the write that hit the fault — and everything after it — with
// QuarantinedResp instead of acknowledging state its disk no longer backs.
func TestAppendFailureQuarantinesAtRuntime(t *testing.T) {
	ffs := wal.NewFaultFS(11)
	net, store, _ := openDurable(t, 131, WithWALOptions(wal.WithFsync(false), wal.WithFS(ffs)))
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
		t.Fatal(err)
	}
	ffs.FailAppends(walPathOf(t, store, "dm0"), true)

	// A raw logged write against dm0 must be refused with the typed error,
	// not acked.
	raw, err := store.client.Call(ctx, "dm0", WriteReq{Txn: "zz.t1", Item: "x", VN: 50, Val: 5, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := raw.(QuarantinedResp); !ok || q.DM != "dm0" {
		t.Fatalf("write onto full disk answered %#v, want QuarantinedResp", raw)
	}
	if store.Stats.Quarantines.Value() != 1 {
		t.Fatalf("Quarantines = %d, want 1", store.Stats.Quarantines.Value())
	}
	if got := store.QuarantinedDMs(); len(got) != 1 || got[0] != "dm0" {
		t.Fatalf("QuarantinedDMs = %v, want [dm0]", got)
	}
	// Sticky: even an unlogged read is refused now.
	raw, err = store.client.Call(ctx, "dm0", PingReq{Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.(QuarantinedResp); !ok {
		t.Fatalf("quarantine not sticky: ping answered %#v", raw)
	}
	// The cluster writes on through the majority.
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 2) }); err != nil {
		t.Fatalf("cluster must tolerate one full disk: %v", err)
	}

	// Heal the disk, rebuild, and verify the replica carries the committed
	// state — including writes it was quarantined for.
	ffs.FailAppends(walPathOf(t, store, "dm0"), false)
	if _, err := store.RebuildReplica(ctx, "dm0"); err != nil {
		t.Fatalf("rebuild after heal: %v", err)
	}
	post, err := store.Inspect(ctx, "dm0", "x")
	if err != nil {
		t.Fatal(err)
	}
	if post.Val != 2 {
		t.Fatalf("rebuilt replica serves %v, want 2", post.Val)
	}
}

// TestRebuildRequiresAllPeers: a rebuild that cannot hear every peer fails
// and leaves the replica quarantined — acceptor state witnessed only by the
// missing peer would otherwise be lost (acceptor amnesia).
func TestRebuildRequiresAllPeers(t *testing.T) {
	net, store, dms := openDurable(t, 141, WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)))
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 6; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	dir := walPathOf(t, store, "dm0")
	if err := store.StopDM("dm0"); err != nil {
		t.Fatal(err)
	}
	ffs := wal.NewFaultFS(13)
	if _, _, ok, err := ffs.CorruptSegmentFrame(dir); err != nil || !ok {
		t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
	}
	if _, err := store.RestartDM("dm0"); err != nil {
		t.Fatal(err)
	}
	// One peer down: the pull must fail, and dm0 must stay quarantined and
	// still answer the typed refusal.
	if err := store.StopDM(dms[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := store.RebuildReplica(ctx, "dm0"); err == nil {
		t.Fatal("rebuild with a peer down must fail")
	}
	if got := store.QuarantinedDMs(); len(got) != 1 || got[0] != "dm0" {
		t.Fatalf("QuarantinedDMs after failed rebuild = %v, want [dm0]", got)
	}
	raw, err := store.client.Call(ctx, "dm0", PingReq{Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.(QuarantinedResp); !ok {
		t.Fatalf("slot after failed rebuild answered %#v, want QuarantinedResp", raw)
	}
}

// TestRebuildRestoresResolvedAndAcceptors: resolution records and Paxos
// acceptor hard state survive a rebuild — the merged acceptor carries the
// maximum promise, the proposer it was made to, and the highest-ballot
// accepted value among the peers.
func TestRebuildRestoresResolvedAndAcceptors(t *testing.T) {
	net, store, dms := openDurable(t, 151, WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)))
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 6; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 3) }); err != nil {
			t.Fatal(err)
		}
	}
	// The commits' notifies may still be in a DM's inbox: let them land
	// before reading dm1's state from outside its actor loop.
	settle(t, store, net, dms)
	var resolvedTxn TxnID
	store.mu.Lock()
	for tid := range store.dms["dm1"].srv.Resolved {
		resolvedTxn = tid
	}
	store.mu.Unlock()
	if resolvedTxn == "" {
		t.Fatal("no resolved transaction recorded at dm1")
	}

	// Plant an undecided Paxos instance across the cohort: ballot-0 accepts
	// at all three, then a higher-ballot prepare at dm1 only.
	orphan := TxnID("zz.t77")
	for _, dm := range dms {
		raw, err := store.client.Call(ctx, dm, PaxosAcceptReq{
			Txn: orphan, Ballot: 0, Commit: true, Subs: nil, Cohort: dms,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pr, ok := raw.(PaxosAcceptResp); !ok || !pr.OK {
			t.Fatalf("accept at %s answered %#v", dm, raw)
		}
	}
	if raw, err := store.client.Call(ctx, "dm1", PaxosPrepareReq{Txn: orphan, Ballot: 4, Cohort: dms, Proposer: "c9"}); err != nil {
		t.Fatal(err)
	} else if pr, ok := raw.(PaxosPrepareResp); !ok || !pr.OK || pr.AccBal != 0 || !pr.AccCommit {
		t.Fatalf("prepare at dm1 answered %#v, want the promise and the ballot-0 commit", raw)
	}

	dir := walPathOf(t, store, "dm0")
	if err := store.StopDM("dm0"); err != nil {
		t.Fatal(err)
	}
	ffs := wal.NewFaultFS(17)
	if _, _, ok, err := ffs.CorruptSegmentFrame(dir); err != nil || !ok {
		t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
	}
	if _, err := store.RestartDM("dm0"); err != nil {
		t.Fatal(err)
	}
	rst, err := store.RebuildReplica(ctx, "dm0")
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if rst.Resolved == 0 || rst.Acceptors != 1 {
		t.Fatalf("RebuildStats = %+v, want Resolved>0 Acceptors=1", rst)
	}

	store.mu.Lock()
	srv := store.dms["dm0"].srv
	res := srv.Resolved[resolvedTxn]
	acc := srv.Acceptors[orphan]
	store.mu.Unlock()
	if res == nil || !res.Committed {
		t.Fatalf("resolved record %s not restored: %+v", resolvedTxn, res)
	}
	if acc == nil {
		t.Fatal("acceptor state not restored")
	}
	if acc.Promised != 4 || acc.PromisedTo != "c9" {
		t.Fatalf("merged promise = %d to %q, want the max (4) and its proposer (c9)", acc.Promised, acc.PromisedTo)
	}
	if acc.AccBal != 0 || !acc.AccVal.Commit {
		t.Fatalf("merged accepted value = bal %d %+v, want ballot-0 commit", acc.AccBal, acc.AccVal)
	}
}

// TestRenewLeaseRefusedForUnknownTxn: the rebuilt-replica commit fence. A
// DM refuses to renew a transaction it holds no trace of
// — so a transaction whose locks died with a corrupted-and-rebuilt replica
// aborts at its pre-commit fence instead of committing over the loss.
func TestRenewLeaseRefusedForUnknownTxn(t *testing.T) {
	cfg := quorum.Majority([]string{"dm0"})
	srv := newDMState("dm0", []ItemSpec{{Name: "x", DMs: []string{"dm0"}, Config: cfg}, {Name: "y", DMs: []string{"dm0"}, Config: cfg}})

	if resp, handled := srv.coordinate(RenewLeaseReq{Txn: "c1.t1"}); !handled || resp.(Ack).OK {
		t.Fatalf("renewal for unknown txn = %#v, want refusal", resp)
	}
	// A granted lock makes the transaction known; renewal succeeds.
	if resp, _ := srv.apply(ReadReq{Txn: "c1.t2/0", Item: "x", Lock: LockWrite, Seq: 1}); !resp.(ReadResp).OK {
		t.Fatalf("grant refused: %#v", resp)
	}
	if resp, _ := srv.coordinate(RenewLeaseReq{Txn: "c1.t2"}); !resp.(Ack).OK {
		t.Fatalf("renewal for lock holder = %#v, want OK", resp)
	}
	// An intention alone, its lock gone, is a trace too. It
	// is planted through WriteReq so the touched index hears of it.
	if resp, _ := srv.apply(WriteReq{Txn: "c1.t3/0", Item: "y", VN: 9, Val: 1, Seq: 1}); !resp.(WriteResp).OK {
		t.Fatalf("write refused: %#v", resp)
	}
	delete(srv.Replicas["y"].Locks, "c1.t3/0")
	delete(srv.leases, "c1.t3")
	if resp, _ := srv.coordinate(RenewLeaseReq{Txn: "c1.t3"}); !resp.(Ack).OK {
		t.Fatalf("renewal for intent owner = %#v, want OK", resp)
	}
}

// TestResolvedRetentionCompacts: past the retention cap the oldest
// resolution records shed their subs payload but keep their verdict — late
// commit retries still get the idempotent refusal/ack.
func TestResolvedRetentionCompacts(t *testing.T) {
	srv := newDMState("dm0", []ItemSpec{{Name: "x", DMs: []string{"dm0"}, Config: quorum.Majority([]string{"dm0"})}})
	var stats Stats
	srv.stats = &stats
	srv.resolvedCap = 2

	for i := 1; i <= 3; i++ {
		tid := TxnID(fmt.Sprintf("c1.t%d", i))
		srv.apply(CommitTopReq{Txn: tid, Subs: []TxnID{tid + "/0"}})
	}
	if stats.ResolvedEvictions.Value() != 1 {
		t.Fatalf("ResolvedEvictions = %d, want 1", stats.ResolvedEvictions.Value())
	}
	oldest := srv.Resolved["c1.t1"]
	if oldest == nil || !oldest.Committed {
		t.Fatalf("verdict must outlive retention: %+v", oldest)
	}
	if oldest.Subs != nil {
		t.Fatalf("oldest record kept subs %v past the cap", oldest.Subs)
	}
	if srv.Resolved["c1.t3"].Subs == nil {
		t.Fatal("newest record lost its subs inside the window")
	}
	// The tombstone still makes CommitTopReq idempotent...
	if resp, mutated := srv.apply(CommitTopReq{Txn: "c1.t1"}); !resp.(Ack).OK || mutated {
		t.Fatalf("late commit retry on tombstone = %#v mutated=%v, want idempotent ack", resp, mutated)
	}
	// ...and still answers a resolver's probe with the verdict.
	if resp, _ := srv.coordinate(ResolutionProbeReq{Txn: "c1.t1"}); !resp.(ResolutionProbeResp).Known || !resp.(ResolutionProbeResp).Committed {
		t.Fatalf("probe on tombstone: %#v", resp)
	}
	// Re-resolving an already-resolved id never re-enters the eviction log.
	srv.apply(CommitTopReq{Txn: "c1.t3", Subs: []TxnID{"c1.t3/0"}})
	if n := len(srv.resolvedLog); n != 2 {
		t.Fatalf("duplicate resolution re-logged: log has %d entries, want 2", n)
	}
}

// TestServeDMAutoRebuild: a process-hosted replica (ServeDM) restarted onto
// a corrupted log automatically rebuilds from its live peers instead of
// coming up quarantined.
func TestServeDMAutoRebuild(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
		Seed: 161, FateFeedback: true,
	})
	defer net.Close()
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	dir := t.TempDir()

	hosts := map[string]*DMHost{}
	for _, dm := range dms {
		h, err := ServeDM(net, dm, items, WithDurability(dir), WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)))
		if err != nil {
			t.Fatal(err)
		}
		hosts[dm] = h
	}
	client, err := OpenClient(net, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := client.Run(context.Background(), func(tx *Txn) error { return tx.Write(context.Background(), "x", i) }); err != nil {
			t.Fatal(err)
		}
	}

	// Kill dm0's process, scramble its log, restart it with the same flags.
	hosts["dm0"].Close()
	ffs := wal.NewFaultFS(19)
	if _, _, ok, err := ffs.CorruptSegmentFrame(filepath.Join(dir, "dm0")); err != nil || !ok {
		t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
	}
	h, err := ServeDM(net, "dm0", items, WithDurability(dir), WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)))
	if err != nil {
		t.Fatal(err)
	}
	hosts["dm0"] = h
	if h.Quarantined() != nil {
		t.Fatalf("auto-rebuild failed, host quarantined: %v", h.Quarantined())
	}
	if h.Rebuilt == nil || h.Rebuilt.Items != 1 {
		t.Fatalf("Rebuilt = %+v, want 1 item restored", h.Rebuilt)
	}
	if h.Stats.Quarantines.Value() != 1 || h.Stats.Rebuilds.Value() != 1 {
		t.Fatalf("host counters = %d/%d, want 1/1",
			h.Stats.Quarantines.Value(), h.Stats.Rebuilds.Value())
	}
	// The rebuilt replica serves the committed value.
	resp, err := client.Inspect(context.Background(), "dm0", "x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Val != 6 {
		t.Fatalf("rebuilt host serves %v, want 6", resp.Val)
	}
	client.Close()
	for _, h := range hosts {
		h.Close()
	}
}

// TestRebuildRestoresMigratedItem: a replica rebuilt from its peers gets
// back every item it hosted, not only the ones it started with — an item
// migrated onto it comes back at its newest committed state, so the group
// keeps its read quorum when another member goes down.
func TestRebuildRestoresMigratedItem(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, _, _, ring := shardedCluster(t, 507, keys,
		WithDurability(t.TempDir()), WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)))
	ctx := context.Background()
	key := keyOn(t, ring, keys, "g0")
	if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	for i := 1; i <= 8; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, i) }); err != nil {
			t.Fatal(err)
		}
	}
	hosted := 0
	for _, it := range store.Items() {
		if slices.Contains(it.DMs, "b0") {
			hosted++
		}
	}

	dir := walPathOf(t, store, "b0")
	if err := store.StopDM("b0"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := wal.NewFaultFS(7).CorruptSegmentFrame(dir); err != nil || !ok {
		t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
	}
	if _, err := store.RestartDM("b0"); err != nil {
		t.Fatal(err)
	}
	rst, err := store.RebuildReplica(ctx, "b0")
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if rst.Items != hosted {
		t.Fatalf("rebuild restored %d items, b0 hosts %d", rst.Items, hosted)
	}
	insp, err := store.Inspect(ctx, "b0", key)
	if err != nil {
		t.Fatalf("the rebuilt replica lost the migrated item: %v", err)
	}
	if insp.Val != 8 || insp.Gen != 1 {
		t.Fatalf("rebuilt copy holds %v at gen %d, want 8 at gen 1", insp.Val, insp.Gen)
	}
	// With b1 down, b0 and b2 are the read quorum.
	if err := store.StopDM("b1"); err != nil {
		t.Fatal(err)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, key)
		if err == nil && v != 8 {
			t.Errorf("read %v with b1 down, want 8", v)
		}
		return err
	}); err != nil {
		t.Fatalf("read with b1 down: %v", err)
	}
}
