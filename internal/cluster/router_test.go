package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

func TestRouterCrossShard(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, net, _, ring := shardedCluster(t, 601, keys)
	ctx := context.Background()
	r, err := NewRouter(store)
	if err != nil {
		t.Fatal(err)
	}
	k0 := keyOn(t, ring, keys, "g0")
	k1 := keyOn(t, ring, keys, "g1")
	if r.GroupOf(k0) != "g0" || r.GroupOf(k1) != "g1" {
		t.Fatalf("router disagrees with ring: %q->%q, %q->%q",
			k0, r.GroupOf(k0), k1, r.GroupOf(k1))
	}
	pl := r.Placement(keys)
	if len(pl["g0"])+len(pl["g1"]) != len(keys) {
		t.Fatalf("placement lost keys: %v", pl)
	}

	// One cross-shard transaction writing both groups, then one reading
	// both back: atomic fan-out across two subtransaction subtrees.
	if _, err := r.RunCrossShard(ctx, []Op{WriteOp(k0, 100), WriteOp(k1, 200)}); err != nil {
		t.Fatalf("cross-shard write: %v", err)
	}
	got, err := r.RunCrossShard(ctx, []Op{ReadOp(k0), ReadOp(k1)})
	if err != nil {
		t.Fatalf("cross-shard read: %v", err)
	}
	if got[k0] != 100 || got[k1] != 200 {
		t.Fatalf("cross-shard read got %v, want %s=100 %s=200", got, k0, k1)
	}

	// Single-key convenience path.
	if err := r.Write(ctx, k0, 101); err != nil {
		t.Fatal(err)
	}
	v, err := r.Read(ctx, k0)
	if err != nil || v != 101 {
		t.Fatalf("router read = %v, %v; want 101", v, err)
	}

	// MigrateShard moves a key and the router keeps serving it, cache
	// refreshed past the cutover epoch.
	before := r.Epoch()
	if err := r.MigrateShard(ctx, "g1", k0); err != nil {
		t.Fatalf("MigrateShard: %v", err)
	}
	net.Quiesce()
	if r.GroupOf(k0) != "g1" {
		t.Fatalf("router still routes %q to %q after MigrateShard", k0, r.GroupOf(k0))
	}
	if r.Epoch() <= before {
		t.Fatalf("epoch did not advance across migration: %d -> %d", before, r.Epoch())
	}
	v, err = r.Read(ctx, k0)
	if err != nil || v != 101 {
		t.Fatalf("read after MigrateShard = %v, %v; want 101", v, err)
	}

	// Refresh round-trips the ring through DM gossip without regressing.
	epoch, err := r.Refresh(ctx)
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if epoch < r.Epoch() {
		t.Fatalf("Refresh regressed epoch to %d", epoch)
	}
}

// TestRouterStaleCacheRetriesOnce: a router whose cached ring predates a
// migration takes exactly one redirect round trip — the store adopts the
// redirect mid-transaction, the retry-once lane reruns, and the ring cache
// catches up.
func TestRouterStaleCacheRetriesOnce(t *testing.T) {
	keys := shard.Keys("k", 12)
	store, net, _, ring := shardedCluster(t, 602, keys)
	ctx := context.Background()
	key := keyOn(t, ring, keys, "g0")

	items, err := ShardItems(ring, keys, 0)
	if err != nil {
		t.Fatal(err)
	}
	staleStore, err := OpenClient(net, items,
		WithSeed(1602), WithCallTimeout(25*time.Millisecond),
		WithRetryBackoff(2*time.Millisecond),
		WithRing(ring))
	if err != nil {
		t.Fatal(err)
	}
	defer staleStore.Close()
	r, err := NewRouter(staleStore)
	if err != nil {
		t.Fatal(err)
	}

	if err := r.Write(ctx, key, 1); err != nil {
		t.Fatal(err)
	}
	if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	net.Quiesce()

	v, err := r.Read(ctx, key)
	if err != nil {
		t.Fatalf("stale router read: %v", err)
	}
	if v != 1 {
		t.Fatalf("stale router read %v, want 1", v)
	}
	if r.GroupOf(key) != "g1" {
		t.Fatalf("router cache not refreshed: %q still on %q", key, r.GroupOf(key))
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

// TestShardStatsConcurrent hammers ShardStats, Stats counters, and
// OverloadTotals while transactions and a migration run — the satellite
// regression for per-shard aggregation racing the data path (run under
// -race).
func TestShardStatsConcurrent(t *testing.T) {
	keys := shard.Keys("k", 8)
	store, _, _, ring := shardedCluster(t, 603, keys,
		WithLockRetries(5), WithTxnRetries(5))
	ctx := context.Background()
	key := keyOn(t, ring, keys, "g0")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			stats := store.ShardStats()
			if len(stats) != 2 {
				t.Errorf("ShardStats returned %d groups", len(stats))
				return
			}
			_ = store.OverloadTotals()
			_ = store.Ring()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, key, i) })
		}
	}()
	if err := store.MigrateItem(ctx, key, "g1", CommitCrashOptions{}); err != nil {
		// A migration racing live writers may lose the lock race within
		// its retry budget; only a wedge (error after quiescence) matters.
		t.Logf("migration under contention: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	total := 0
	for _, st := range store.ShardStats() {
		total += st.Items
	}
	if total != len(keys) {
		t.Fatalf("per-shard item counts sum to %d, want %d", total, len(keys))
	}
}
