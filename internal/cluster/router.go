package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/quorum"
	"repro/internal/shard"
)

// Router is the shard-aware client face over a sharded Store (DESIGN.md
// §10). It resolves keys to replica groups through a cached copy of the
// placement ring, groups cross-shard transactions into one subtransaction
// subtree per touched group, and absorbs one WrongShardError redirect per
// operation by refreshing its ring and retrying — the "retry once" a
// freshly-migrated key costs a stale client.
//
// A Router is safe for concurrent use; each operation runs its own
// top-level transaction on the underlying Store.
type Router struct {
	s *Store

	mu   sync.Mutex
	ring *shard.Ring
}

// NewRouter wraps a sharded Store. It fails on unsharded stores — an
// unsharded Store is its own router.
func NewRouter(s *Store) (*Router, error) {
	ring := s.Ring()
	if ring == nil {
		return nil, errors.New("cluster: router requires a sharded store (WithRing)")
	}
	return &Router{s: s, ring: ring}, nil
}

// Store exposes the underlying Store for operations the router does not
// mediate (stats, chaos controls, Close).
func (r *Router) Store() *Store { return r.s }

// Epoch returns the cached ring epoch — the placement version this
// router's next lookup routes under.
func (r *Router) Epoch() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Epoch
}

// GroupOf resolves key to the replica group the cached ring places it on.
func (r *Router) GroupOf(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Lookup(key)
}

// Placement maps each replica group to the keys (among those given) the
// cached ring places on it — the -inspect view of the keyspace.
func (r *Router) Placement(keys []string) map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]string{}
	for _, g := range r.ring.GroupNames() {
		out[g] = nil
	}
	for _, k := range keys {
		g := r.ring.Lookup(k)
		out[g] = append(out[g], k)
	}
	for g := range out {
		sort.Strings(out[g])
	}
	return out
}

// syncRing folds the Store's ring — which advances whenever a redirect is
// adopted — into the router's cache if it is newer.
func (r *Router) syncRing() {
	fresh := r.s.Ring()
	if fresh == nil {
		return
	}
	r.mu.Lock()
	r.ring.Adopt(fresh)
	r.mu.Unlock()
}

// retryOnce runs op; when it fails with a WrongShardError the store has
// already adopted the redirect, so the router refreshes its ring cache and
// reruns op exactly once against the new placement. Redirects the store
// absorbed mid-phase (no error surfaced) still advance the store's ring,
// so the cache is re-synced whenever the store's epoch moved past it.
func (r *Router) retryOnce(op func() error) error {
	err := op()
	if r.s.RingEpoch() > r.Epoch() {
		r.syncRing()
	}
	var wse *WrongShardError
	if err == nil || !errors.As(err, &wse) {
		return err
	}
	return op()
}

// Read reads one key under a single-key top-level transaction.
func (r *Router) Read(ctx context.Context, key string) (val any, err error) {
	err = r.retryOnce(func() error {
		return r.s.Run(ctx, func(t *Txn) error {
			var rerr error
			val, rerr = t.Read(ctx, key)
			return rerr
		})
	})
	return val, err
}

// Write writes one key under a single-key top-level transaction.
func (r *Router) Write(ctx context.Context, key string, v any) error {
	return r.retryOnce(func() error {
		return r.s.Run(ctx, func(t *Txn) error {
			return t.Write(ctx, key, v)
		})
	})
}

// Op is one key access inside a cross-shard transaction.
type Op struct {
	// Key names the item.
	Key string
	// Write selects a write (installing Val) over a read.
	Write bool
	// Val is the value a write installs; ignored for reads.
	Val any
}

// ReadOp and WriteOp build the common Op shapes.
func ReadOp(key string) Op         { return Op{Key: key} }
func WriteOp(key string, v any) Op { return Op{Key: key, Write: true, Val: v} }

// RunCrossShard executes ops as ONE serializable top-level transaction
// spanning every shard the keys map to. Keys are grouped by replica group
// and each group's ops run inside their own subtransaction — one subtree
// per shard, exactly the nested-transaction shape the paper's locking
// rules already handle: a subtree that conflicts aborts and is retried by
// Run without disturbing siblings that already committed, and the top-level
// commit fans out only to DMs of participating groups.
//
// Read results are returned keyed by item. On success every op ran; on
// error none of the writes are visible.
func (r *Router) RunCrossShard(ctx context.Context, ops []Op) (map[string]any, error) {
	if len(ops) == 0 {
		return map[string]any{}, nil
	}
	var reads map[string]any
	err := r.retryOnce(func() error {
		// Group under the CURRENT cached ring each attempt: a redirect
		// retry must regroup, since the redirected key changed groups.
		r.mu.Lock()
		byGroup := map[string][]Op{}
		for _, op := range ops {
			g := r.ring.Lookup(op.Key)
			byGroup[g] = append(byGroup[g], op)
		}
		r.mu.Unlock()
		groups := make([]string, 0, len(byGroup))
		for g := range byGroup {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		attempt := map[string]any{}
		runErr := r.s.Run(ctx, func(t *Txn) error {
			for _, g := range groups {
				gops := byGroup[g]
				if err := t.Sub(ctx, func(sub *Txn) error {
					for _, op := range gops {
						if op.Write {
							if err := sub.Write(ctx, op.Key, op.Val); err != nil {
								return err
							}
							continue
						}
						v, err := sub.Read(ctx, op.Key)
						if err != nil {
							return err
						}
						attempt[op.Key] = v
					}
					return nil
				}); err != nil {
					// A failed subtree fails the whole cross-shard
					// transaction: partial cross-shard application is
					// exactly what the atomic commit must rule out.
					return err
				}
			}
			return nil
		})
		if runErr == nil {
			reads = attempt
		}
		return runErr
	})
	if err != nil {
		return nil, err
	}
	return reads, nil
}

// MigrateShard live-migrates keys to the replica group named toGroup, one
// item at a time (each under its own coordinator transaction and fences),
// then refreshes the router's ring cache. Items already on toGroup are
// skipped. The first failing key aborts the batch and reports how far the
// cutover got; completed keys stay migrated — item migrations are
// independently atomic, so a partial batch is a valid placement.
func (r *Router) MigrateShard(ctx context.Context, toGroup string, keys ...string) error {
	for i, key := range keys {
		if err := r.s.MigrateItem(ctx, key, toGroup, CommitCrashOptions{}); err != nil {
			r.syncRing()
			return fmt.Errorf("cluster: migrate batch to %q: key %q (%d/%d done): %w",
				toGroup, key, i, len(keys), err)
		}
	}
	r.syncRing()
	return nil
}

// Refresh pulls the ring from the cluster: it asks DMs (in sorted order)
// for their ring via RingReq and adopts the newest epoch heard into both
// the router's cache and the Store's placement state. Ring state at DMs is
// soft, so a refusal is not an error; Refresh reports the epoch it ended
// on.
func (r *Router) Refresh(ctx context.Context) (int, error) {
	r.mu.Lock()
	dms := append([]string(nil), r.ring.DMs()...)
	r.mu.Unlock()
	for _, dm := range dms {
		raw, err := r.s.callDM(ctx, dm, RingReq{})
		if errors.Is(err, errNoBudget) {
			return r.Epoch(), err
		}
		if err != nil {
			continue
		}
		resp, ok := raw.(RingResp)
		if !ok || !resp.OK {
			continue
		}
		ring := resp.Ring
		r.mu.Lock()
		r.ring.Adopt(&ring)
		r.mu.Unlock()
		r.s.adoptRing(&ring)
	}
	return r.Epoch(), nil
}

// adoptRing folds an externally-learned ring into the store's placement
// state when it is strictly newer.
func (s *Store) adoptRing(r *shard.Ring) {
	if r == nil {
		return
	}
	s.mu.Lock()
	if s.ring != nil {
		s.ring.Adopt(r)
	}
	s.mu.Unlock()
}

// ShardItems builds the ItemSpec slice a sharded deployment opens with:
// each key is placed by the ring and replicated across its group's DMs
// under a majority quorum. Deployments wanting non-majority per-group
// configs can post-process the result.
func ShardItems(r *shard.Ring, keys []string, initial any) ([]ItemSpec, error) {
	if r == nil {
		return nil, errors.New("cluster: ShardItems: nil ring")
	}
	items := make([]ItemSpec, 0, len(keys))
	for _, key := range keys {
		name := r.Lookup(key)
		g, ok := r.Group(name)
		if !ok {
			return nil, fmt.Errorf("cluster: ShardItems: key %q maps to unknown group %q", key, name)
		}
		dms := append([]string(nil), g.DMs...)
		items = append(items, ItemSpec{
			Name: key, Initial: initial, DMs: dms, Config: quorum.Majority(dms),
		})
	}
	return items, nil
}
