package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/quorum"
	"repro/internal/shard"
)

// MigrateItem moves item to the replica group named toGroup: a
// reconfigure-TM whose new configuration is a majority over a disjoint
// replica set, committed by the common tail under the same fences every
// write takes (DESIGN.md §10).
//
// New-group DMs first adopt a placeholder replica (idempotent hard state).
// Then one coordinator transaction runs Section 4's body: it write-locks
// the item at a read-quorum of the old configuration — the fence: in-flight
// writers either commit before the migration's lock lands or conflict and
// retry after cutover — copies the fenced (vn, val) to a write-quorum of
// the new configuration, and buffers the config record (gen+1, newCfg) at
// write quorums of BOTH old and new configurations. Old-quorum copies are
// what redirect stale clients: their next read intersects one, sees Gen >
// its belief, and chases to the new placement. Commit applies everything
// atomically per DM; until then every read still assembles at the old
// group, so reads never block during the copy.
//
// Nothing else happens after commit: the old group's replicas keep their
// copies and the gen+1 record, so the generation chase is the one redirect
// a stale client needs. No read returns an old copy: a read folds versions
// only over a quorum of the newest configuration it found.
//
// cut injects a coordinator crash into the commit tail (chaos harness use;
// the zero value migrates cleanly): the migration returns
// ErrCommitAbandoned with its transaction neither committed nor aborted,
// and the cluster must converge on the item wholly at the old group or
// wholly at the new one.
func (s *Store) MigrateItem(ctx context.Context, item, toGroup string, cut CommitCrashOptions) error {
	if s.ring == nil {
		return fmt.Errorf("cluster: migrate %q: store is not sharded", item)
	}
	g, ok := s.ring.Group(toGroup)
	if !ok {
		return fmt.Errorf("cluster: migrate %q: unknown group %q", item, toGroup)
	}
	it, ok := s.itemSpec(item)
	if !ok {
		return fmt.Errorf("cluster: unknown item %q", item)
	}
	newDMs := append([]string(nil), g.DMs...)
	sort.Strings(newDMs)
	if sameStrings(it.DMs, newDMs) {
		return nil // already placed there
	}
	if len(newDMs) > MaxQuorumTargets {
		// Refused before the majority quorums, which grow exponentially, are built.
		return &TooManyTargetsError{Item: item, Targets: len(newDMs)}
	}
	newCfg := quorum.Majority(newDMs)

	// Adopt round: every new-group DM must host a (zero-version)
	// placeholder before the copy phase can buffer intentions there.
	// Adoption is idempotent hard state, so retries are free; a DM that
	// cannot be reached now fails the migration before any lock was taken.
	adopted, _ := s.call(ctx, round{dms: newDMs, req: AdoptItemReq{Item: item, Initial: it.Initial},
		retries: s.opts.lockRetries, until: isAck})
	for i, raw := range adopted {
		if !isAck(raw) {
			return fmt.Errorf("cluster: migrate %q: %w: adopt not acknowledged by %s", item, ErrUnavailable, newDMs[i])
		}
	}

	var res readResult
	rep, err := s.commitAttempt(ctx, func(t *Txn) (err error) {
		res, err = t.reconfigureTo(ctx, item, "migrate", newCfg, true)
		return err
	}, cut)
	if err != nil {
		return err
	}

	// Cutover is decided; fold it into this client's own placement state.
	s.relocateItem(item, newDMs, res.gen+1, newCfg)
	s.Stats.Migrations.Inc()
	s.traceEvent(string(rep.Txn), "migrate", "%s -> group %q (gen %d -> %d)", item, toGroup, res.gen, res.gen+1)
	return nil
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
