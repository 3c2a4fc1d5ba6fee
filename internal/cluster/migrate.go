package cluster

import (
	"context"
	"fmt"
	"slices"
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
// After commit the old group's surplus replicas are retired best-effort:
// each drops its copy and keeps a durable moved-marker answering later
// requests with a WrongShardResp redirect. A failed retire is safe — the
// replica then still holds the gen+1 config record and redirects via the
// ordinary generation chase.
//
// cut injects a coordinator crash into the commit tail (chaos harness use;
// the zero value migrates cleanly): the migration returns
// ErrCommitAbandoned with its transaction neither committed nor aborted,
// and the cluster must converge on the item wholly at the old group or
// wholly at the new one.
func (s *Store) MigrateItem(ctx context.Context, item, toGroup string, cut CommitCrashOptions) error {
	ring := s.Ring()
	if ring == nil {
		return fmt.Errorf("cluster: migrate %q: store is not sharded", item)
	}
	g, ok := ring.Group(toGroup)
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

	// Cutover is decided; fold it into this client's own placement state,
	// retire the old group's surplus replicas, and gossip the new ring.
	s.relocateItem(item, newDMs, res.gen+1, newCfg, toGroup, 0)
	ringAfter := s.Ring()
	retire := RetireItemReq{
		Item: item, Epoch: ringAfter.Epoch, Group: toGroup,
		DMs: newDMs, Gen: res.gen + 1, Cfg: newCfg,
	}
	// Best-effort with a short retry: a DM refuses while any transaction
	// still holds locks there (our own commit stragglers), and a refusal is
	// safe — the replica keeps the gen+1 config record and redirects via the
	// ordinary generation chase instead.
	old := slices.DeleteFunc(slices.Clone(it.DMs), func(dm string) bool { return slices.Contains(newDMs, dm) })
	retired, _ := s.call(ctx, round{dms: old, req: retire, retries: 2, until: isAck})
	for i, raw := range retired {
		if !isAck(raw) {
			s.traceEvent("store", "migrate", "retire of %q at %s not acknowledged (safe: gen chase covers it)", item, old[i])
		}
	}
	s.gossipRing(ringAfter)
	s.Stats.Migrations.Inc()
	s.traceEvent(string(rep.Txn), "migrate",
		"%s -> group %q (gen %d -> %d, epoch %d)", item, toGroup, res.gen, res.gen+1, ringAfter.Epoch)
	return nil
}

// gossipRing pushes the client's ring (with its fresh override and epoch)
// to every DM it knows, best-effort. Ring state at DMs is soft — a routing
// cache for RingReq clients — so a missed update only costs a later
// redirect, never correctness.
func (s *Store) gossipRing(r *shard.Ring) {
	if r == nil {
		return
	}
	for _, dm := range s.DMs() {
		s.client.Notify(dm, RingUpdateReq{Ring: *r.Clone()})
	}
}
