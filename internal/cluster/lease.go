package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/commit"
	"repro/internal/metrics"
)

// Lock leases and orphan resolution.
//
// Every lock grant stamps a lease of LeaseTTL for the holder's top-level
// transaction; further grants and RenewLeaseReqs re-stamp it. The lease is
// part of the lock, not an option: a lock that no notify releases — the
// notify lost with its connection, or the replica restarted between the
// grant and the release — is freed by whoever it blocks once the lease
// lapses, so no item can wedge for good. A transaction whose client is
// alive keeps its leases fresh (grants during execution, the background
// renewer, and the synchronous pre-commit renewal); a transaction whose
// client crashed stops renewing.
// A replica does nothing about that itself — it only answers. Once a lease
// lapsed, a refusal over the orphan's locks names it (Orphans), and the
// client that was refused resolves it with the coordinator's own rounds
// (Store.resolve): it asks every DM how the transaction stands, and a
// resolution record any of them holds dictates the outcome (commit records
// carry the committed-subs list, so a straggler applies the subtree exactly
// as a late CommitTopReq would). If every DM answers "unknown", no replica
// anywhere heard CommitTopReq, so the commit point — the first CommitTopReq
// send, which requires a synchronous renewal at every touched DM just
// before it — was never passed, and the transaction is presumed aborted.
//
// Safety rests on the fence: the client renews synchronously at every
// written and granted DM before broadcasting CommitTopReq, and any refusal
// (the DM resolved the transaction — possibly by a presumed abort) or
// unreachable DM aborts the attempt instead. So "all DMs unknown" at probe
// time genuinely implies the commit point is unreachable: passing it would
// require a successful renewal at a DM that has already refused forever.

// LeaseTTL is how long a lock lease lives without a grant or a renewal. It
// is one constant that client and replica both read — they are one binary —
// so the two can never disagree about it, and it sits far above a
// transaction's inter-phase gaps: the pre-commit fence is free for a
// transaction younger than LeaseTTL/2, and the background renewer re-stamps
// every LeaseTTL/3.
const LeaseTTL = time.Second

// stampLease (re)stamps the lease of the holder's top-level transaction.
// Called on every grant.
func (s *dmServer) stampLease(t TxnID) {
	s.leases[t.Top()] = s.clock.Now().Add(LeaseTTL)
}

// leaseLive reports whether this DM holds an unexpired lease entry for the
// top-level transaction: its client stamped or renewed here within the TTL.
func (s *dmServer) leaseLive(top TxnID) bool {
	deadline, ok := s.leases[top]
	return ok && !s.clock.Now().After(deadline)
}

// refreshLeases replaces every lease with a fresh one for each lock holder —
// called once the host's clock is wired, after recovery replay. What replay
// stamped is against the wrong clock, and it may name a transaction whose
// last lock a logged release dropped: kept, that entry would answer Active
// forever under a manual clock, and the transaction would never be presumed
// aborted. Fresh stamps only delay resolution, which is always safe.
func (s *dmServer) refreshLeases() {
	clear(s.leases)
	for _, r := range s.Replicas {
		for holder := range r.Locks {
			s.stampLease(holder)
		}
	}
}

// expiredHolders names, sorted, the top-level transactions other than the
// requester's own that hold a lock on r under a lapsed lease: their clients
// may be gone. Every refusal over r's locks carries the list, and an
// inspection carries it with no requester to exempt, so orphans are named
// exactly when they are in somebody's way or under ResolveOrphans's eye. It
// changes nothing: a holder without a lease entry is not expired — expiry
// must only ever shorten availability, never invent an orphan.
func (s *dmServer) expiredHolders(r *replica, requester TxnID) []TxnID {
	var out []TxnID
	now, own := s.clock.Now(), requester.Top()
	for holder := range r.Locks {
		top := holder.Top()
		if deadline, ok := s.leases[top]; ok && top != own && now.After(deadline) && !slices.Contains(out, top) {
			out = append(out, top)
		}
	}
	slices.Sort(out)
	return out
}

// coordinate answers the requests that never reach the replicated state
// machine: lease renewals, a resolver's probe, the refusal of a presumed
// abort and rebuild pulls. It reports handled=false for everything else.
// Kept out of apply so what the WAL/replay path decides never depends on a
// clock read — a DecisionReq that passes here IS applied, logged and
// replayed like any request.
func (s *dmServer) coordinate(req any) (resp any, handled bool) {
	switch q := req.(type) {
	case RenewLeaseReq:
		top := q.Txn.Top()
		if s.Resolved[top] != nil {
			return Ack{OK: false}, true
		}
		if !s.knowsTxn(top) {
			// The commit fence's other half for rebuilt replicas: a renewal
			// for a transaction this DM holds no trace of — no lease, no
			// lock, no intention — is refused. A replica rebuilt from peers
			// carries only committed state; granting the renewal would let
			// the client commit over locks and intentions the rebuild lost.
			// The refusal aborts the transaction pre-commit, which is the
			// safe direction (it simply re-runs).
			return Ack{OK: false}, true
		}
		s.stampLease(top)
		return Ack{OK: true}, true
	case ResolutionProbeReq:
		top := q.Txn.Top()
		ans := ResolutionProbeResp{Promised: -2, AccBal: -1, Holds: s.holdsTxn(top), Active: s.leaseLive(top)}
		if res := s.Resolved[top]; res != nil {
			ans.Known, ans.Committed, ans.Subs = true, res.Committed, res.Subs
		}
		if acc := s.Acceptors[top]; acc != nil {
			ans.Promised, ans.AccBal, ans.AccCommit, ans.Cohort = acc.Promised, acc.AccBal, acc.AccVal.Commit, acc.Cohort
		}
		return ans, true
	case DecisionReq:
		if q.Presumed && s.leaseLive(q.Txn.Top()) {
			// The presumption is conditional here: this DM's lease is live —
			// the client renewed since the resolver asked — so it is alive
			// and the transaction is not an orphan. Everything else falls
			// through to apply.
			return Ack{OK: false}, true
		}
		return nil, false
	}
	// Rebuild pulls are read-only state exports — nothing to log.
	return s.coordinateRebuild(req)
}

// --- client side ---

// ensureLease is the commit fence: called after the transaction body
// succeeded and before the CommitTopReq broadcast. If the leases were
// stamped recently (any grant re-stamps them) it is free; otherwise it
// renews synchronously at every written and granted DM, and any refusal or
// unreachable DM fails the fence — the transaction may already have been
// reaped somewhere, so committing would be unsafe. The caller aborts and
// re-runs.
func (t *Txn) ensureLease(ctx context.Context) error {
	t.mu.Lock()
	stamp := t.leaseStamp
	t.mu.Unlock()
	if t.store.now().Sub(stamp) < LeaseTTL/2 {
		return nil
	}
	return t.renewLeases(ctx)
}

// renewLeases synchronously renews the transaction's leases at every
// written and granted DM. All must acknowledge: a granted-only DM that
// reaped the transaction released read locks early, so committing past it
// would break two-phase locking just as surely as losing a written DM.
func (t *Txn) renewLeases(ctx context.Context) error {
	written, granted, _ := t.controlSets()
	dms := append(written, granted...)
	if len(dms) == 0 {
		t.noteLeaseStamp()
		return nil
	}
	answers, _ := t.store.call(ctx, round{dms: dms, req: RenewLeaseReq{Txn: t.id}, until: isAck})
	for i, raw := range answers {
		if !isAck(raw) {
			return &LeaseExpiredError{Txn: t.id, DM: dms[i]}
		}
	}
	t.noteLeaseStamp()
	t.store.Stats.LeaseRenewals.Inc()
	return nil
}

// knowsTxn reports whether this DM holds any trace of the top-level
// transaction: a live lease, or a lock or intention owned by its subtree.
// A rebuilt replica knows only committed state, so renewals for
// transactions it never saw are refused (see coordinate).
func (s *dmServer) knowsTxn(top TxnID) bool {
	_, leased := s.leases[top]
	return leased || s.holdsTxn(top)
}

// noteLeaseStamp records that the DMs just (re)stamped our leases.
func (t *Txn) noteLeaseStamp() {
	t.mu.Lock()
	t.leaseStamp = t.store.now()
	t.mu.Unlock()
}

// leaseRenewer is the background keep-alive for long-running transactions:
// every TTL/3 it renews the leases of every open transaction, so a slow
// but live client is never mistaken for a crashed one. It runs only under
// the wall clock — with a manual clock (deterministic harnesses) time
// moves solely between rounds, and renewal traffic from a timer would fork
// seeded replays; those harnesses rely on grants re-stamping leases
// instead.
func (s *Store) leaseRenewer() {
	defer s.bg.Done()
	tick := time.NewTicker(LeaseTTL / 3)
	defer tick.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case <-tick.C:
			for _, t := range s.openTxnList() {
				// Best effort: a failed renewal here is caught by the
				// pre-commit fence; a renewal for a just-finished
				// transaction is refused and ignored.
				_ = t.renewLeases(context.Background())
			}
		}
	}
}

func (s *Store) trackTxn(t *Txn) {
	s.mu.Lock()
	if s.openTxns == nil {
		s.openTxns = map[TxnID]*Txn{}
	}
	s.openTxns[t.id] = t
	s.mu.Unlock()
}

func (s *Store) untrackTxn(t *Txn) {
	s.mu.Lock()
	delete(s.openTxns, t.id)
	s.mu.Unlock()
}

func (s *Store) openTxnList() []*Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Txn, 0, len(s.openTxns))
	for _, t := range s.openTxns {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ResolveOrphans settles the orphans of idle items, which no transaction
// trips over: it inspects every replica of every item, in sorted order so a
// seeded harness replays it, and resolves the expired-lease holders the
// inspections name. A replica it cannot reach is skipped; only a done ctx
// ends the pass early, with its error. It pushes no data: a lagging copy
// needs none (DESIGN.md §6).
func (s *Store) ResolveOrphans(ctx context.Context) error {
	for _, it := range s.Items() {
		var orphans []TxnID
		for _, dm := range it.DMs {
			resp, err := s.Inspect(ctx, dm, it.Name)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err == nil {
				orphans = append(orphans, resp.Orphans...)
			}
		}
		s.resolveAll(ctx, orphans)
	}
	return ctx.Err()
}

// resolveAll resolves each of the named orphans in turn, in sorted order so
// a seeded harness replays it.
func (s *Store) resolveAll(ctx context.Context, orphans []TxnID) {
	slices.Sort(orphans)
	for _, top := range slices.Compact(orphans) {
		s.resolve(ctx, top)
	}
}

// resolve settles the top-level transaction top, whose locks — held under a
// lapsed lease — are in this client's way. Orphans are resolved by whoever
// they block, with the coordinator's own rounds, every step a call; one
// resolution per transaction is in flight per store, and a second caller
// waits for it. It asks every member DM (Store.DMs, fixed at Open) how the
// transaction stands (ResolutionProbeReq), then does exactly one of, in
// this order:
//
//   - a DM holds a resolution record: the outcome exists; re-serve it to
//     every DM (the record's Subs make a straggler apply the same commit).
//   - a DM vouches for a live coordinator (an unexpired lease): nothing.
//     The coordinator may be mid-commit, and a recovery ballot would only
//     kill its ballot 0. Asked of every DM before acceptor state is looked
//     at, so the order no longer depends on which replica noticed.
//   - a DM holds acceptor state: the outcome may be decided at a majority
//     the probes did not reach, so it is reconstructed, never presumed —
//     acceptor recovery over the instance's cohort, above every ballot the
//     probes saw, then the learn round to every DM.
//   - every DM answered and none of the above: no replica anywhere heard a
//     commit or a Phase 2a, so the commit point was never passed — presumed
//     abort, which each replica still refuses while its own lease is live.
//   - otherwise (a DM silent or quarantined) nothing: the missing answer
//     could be the commit record.
//
// "Every DM" is every DM this store's item specs name: a client that ran
// leases knowing only part of the cluster's items could presume over a
// record a replica of the others holds. The caller retries its own request
// afterwards, whatever happened here.
func (s *Store) resolve(ctx context.Context, top TxnID) {
	s.mu.Lock()
	if inflight := s.resolving[top]; inflight != nil {
		s.mu.Unlock()
		select {
		case <-inflight:
		case <-ctx.Done():
		}
		return
	}
	done := make(chan struct{})
	if s.resolving == nil {
		s.resolving = map[TxnID]chan struct{}{}
	}
	s.resolving[top] = done
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.resolving, top)
		s.mu.Unlock()
		close(done)
	}()

	s.Stats.ResolutionQueries.Inc()
	dms := s.DMs()
	// One try per DM: a lost probe only means no presumption this time, and
	// the caller's own retry loop brings the next round.
	answers, _ := s.call(ctx, round{dms: dms, req: ResolutionProbeReq{Txn: top}})
	var record *ResolutionProbeResp
	var cohort []string
	active, silent, ballot := false, false, 1
	for _, raw := range answers {
		p, ok := raw.(ResolutionProbeResp)
		if !ok {
			silent = true
			continue
		}
		if p.Known && record == nil {
			record = &p
		}
		active = active || p.Active
		if len(p.Cohort) > 0 {
			cohort, ballot = p.Cohort, max(ballot, p.Promised+1)
		}
	}
	dec := DecisionReq{Txn: top}
	switch {
	case record != nil:
		dec.Commit, dec.Subs = record.Committed, record.Subs
		countOutcome(dec.Commit, &s.Stats.OrphanReapsCommitted, &s.Stats.OrphanReapsAborted)
	case active:
		return
	case cohort != nil:
		s.Stats.AcceptorRecoveries.Inc()
		out, _, err := s.propose(ctx, top, cohort, len(cohort), ballot, commit.Decision{})
		if err != nil {
			return // the next refusal over these locks tries again
		}
		dec.Commit, dec.Subs = out.Commit, stringsToTxns(out.Subs)
		countOutcome(dec.Commit, &s.Stats.AcceptorResolvesCommitted, &s.Stats.AcceptorResolvesAborted)
	case !silent:
		dec.Presumed = true
		s.Stats.OrphanReapsAborted.Inc()
	default:
		return
	}
	s.traceEvent(string(top), "resolve", "commit %v (presumed %v) sent to %v", dec.Commit, dec.Presumed, dms)
	s.call(ctx, round{dms: dms, req: dec, retries: s.opts.lockRetries})
}

// countOutcome counts a resolved orphan under its outcome. The counters live
// at the decision site, so a replica's log replay of an old decision does
// not double-count.
func countOutcome(committed bool, commits, aborts *metrics.Counter) {
	if committed {
		commits.Inc()
	} else {
		aborts.Inc()
	}
}

// PlantOrphan simulates a client that crashed while holding write locks:
// it grabs a write-quorum's worth of write locks (with a buffered
// intention) on item under a transaction id nobody will ever resolve, and
// returns that id. The locks wedge the item until a client they block
// presumes the orphan aborted. Test/chaos harness use only.
func (s *Store) PlantOrphan(ctx context.Context, item string) (TxnID, error) {
	if _, ok := s.itemSpec(item); !ok {
		return "", fmt.Errorf("cluster: unknown item %q", item)
	}
	cfg := s.config(item).cfg
	if len(cfg.W) == 0 {
		return "", fmt.Errorf("cluster: item %q has no write quorums", item)
	}
	n := s.orphanSeq.Add(1)
	id := TxnID(fmt.Sprintf("%s.orphan%d", s.clientID, n))
	planted := 0
	for _, dm := range cfg.W[0].Names() {
		raw, _ := s.callDM(ctx, dm, WriteReq{
			Txn: id, Item: item, VN: 1_000_000 + int(n), Val: "orphan",
		})
		if resp, ok := raw.(WriteResp); ok && resp.OK {
			planted++
		}
	}
	if planted == 0 {
		return id, fmt.Errorf("cluster: no replica of %q granted the orphan lock", item)
	}
	return id, nil
}
