package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Lock leases and orphan reaping.
//
// Every lock grant stamps a lease of WithLeaseTTL duration for the
// holder's top-level transaction; further grants and RenewLeaseReqs
// re-stamp it. A transaction whose client is alive keeps its leases fresh
// (grants during execution, the background renewer, and the synchronous
// pre-commit renewal); a transaction whose client crashed stops renewing,
// and once its lease lapses any DM that runs into its locks starts a
// resolution inquiry: poll every peer DM for a commit record. Any peer
// that resolved the transaction dictates the outcome (commit records carry
// the committed-subs list, so the straggler applies the subtree exactly as
// a late CommitTopReq would); if every peer answers "unknown", no replica
// anywhere heard CommitTopReq, so the commit point — the first
// CommitTopReq send, which requires a synchronous renewal at every touched
// DM just before it — was never passed, and the transaction is reaped as a
// presumed abort.
//
// Safety rests on the fence: the client renews synchronously at every
// written and granted DM before broadcasting CommitTopReq, and any refusal
// (the DM resolved the transaction — possibly by reaping it) or
// unreachable DM aborts the attempt instead. So "all peers unknown" at
// inquiry time genuinely implies the commit point is unreachable: passing
// it would require a successful renewal at a DM that has already refused
// forever.

// stampLease (re)stamps the lease of the holder's top-level transaction.
// Called on every grant; a no-op when leases are disabled.
func (s *dmServer) stampLease(t TxnID) {
	if s.leaseTTL <= 0 {
		return
	}
	s.leases[t.Top()] = s.clock.Now().Add(s.leaseTTL)
}

// leaseExpired reports whether the top-level transaction's lease lapsed. A
// holder without a lease entry (state restored from a snapshot before
// refreshLeases, or leases toggled) is granted a fresh lease rather than
// treated as expired — expiry must only ever shorten availability, never
// invent an orphan.
func (s *dmServer) leaseExpired(t TxnID) bool {
	if s.leaseTTL <= 0 {
		return false
	}
	top := t.Top()
	deadline, ok := s.leases[top]
	if !ok {
		s.stampLease(top)
		return false
	}
	return s.clock.Now().After(deadline)
}

// refreshLeases stamps a fresh lease for every lock holder — called after
// recovery, where lease wall-clock stamps from the previous incarnation
// are meaningless. Fresh stamps only delay reaping, which is always safe.
func (s *dmServer) refreshLeases() {
	if s.leaseTTL <= 0 {
		return
	}
	for _, r := range s.Replicas {
		for holder := range r.Locks {
			s.stampLease(holder)
		}
	}
}

// noteConflict runs on every refused lock request: if any conflicting
// holder's lease lapsed, its client may be gone — start (or refresh) a
// resolution inquiry for it. Lazy detection keeps the reaper off the
// clock: orphans are hunted exactly when they are in somebody's way — and
// by the anti-entropy sweeper's inspections during idle ticks, which pass
// no requester and so sweep every holder on the inspected replica.
func (s *dmServer) noteConflict(r *replica, requester TxnID) {
	if s.leaseTTL <= 0 {
		return
	}
	reqTop := requester.Top()
	for holder := range r.Locks {
		if holder.Top() != reqTop && s.leaseExpired(holder) {
			s.maybeStartInquiry(holder.Top())
		}
	}
}

// maybeStartInquiry polls the peers for a resolution of top, unless one is
// already in flight and still fresh. With no peers (single-replica
// clusters) nobody else could hold a commit record, so the presumed abort
// is immediate.
func (s *dmServer) maybeStartInquiry(top TxnID) {
	if s.Resolved[top] != nil {
		return
	}
	if acc := s.Acceptors[top]; acc != nil {
		// Acceptor state lives here: the outcome may already be decided at a
		// majority of the cohort, so consult the acceptors (Paxos recovery)
		// instead of polling for commit records — a poll's all-unknown
		// verdict would presume abort over a possibly-decided commit.
		s.startPaxosRecovery(top, acc.Cohort)
		return
	}
	now := s.clock.Now()
	if inq := s.inquiries[top]; inq != nil {
		if now.Sub(inq.started) < s.leaseTTL {
			return
		}
		// Stale: some answers never arrived (lost, peer down). Re-poll the
		// peers still owing one.
		inq.started = now
		remaining := make([]string, 0, len(inq.waiting))
		for p := range inq.waiting {
			remaining = append(remaining, p)
		}
		sort.Strings(remaining)
		s.pollPeers(top, remaining)
		return
	}
	if s.stats != nil {
		s.stats.ResolutionQueries.Inc()
	}
	if len(s.peers) == 0 {
		s.reap(top, false, nil)
		return
	}
	inq := &inquiry{started: now, waiting: map[string]bool{}}
	for _, p := range s.peers {
		inq.waiting[p] = true
	}
	s.inquiries[top] = inq
	s.pollPeers(top, s.peers)
}

func (s *dmServer) pollPeers(top TxnID, peers []string) {
	for _, p := range peers {
		s.notifyPeer(p, ResolutionQueryReq{Txn: top, From: s.id})
	}
}

// reap routes the reaper's verdict on an orphan into the state machine (and
// the host's log, when it keeps one) and counts it. The counters live here,
// at the decision site, so log replay of an old decision does not
// double-count.
func (s *dmServer) reap(top TxnID, commit bool, subs []TxnID) {
	if s.stats != nil {
		if commit {
			s.stats.OrphanReapsCommitted.Inc()
		} else {
			s.stats.OrphanReapsAborted.Inc()
		}
	}
	s.applyLogged(DecisionReq{Txn: top, Commit: commit, Subs: subs})
}

// coordinate handles the lease-coordination messages that never touch the
// replicated state machine directly: renewals, resolution queries, and
// resolution answers. It reports handled=false for everything else. Kept
// out of apply so the WAL/replay path never sees clock reads or peer
// sends — the reap decisions coordinate produces enter the state machine
// through applyLogged as DecisionReqs, which ARE logged and replayed.
func (s *dmServer) coordinate(req any) (resp any, handled bool) {
	switch q := req.(type) {
	case RenewLeaseReq:
		top := q.Txn.Top()
		if s.Resolved[top] != nil {
			return Ack{OK: false}, true
		}
		if s.leaseTTL > 0 && !s.knowsTxn(top) {
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
	case ResolutionQueryReq:
		ans := ResolutionAnswer{Txn: q.Txn, From: s.id}
		if res := s.Resolved[q.Txn]; res != nil {
			ans.Known, ans.Committed, ans.Subs = true, res.Committed, res.Subs
		} else {
			if s.leaseTTL > 0 {
				if deadline, ok := s.leases[q.Txn]; ok && s.clock.Now().Before(deadline) {
					// This DM's lease is live: the client renewed here recently,
					// so it is alive and the inquirer should extend grace
					// instead of reaping.
					ans.Active = true
				}
			}
			if acc := s.Acceptors[q.Txn]; acc != nil {
				// Paxos acceptor state here means the coordinator reached its
				// Phase 2a: the outcome may already be decided, so the inquirer
				// must run acceptor recovery over the cohort instead of
				// counting this DM toward a presumed abort.
				ans.Accepted = true
				ans.Cohort = acc.Cohort
			}
		}
		s.notifyPeer(q.From, ans)
		return Ack{OK: true}, true
	case ResolutionAnswer:
		inq := s.inquiries[q.Txn]
		if inq == nil || s.Resolved[q.Txn] != nil {
			return Ack{OK: true}, true
		}
		if q.Known {
			delete(s.inquiries, q.Txn)
			s.reap(q.Txn, q.Committed, q.Subs)
			return Ack{OK: true}, true
		}
		if q.Active {
			delete(s.inquiries, q.Txn)
			s.stampLease(q.Txn)
			return Ack{OK: true}, true
		}
		if q.Accepted {
			// An acceptor somewhere heard Phase 2a: the presumed abort is off
			// the table (the decision may exist at a majority we cannot see
			// from here). Switch this inquiry to acceptor recovery.
			delete(s.inquiries, q.Txn)
			s.startPaxosRecovery(q.Txn, q.Cohort)
			return Ack{OK: true}, true
		}
		delete(inq.waiting, q.From)
		if len(inq.waiting) > 0 {
			return Ack{OK: true}, true
		}
		delete(s.inquiries, q.Txn)
		// Every peer answered "unknown". Re-check the lease: a renewal may
		// have landed here mid-inquiry, proving the client alive.
		if s.leaseExpired(q.Txn) {
			s.reap(q.Txn, false, nil)
		}
		return Ack{OK: true}, true
	}
	// Rebuild pulls are read-only state exports — nothing to log.
	if resp, handled := s.coordinateRebuild(req); handled {
		return resp, handled
	}
	// Acceptor recovery (Paxos Commit): the recovery rounds are soft-state
	// coordination like inquiries; the promises, acceptances and decisions
	// they produce enter the state machine as logged requests (paxos.go).
	if resp, handled := s.coordinatePaxos(req); handled {
		return resp, handled
	}
	// Hint grants and write fences are coordination too: soft state, never
	// logged, never replayed (hint.go).
	if resp, handled := s.coordinateHints(req); handled {
		return resp, handled
	}
	// Ring gossip last: also soft state (dm.go ring field).
	return s.coordinateRing(req)
}

// coordinateRing serves the placement-ring gossip protocol. Ring state at
// a replica is advisory — the data path's generation chase and WrongShard
// redirects are the authority — so none of this is logged or replayed.
func (s *dmServer) coordinateRing(req any) (resp any, handled bool) {
	switch q := req.(type) {
	case RingReq:
		if s.ring == nil {
			return RingResp{}, true
		}
		return RingResp{OK: true, Ring: *s.ring.Clone()}, true
	case RingUpdateReq:
		if s.ring != nil {
			r := q.Ring
			s.ring.Adopt(&r)
		}
		return Ack{OK: true}, true
	}
	return nil, false
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
	st := t.store.opts
	if st.leaseTTL <= 0 {
		return nil
	}
	t.mu.Lock()
	stamp := t.leaseStamp
	t.mu.Unlock()
	if t.store.now().Sub(stamp) < st.leaseTTL/2 {
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
	errs := make([]error, len(dms))
	var wg sync.WaitGroup
	for i, dm := range dms {
		wg.Add(1)
		go func(i int, dm string) {
			defer wg.Done()
			raw, err := t.store.callDM(ctx, dm, RenewLeaseReq{Txn: t.id})
			if err != nil {
				errs[i] = err
				return
			}
			if ack, ok := raw.(Ack); !ok || !ack.OK {
				errs[i] = ErrLeaseExpired
			}
		}(i, dm)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
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
	interval := s.opts.leaseTTL / 3
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
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

// PlantOrphan simulates a client that crashed while holding write locks:
// it grabs a write-quorum's worth of write locks (with a buffered
// intention) on item under a transaction id nobody will ever resolve, and
// returns that id. The locks wedge the item until the lease reaper
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
