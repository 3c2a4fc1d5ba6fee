package cluster

import (
	"maps"
	"slices"
	"time"

	"repro/internal/commit"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/transport"
)

// replica is one DM's state for one item: the committed versioned value and
// configuration, the Moss lock table, and the ordered intention list of
// uncommitted writes. Like intent and resolution it is declared once, with
// exported fields: the state machine runs on these types, a snapshot is
// their wire encoding, and a rebuild pull carries them (locks and intentions
// left out).
type replica struct {
	VN  int
	Val any
	Gen int
	Cfg quorum.Config

	// Locks is the Moss lock table. Released holds the phase tombstones:
	// the highest phase Seq each transaction retracted here, which outlive
	// the lock so late copies of the phase cannot re-grant. Both, and
	// Intents, are allocated on first use and nil again once empty.
	Locks    map[TxnID]lock
	Released map[TxnID]int
	Intents  []intent
}

// lock is one transaction's lock on one replica. Born is the phase Seq that
// created it and Last the highest Seq that granted it (both 0 when the
// grants carried no Seq); with the Released tombstones they decide whether
// a ReleaseReq may free it.
type lock struct {
	Mode LockMode
	Born int
	Last int
}

// intent is a buffered (deferred) update owned by a transaction.
type intent struct {
	Owner    TxnID
	IsConfig bool
	VN       int
	Val      any
	Gen      int
	Cfg      quorum.Config
}

// resolution records the outcome of a finished top-level transaction. For
// commits it keeps the committed-subs list, so a resolver's probe can carry
// the full commit record on to a straggler that must apply the
// transaction's subtree consistently.
type resolution struct {
	Committed bool
	Subs      []TxnID
}

// dmState is the hard state of one DM: what the log makes durable, what a
// snapshot encodes, and what a rebuild pull exports.
type dmState struct {
	Replicas map[string]*replica

	// Moved marks items this DM retired after a live migration, keyed by
	// item name, each carrying the redirect to answer with. Installed
	// through apply (WAL-logged, replayed), because a recovered replica
	// serving a retired item's stale bytes would be a split brain.
	Moved map[string]WrongShardResp

	// Resolved remembers finished top-level transactions (committed or
	// aborted) so CommitTopReq is idempotent under client retries, so late
	// request copies from cancelled fan-outs cannot grant locks for a
	// transaction that no longer exists, and so a resolver's probe can be
	// answered authoritatively.
	Resolved map[TxnID]*resolution

	// Aborted remembers, per unresolved top-level transaction, the
	// subtransactions an AbortReq discarded here, so a late or duplicated
	// copy of a dead subtree's access is refused instead of granted again —
	// drop sweeps the subtree's tombstones with its locks, and Resolved holds
	// top-level ids only. Logged with the AbortReq that names the id, left
	// out of a rebuild pull as locks are, and dropped when the top level
	// resolves.
	Aborted map[TxnID][]TxnID

	// Acceptors is the per-transaction Paxos Commit acceptor state
	// (DESIGN.md §11): WAL-logged through PaxosAcceptReq/PaxosPrepareReq, so
	// a majority of acceptors can reconstruct a commit decision after any
	// single failure — including this replica's own amnesia crash.
	Acceptors map[TxnID]*commit.Acceptor
}

// dmServer is the handler state of one DM node: the hard state plus the soft
// state around it. It runs under the server actor discipline: the handler is
// invoked on a single goroutine, so no locking is needed. It only answers:
// nothing here reaches a transport or a log — the host logs what apply
// reports as mutating.
type dmServer struct {
	id string
	dmState

	// touched indexes the replicas by transaction: top-level id → the items
	// on which its tree has (or had) a lock, release tombstone or intention
	// here, so resolving a transaction visits the items it touched, not
	// every item hosted. Derived state — never logged or snapshotted,
	// rebuilt by reindex — and an entry lives exactly until its top-level
	// transaction resolves.
	touched map[TxnID]map[string]struct{}

	// ring is this replica's view of the placement ring, nil when the
	// deployment is unsharded. Soft state (gossip for routers): never
	// logged, never replayed, rebuilt from serve flags after amnesia.
	ring *shard.Ring

	// Resolved-record retention (DESIGN.md §12). resolvedLog remembers
	// resolution order; once it exceeds resolvedCap, the oldest records are
	// compacted to outcome tombstones — the committed/aborted verdict stays
	// forever (idempotency and settle probes need it), only the committed-
	// subs payload is dropped. Zero cap retains everything (standalone DMs,
	// replay — configure runs only after recovery replay, so replay itself
	// never compacts).
	resolvedCap int
	resolvedLog []TxnID

	// Lease machinery (soft state: never snapshotted — recovery replaces
	// whatever replay stamped with fresh leases, which only delays reaping).
	clock  transport.Clock
	stats  *Stats // shared with the owning Store; nil for standalone DMs
	leases map[TxnID]time.Time
}

// emptyState is the hard state of a DM that hosts nothing, every table
// allocated.
func emptyState() dmState { return dmState{}.allocated() }

// allocated returns st with each nil table replaced by an empty map: the
// codec decodes an empty table as nil.
func (st dmState) allocated() dmState {
	st.Replicas, st.Moved, st.Resolved = grow(st.Replicas), grow(st.Moved), grow(st.Resolved)
	st.Aborted, st.Acceptors = grow(st.Aborted), grow(st.Acceptors)
	return st
}

// newDMState builds the state machine of a DM hosting the given items,
// each at its initial value and configuration.
func newDMState(id string, items []ItemSpec) *dmServer {
	s := &dmServer{
		id:      id,
		dmState: emptyState(),
		clock:   transport.Wall,
		leases:  map[TxnID]time.Time{},
	}
	for _, it := range items {
		s.Replicas[it.Name] = &replica{Val: it.Initial, Cfg: it.Config.Clone()}
	}
	return s
}

// configure arms the state machine for service from the host's settings:
// the clock its lock leases expire against, the resolved-record
// retention cap, and the initial placement-ring view (a deep copy). It runs
// after recovery replay and before the endpoint exists, so replay sees none
// of it: replayed resolutions are never compacted (the replayed state can
// only carry MORE information than the pre-crash one, which is safe), and
// the ring a rebuilt replica gossips is the one from its serve flags — ring
// state is never logged at all.
func (s *dmServer) configure(st settings, stats *Stats) {
	s.clock, s.stats = st.clock, stats
	s.resolvedCap = defaultResolvedRetention
	if st.ring != nil {
		s.ring = st.ring.Clone()
	}
}

// touch records that t's tree now has state on item's replica.
func (s *dmServer) touch(t TxnID, item string) {
	top := t.Top()
	if s.touched[top] == nil {
		if s.touched == nil {
			s.touched = map[TxnID]map[string]struct{}{}
		}
		s.touched[top] = map[string]struct{}{}
	}
	s.touched[top][item] = struct{}{}
}

// reindex rebuilds touched from the replicas (after a snapshot restore).
func (s *dmServer) reindex() {
	s.touched = nil
	for item, r := range s.Replicas {
		for t := range r.Locks {
			s.touch(t, item)
		}
		for t := range r.Released {
			s.touch(t, item)
		}
		for _, in := range r.Intents {
			s.touch(in.Owner, item)
		}
	}
}

// eachTouched calls fn on every hosted replica t's tree has touched.
func (s *dmServer) eachTouched(t TxnID, fn func(r *replica)) {
	for item := range s.touched[t.Top()] {
		if r := s.Replicas[item]; r != nil {
			fn(r)
		}
	}
}

// holdsTxn reports whether top's tree still owns a lock or an intention at
// any hosted replica (a touched replica may have shed them since).
func (s *dmServer) holdsTxn(top TxnID) (holds bool) {
	s.eachTouched(top, func(r *replica) {
		for holder := range r.Locks {
			holds = holds || holder.Top() == top
		}
		for _, in := range r.Intents {
			holds = holds || in.Owner.Top() == top
		}
	})
	return holds
}

// resolve is the one way a top-level transaction's outcome is installed,
// whoever sends it — the client's CommitTopReq or AbortReq, or the
// DecisionReq of a client its locks were blocking. The first verdict stands:
// a transaction already resolved is left as it is and acknowledged only when
// the verdicts agree, so a commit can never land on a reaped abort nor an
// abort on a commit, and a duplicate is not logged twice.
//
// A commit folds top's intentions, and those of the committed
// subtransactions subs, into the committed state of every replica it
// touched and releases its locks; an abort drops the whole subtree —
// every descendant holds its state under its own id, within drop's ancestor
// sweep.
func (s *dmServer) resolve(top TxnID, commit bool, subs []TxnID) (Ack, bool) {
	if res := s.Resolved[top]; res != nil {
		return Ack{OK: res.Committed == commit}, false
	}
	if !commit {
		subs = nil
	}
	s.markResolved(top, commit, subs)
	committed := make(map[TxnID]bool, len(subs))
	for _, sub := range subs {
		committed[sub] = true
	}
	s.eachTouched(top, func(r *replica) {
		if !commit {
			r.drop(top)
			return
		}
		r.applyTop(top, committed)
	})
	delete(s.touched, top)
	delete(s.Aborted, top)
	return Ack{OK: true}, true
}

// abortSub discards subtransaction t's subtree everywhere it touched and
// remembers the id until the top level resolves. Once it has, there is
// nothing left to discard or to refuse, and nothing to log.
func (s *dmServer) abortSub(t TxnID) (Ack, bool) {
	top := t.Top()
	if s.Resolved[top] != nil {
		return Ack{OK: true}, false
	}
	if !slices.Contains(s.Aborted[top], t) {
		s.Aborted[top] = append(s.Aborted[top], t)
	}
	s.eachTouched(t, func(r *replica) { r.drop(t) })
	return Ack{OK: true}, true
}

// acquire is the grant prelude every access shares: the moved marker, the
// hosted replica, the refusals (a resolved transaction, one with an aborted
// ancestor, or a phase already released here, is granted nothing), then
// Moss's rule with the requester's inherit list. On a grant it records the
// lock and its phase, indexes the item under the transaction and stamps its
// lease, and returns the replica with whether the transaction already held
// a lock there. Otherwise r is nil and refusal is the answer: the redirect,
// or refuse(busy, orphans) — the caller's reply type, Busy after a lock
// conflict, naming the holders whose lease lapsed. A lockNone access passes
// every refusal a read lock would and then records nothing: no lock, index
// entry or lease.
func (s *dmServer) acquire(t TxnID, inherit []TxnID, item string, m LockMode, seq int, refuse func(busy bool, orphans []TxnID) any) (r *replica, held bool, refusal any) {
	if w, ok := s.Moved[item]; ok {
		return nil, false, w
	}
	r, top := s.Replicas[item], t.Top()
	// Only subtransactions are remembered: a top-level requester skips the
	// lookup.
	dead := t != top && slices.ContainsFunc(s.Aborted[top], func(a TxnID) bool { return a.IsAncestorOf(t) })
	if r == nil || s.Resolved[top] != nil || dead || (seq != 0 && seq <= r.Released[t]) {
		return nil, false, refuse(false, nil)
	}
	if !r.canLock(t, inherit, m) {
		return nil, false, refuse(true, s.expiredHolders(r, t))
	}
	if m == lockNone {
		return r, false, nil
	}
	held = r.grant(t, m, seq)
	s.touch(t, item)
	s.stampLease(t)
	return r, held, nil
}

// write is the write arm of acquire: a write lock, then the intention,
// unless the transaction already buffered this exact logical write (hedged
// duplicate requests install a single intention).
func (s *dmServer) write(item string, seq int, inherit []TxnID, in intent) (any, bool) {
	r, held, refusal := s.acquire(in.Owner, inherit, item, LockWrite, seq, func(busy bool, orphans []TxnID) any { return WriteResp{Busy: busy, Orphans: orphans} })
	if r == nil {
		return refusal, false
	}
	same := func(have intent) bool {
		return have.Owner == in.Owner && have.IsConfig == in.IsConfig && have.VN == in.VN && have.Gen == in.Gen
	}
	if !slices.ContainsFunc(r.Intents, same) {
		r.Intents = append(r.Intents, in)
	}
	return WriteResp{OK: true, Held: held}, true
}

// inherits reports whether state owned by holder is t's to use under Moss's
// inheritance rule: holder is an ancestor of t (or t itself), or one of the
// committed descendants of t's ancestors the coordinator listed — whose
// locks and versions an ancestor of t has inherited, a fact about the
// transaction tree only the coordinator holds. Nothing here is re-owned:
// the listed transaction keeps its state under its own id until the top
// level resolves. A listed id of another top-level tree inherits nothing.
func inherits(t TxnID, inherit []TxnID, holder TxnID) bool {
	return holder.IsAncestorOf(t) || (slices.Contains(inherit, holder) && holder.Top() == t.Top())
}

// canLock applies Moss's rule: a conflicting lock may be held only by
// transactions whose locks the requester's ancestors hold or inherited.
func (r *replica) canLock(t TxnID, inherit []TxnID, m LockMode) bool {
	for holder, l := range r.Locks {
		if (m == LockWrite || l.Mode == LockWrite) && !inherits(t, inherit, holder) {
			return false
		}
	}
	return true
}

// grant records t's lock, upgrading it if needed, and — when the request
// carried a phase Seq — which phase granted and, when fresh, created it. It
// reports whether t already held a lock here.
func (r *replica) grant(t TxnID, m LockMode, seq int) (held bool) {
	l, held := r.Locks[t]
	l.Mode = max(l.Mode, m)
	if seq != 0 {
		l.Last = max(l.Last, seq)
		if !held {
			l.Born = seq
		}
	}
	if r.Locks == nil {
		r.Locks = map[TxnID]lock{}
	}
	r.Locks[t] = l
	return held
}

// release processes a ReleaseReq: tombstone the phase, then free the lock
// only if this very phase created it, no later phase re-granted it, and no
// buffered intention of the transaction depends on it.
func (r *replica) release(t TxnID, seq int) {
	if r.Released == nil {
		r.Released = map[TxnID]int{}
	}
	r.Released[t] = max(r.Released[t], seq)
	owns := func(in intent) bool { return in.Owner == t }
	if l, held := r.Locks[t]; held && l.Born == seq && l.Last <= seq && !slices.ContainsFunc(r.Intents, owns) {
		delete(r.Locks, t)
		r.Locks = shrink(r.Locks)
	}
}

// shrink returns an emptied table to nil: tables are allocated on first use
// and dropped on last, so the live state is the one a snapshot restores.
func shrink[M ~map[K]V, K comparable, V any](m M) M {
	if len(m) == 0 {
		return nil
	}
	return m
}

// grow is shrink's inverse, for the tables that are always allocated.
func grow[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return M{}
	}
	return m
}

// view folds the intentions visible to t (those owned by t, its ancestors,
// or the committed descendants they inherited) over the committed state,
// yielding the state t must read.
func (r *replica) view(t TxnID, inherit []TxnID) (vn int, val any, gen int, cfg quorum.Config) {
	vn, val, gen, cfg = r.VN, r.Val, r.Gen, r.Cfg
	for _, in := range r.Intents {
		if !inherits(t, inherit, in.Owner) {
			continue
		}
		if in.IsConfig {
			gen, cfg = in.Gen, in.Cfg
		} else {
			vn, val = in.VN, in.Val
		}
	}
	return vn, val, gen, cfg
}

// drop removes every lock, tombstone and intention owned by t or its
// descendants.
func (r *replica) drop(t TxnID) {
	maps.DeleteFunc(r.Locks, func(holder TxnID, _ lock) bool { return t.IsAncestorOf(holder) })
	maps.DeleteFunc(r.Released, func(holder TxnID, _ int) bool { return t.IsAncestorOf(holder) })
	r.Locks, r.Released = shrink(r.Locks), shrink(r.Released)
	r.Intents = slices.DeleteFunc(r.Intents, func(in intent) bool { return t.IsAncestorOf(in.Owner) })
	if len(r.Intents) == 0 {
		r.Intents = nil // as a restored replica's is: a snapshot round trip is the identity
	}
}

// applyTop folds t's intentions into the committed state and releases its
// locks. committed names the committed subtransactions of t's tree: their
// intentions, kept under their own ids, are committed state too and are
// applied; any other descendant's are discarded. Intentions fold in
// arrival order, which per item is write order: a later write is only
// issued after the earlier one's quorum acked, and tombstones refuse
// late duplicate copies.
func (r *replica) applyTop(t TxnID, committed map[TxnID]bool) {
	for _, in := range r.Intents {
		switch {
		case in.Owner != t && !committed[in.Owner]:
		case in.IsConfig:
			r.Gen, r.Cfg = in.Gen, in.Cfg
		default:
			r.VN, r.Val = in.VN, in.Val
		}
	}
	r.drop(t)
}

// markResolved records top's verdict — reached only through resolve — and
// retires the soft and acceptor state that existed to reach it.
func (s *dmServer) markResolved(t TxnID, committed bool, subs []TxnID) {
	s.Resolved[t] = &resolution{Committed: committed, Subs: subs}
	if s.resolvedCap > 0 {
		// Retention: past the cap, the oldest records shed their subs
		// payload but keep the verdict — a tombstone still refuses late
		// commits, still answers resolvers' and settle probes.
		s.resolvedLog = append(s.resolvedLog, t)
		for len(s.resolvedLog) > s.resolvedCap {
			if old := s.Resolved[s.resolvedLog[0]]; old != nil {
				old.Subs = nil
			}
			s.resolvedLog = s.resolvedLog[1:]
			if s.stats != nil {
				s.stats.ResolvedEvictions.Inc()
			}
		}
	}
	delete(s.leases, t)
	// A resolved transaction's Paxos instance is over: probes and proposers
	// are answered from the resolution record from here on, so the acceptor
	// state can be retired with it.
	delete(s.Acceptors, t)
}

// acceptor returns t's Paxos acceptor state, or a fresh one for the cohort
// when this is the instance's first contact here — the caller records it
// once a ballot is promised or accepted.
func (s *dmServer) acceptor(t TxnID, cohort []string) *commit.Acceptor {
	if acc := s.Acceptors[t]; acc != nil {
		return acc
	}
	return commit.NewAcceptor(slices.Clone(cohort))
}

// apply executes one request against the DM state machine and reports
// whether it mutated state the replica is answerable for after a restart —
// lock grants, intentions, tombstones, committed versions, resolutions.
// The host logs exactly the requests apply reports as mutating, in arrival
// order, and recovery replays them through this same function, so
// apply must stay deterministic: same state + same request → same state and
// response.
func (s *dmServer) apply(req any) (resp any, mutated bool) {
	switch q := req.(type) {
	case PingReq:
		// Inert by contract (see PingReq): no locks, no leases, no state.
		return Ack{OK: true}, false
	case ReadReq:
		r, held, refusal := s.acquire(q.Txn, q.Inherit, q.Item, q.Lock, q.Seq, func(busy bool, orphans []TxnID) any { return ReadResp{Busy: busy, Orphans: orphans} })
		if r == nil {
			return refusal, false
		}
		vn, val, gen, cfg := r.view(q.Txn, q.Inherit)
		if gen <= q.Gen {
			cfg = quorum.Config{} // no news to this reader
		}
		// A granted read mutates the lock table: the grant is a promise
		// two-phase locking depends on, so a restarted replica must still
		// remember it. A lockless read promised nothing and is not logged.
		return ReadResp{OK: true, Held: held, VN: vn, Val: val, Gen: gen, Cfg: cfg}, q.Lock != lockNone
	case WriteReq:
		return s.write(q.Item, q.Seq, q.Inherit, intent{Owner: q.Txn, VN: q.VN, Val: q.Val})
	case ConfigWriteReq:
		return s.write(q.Item, q.Seq, q.Inherit, intent{Owner: q.Txn, IsConfig: true, Gen: q.Gen, Cfg: q.Cfg.Clone()})
	case ReleaseReq:
		r := s.Replicas[q.Item]
		if r == nil || q.Seq == 0 || s.Resolved[q.Txn.Top()] != nil {
			// A resolved transaction is refused every grant already; a
			// tombstone for it would only outlive the resolution's sweep.
			return Ack{OK: true}, false
		}
		// Even a refused release installs the phase tombstone, which must
		// survive a restart or late request copies could re-grant.
		r.release(q.Txn, q.Seq)
		s.touch(q.Txn, q.Item)
		return Ack{OK: true}, true
	case InspectReq:
		r := s.Replicas[q.Item]
		if r == nil {
			return InspectResp{}, false
		}
		// An inspection doubles as an orphan hunt: no requester is exempt, so
		// Store.ResolveOrphans finds expired-lease holders even when no client
		// is conflicting with them.
		return InspectResp{
			OK: true, VN: r.VN, Val: r.Val, Gen: r.Gen, Cfg: r.Cfg.Clone(),
			Locks: len(r.Locks), Intents: len(r.Intents), Orphans: s.expiredHolders(r, ""),
		}, false
	case AbortReq:
		if q.Txn.Top() == q.Txn {
			return s.resolve(q.Txn, false, nil)
		}
		return s.abortSub(q.Txn)
	case CommitTopReq:
		// A transaction a resolver already presumed aborted must not
		// commit late — under the lease fence the client never reaches this
		// point, but resolve's refused ack keeps even a fence bypass from
		// silently diverging. Final is ignored (CommitTopReq).
		return s.resolve(q.Txn, true, q.Subs)
	case DecisionReq:
		return s.resolve(q.Txn.Top(), q.Commit, q.Subs)
	case AdoptItemReq:
		if _, hosts := s.Replicas[q.Item]; hosts {
			// Idempotent: a retried adopt round must not regress a replica
			// that may already hold copied state or live locks.
			return Ack{OK: true}, false
		}
		// Adoption supersedes any old moved marker: the item is coming back
		// to this DM (migrations can round-trip). The replica starts at
		// version 0 with an empty config — it becomes a read target only
		// through the migration's copy + committed cutover config record.
		delete(s.Moved, q.Item)
		s.Replicas[q.Item] = &replica{Val: q.Initial}
		return Ack{OK: true}, true
	case RetireItemReq:
		r := s.Replicas[q.Item]
		if r == nil {
			// Already retired (or never hosted): idempotent only when the
			// marker is present, refused otherwise so a misdirected retire
			// is visible.
			_, ok := s.Moved[q.Item]
			return Ack{OK: ok}, false
		}
		if len(r.Locks) > 0 || len(r.Intents) > 0 {
			// In-flight transactions finish against the old generation; the
			// coordinator retries retirement later (or leaves the replica —
			// the gen-chase redirects readers regardless).
			return Ack{OK: false}, false
		}
		delete(s.Replicas, q.Item)
		s.Moved[q.Item] = WrongShardResp{
			DM: s.id, Item: q.Item, Epoch: q.Epoch, Group: q.Group,
			DMs: slices.Clone(q.DMs), Gen: q.Gen, Cfg: q.Cfg.Clone(),
		}
		return Ack{OK: true}, true
	case PaxosAcceptReq:
		// Phase 2a: accept the proposed outcome unless a higher ballot was
		// promised. Ballot 0 is the coordinator's fast path (it skips
		// Phase 1); recovery proposers arrive with ballots >= 1.
		if res := s.Resolved[q.Txn]; res != nil {
			// Somebody already decided this instance — the caller adopts the
			// record instead of counting this as a vote.
			return PaxosAcceptResp{Decided: true, DecCommit: res.Committed, DecSubs: res.Subs}, false
		}
		acc := s.acceptor(q.Txn, q.Cohort)
		ok, mutated := acc.Accept(q.Ballot, commit.Decision{
			Commit: q.Commit, Subs: txnsToStrings(q.Subs),
		})
		if ok {
			s.Acceptors[q.Txn] = acc
		}
		return PaxosAcceptResp{OK: ok, Promised: acc.Promised}, mutated
	case PaxosPrepareReq:
		// Phase 1a: promise the ballot to its proposer and report the value
		// accepted so far. A resolved instance answers with its record
		// instead: the proposer adopts, it never re-proposes over a decision.
		if res := s.Resolved[q.Txn]; res != nil {
			return PaxosPrepareResp{Decided: true, DecCommit: res.Committed, DecSubs: res.Subs}, false
		}
		acc := s.acceptor(q.Txn, q.Cohort)
		ok, mutated := acc.Prepare(q.Ballot, q.Proposer)
		if ok {
			s.Acceptors[q.Txn] = acc
		}
		return PaxosPrepareResp{
			OK: ok, Promised: acc.Promised, AccBal: acc.AccBal, AccCommit: acc.AccVal.Commit,
			AccSubs: stringsToTxns(acc.AccVal.Subs),
		}, mutated
	default:
		return Ack{OK: false}, false
	}
}
