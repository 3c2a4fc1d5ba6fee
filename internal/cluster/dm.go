package cluster

import (
	"sync"
	"time"

	"repro/internal/commit"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/transport"
)

// replica is one DM's state for one item: the committed versioned value and
// configuration, the Moss lock table, and the ordered intention list of
// uncommitted writes.
type replica struct {
	vn  int
	val any
	gen int
	cfg quorum.Config

	locks   map[TxnID]LockMode
	intents []intent

	// lockSeqs is the highest phase Seq that granted each live lock and
	// lockBorn the Seq that created it; together with the released
	// tombstones they decide whether a ReleaseReq may free the lock.
	// Lazily allocated so zero-value replicas (tests) keep working.
	lockSeqs map[TxnID]int
	lockBorn map[TxnID]int
	released map[TxnID]int
}

// intent is a buffered (deferred) update owned by a transaction.
type intent struct {
	owner    TxnID
	isConfig bool
	vn       int
	val      any
	gen      int
	cfg      quorum.Config
}

// resolution records the outcome of a finished top-level transaction. For
// commits it keeps the committed-subs list, so a lease-resolution inquiry
// can re-serve the full commit record to a straggler that must apply the
// transaction's subtree consistently.
type resolution struct {
	committed bool
	subs      []TxnID
}

// dmServer is the handler state of one DM node. It runs under the server
// actor discipline: the handler is invoked on a single goroutine, so no
// locking is needed (the lease sender hook is the one documented
// exception).
type dmServer struct {
	id       string
	replicas map[string]*replica

	// touched indexes the replicas by transaction: top-level id → the items
	// on which its tree has (or had) a lock, phase record, release tombstone
	// or intention here, so resolving a transaction visits the items it
	// touched, not every item hosted. Derived state — never logged or
	// snapshotted, rebuilt by reindex — and an entry lives exactly until its
	// top-level transaction resolves.
	touched map[TxnID]map[string]struct{}

	// moved marks items this DM retired after a live migration, keyed by
	// item name, each carrying the redirect to answer with. Hard state:
	// installed through apply (WAL-logged, replayed), because a recovered
	// replica serving a retired item's stale bytes would be a split brain.
	moved map[string]WrongShardResp

	// ring is this replica's view of the placement ring, nil when the
	// deployment is unsharded. Soft state (gossip for routers): never
	// logged, never replayed, rebuilt from serve flags after amnesia.
	ring *shard.Ring

	// resolved remembers finished top-level transactions (committed or
	// aborted) so CommitTopReq is idempotent under client retries, so late
	// request copies from cancelled fan-outs cannot grant locks for a
	// transaction that no longer exists, and so lease-resolution inquiries
	// from peers can be answered authoritatively.
	resolved map[TxnID]*resolution

	// Resolved-record retention (DESIGN.md §12). resolvedLog remembers
	// resolution order; once it exceeds resolvedCap, the oldest records are
	// compacted to outcome tombstones — the committed/aborted verdict stays
	// forever (idempotency and settle probes need it), only the committed-
	// subs payload is dropped. Zero cap retains everything (standalone DMs,
	// replay — configureRetention runs only after recovery replay, so replay
	// itself never compacts).
	resolvedCap int
	resolvedLog []TxnID

	// Lease machinery (soft state: never snapshotted, never replayed —
	// recovery re-stamps fresh leases, which only delays reaping).
	leaseTTL  time.Duration
	clock     transport.Clock
	peers     []string // every other DM of the cluster, sorted
	stats     *Stats   // shared with the owning Store; nil for standalone DMs
	leases    map[TxnID]time.Time
	inquiries map[TxnID]*inquiry

	// Freshness-hint machinery (soft state like leases: never snapshotted,
	// never replayed — hintTTL is configured only after recovery replay, so
	// a rebuilt replica holds no hints until a commit or the sweeper
	// re-proves its freshness). Zero hintTTL disables the fast lane.
	hintTTL    time.Duration
	hints      map[string]itemHint
	hintFences map[string]hintFence

	// Paxos Commit state (DESIGN.md §11). acceptors is the per-transaction
	// acceptor hard state: WAL-logged through PaxosAcceptReq/PaxosPrepareReq
	// and carried in snapshots, so a majority of acceptors can reconstruct a
	// commit decision after any single failure — including this replica's
	// own amnesia crash. recoveries is the proposer side of acceptor
	// recovery: soft state like inquiries (a lost recovery round is simply
	// re-run when the next conflict finds the orphan still unresolved).
	acceptors  map[TxnID]*commit.Acceptor
	recoveries map[TxnID]*paxosRecovery

	// logThen, set by a host that keeps a log, makes one already-applied
	// mutating request durable and then runs done with the log's verdict
	// (nil once the record is stable). Nil on a volatile host's state
	// machine and on a bare one, which have nothing to log to. done is
	// captured on the loop goroutine but runs on the log's flusher: it only
	// sends, it never reads actor state.
	logThen func(req any, done func(error))

	// send delivers fire-and-forget protocol messages to peers. Guarded by
	// sendMu because the node that carries the messages is wired up after
	// the state machine is built.
	sendMu sync.Mutex
	send   func(to string, req any)
}

// inquiry tracks one in-flight resolution poll: which peers still owe an
// answer and when the poll started (stale polls are re-sent).
type inquiry struct {
	waiting map[string]bool
	started time.Time
}

// newDMState builds the state machine of a DM hosting the given items,
// each at its initial value and configuration.
func newDMState(id string, items []ItemSpec) *dmServer {
	s := &dmServer{
		id:         id,
		replicas:   map[string]*replica{},
		moved:      map[string]WrongShardResp{},
		resolved:   map[TxnID]*resolution{},
		clock:      transport.Wall,
		leases:     map[TxnID]time.Time{},
		inquiries:  map[TxnID]*inquiry{},
		acceptors:  map[TxnID]*commit.Acceptor{},
		recoveries: map[TxnID]*paxosRecovery{},
	}
	for _, it := range items {
		s.replicas[it.Name] = &replica{
			val:   it.Initial,
			cfg:   it.Config.Clone(),
			locks: map[TxnID]LockMode{},
		}
	}
	return s
}

// configureLeases arms the lease reaper: grants stamp leases of ttl, and
// conflicts with expired-lease holders trigger resolution inquiries to
// peers. Must be called before the server's node starts.
func (s *dmServer) configureLeases(ttl time.Duration, clock transport.Clock, peers []string, stats *Stats) {
	s.leaseTTL = ttl
	if clock != nil {
		s.clock = clock
	}
	s.peers = peers
	s.stats = stats
}

// configureRing hands the replica its initial placement-ring view (a deep
// copy). Like hint configuration it runs after recovery replay, so the
// ring a rebuilt replica gossips is the one from its serve flags, not a
// stale logged one — ring state is never logged at all.
func (s *dmServer) configureRing(r *shard.Ring) {
	if r != nil {
		s.ring = r.Clone()
	}
}

// configureRetention arms the resolved-record retention cap. Like the lease
// configuration it must run after recovery replay and before the server's
// node starts: replayed resolutions are never compacted (the replayed state
// can only carry MORE information than the pre-crash one, which is safe),
// new ones join the eviction log.
func (s *dmServer) configureRetention(n int) {
	if n > 0 {
		s.resolvedCap = n
	}
}

// setSender installs the peer-message transport.
func (s *dmServer) setSender(fn func(to string, req any)) {
	s.sendMu.Lock()
	s.send = fn
	s.sendMu.Unlock()
}

func (s *dmServer) notifyPeer(to string, req any) {
	s.sendMu.Lock()
	fn := s.send
	s.sendMu.Unlock()
	if fn != nil {
		fn(to, req)
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
	for item, r := range s.replicas {
		for _, holders := range []map[TxnID]int{r.lockSeqs, r.lockBorn, r.released} {
			for t := range holders {
				s.touch(t, item)
			}
		}
		for t := range r.locks {
			s.touch(t, item)
		}
		for _, in := range r.intents {
			s.touch(in.owner, item)
		}
	}
}

// eachTouched calls fn on every hosted replica t's tree has touched.
func (s *dmServer) eachTouched(t TxnID, fn func(item string, r *replica)) {
	for item := range s.touched[t.Top()] {
		if r := s.replicas[item]; r != nil {
			fn(item, r)
		}
	}
}

// holdsTxn reports whether top's tree still owns a lock or an intention at
// any hosted replica (a touched replica may have shed them since).
func (s *dmServer) holdsTxn(top TxnID) (holds bool) {
	s.eachTouched(top, func(_ string, r *replica) {
		for holder := range r.locks {
			holds = holds || holder.Top() == top
		}
		for _, in := range r.intents {
			holds = holds || in.owner.Top() == top
		}
	})
	return holds
}

// commitTop resolves top as committed: its intentions, and those of the
// committed subtransactions subs, fold into the committed state of every
// replica it touched and its locks are released. The commit doubles as a
// freshness proof ONLY for replicas whose post-apply version is the
// transaction's final one for the item (final is nil when the caller
// cannot know it: no hints then; and a replica the transaction never
// touched cannot hold a version only it wrote, so visiting the touched
// ones misses no grant). Merely having advanced is not enough: a
// transaction that wrote the item twice through different write quorums
// leaves its earlier version at replicas the later quorum never touched —
// they advance, but to a version that is already superseded cluster-wide.
func (s *dmServer) commitTop(top TxnID, subs []TxnID, final map[string]int) {
	s.markResolved(top, true, subs)
	committed := make(map[TxnID]bool, len(subs))
	for _, sub := range subs {
		committed[sub] = true
	}
	s.eachTouched(top, func(item string, r *replica) {
		r.applyTop(top, committed)
		if fin, ok := final[item]; ok && r.vn == fin {
			s.grantHint(item, r, top)
		}
	})
	delete(s.touched, top)
}

// abortTop resolves top as aborted and drops its whole subtree —
// descendants a promote already folded into the parent fall with it, and
// descendants still under their own ids are covered by drop's ancestor
// sweep.
func (s *dmServer) abortTop(top TxnID) {
	s.markResolved(top, false, nil)
	s.eachTouched(top, func(_ string, r *replica) { r.drop(top) })
	delete(s.touched, top)
}

// canLock applies Moss's rule: a conflicting lock may be held only by
// ancestors of the requester.
func (r *replica) canLock(t TxnID, m LockMode) bool {
	for holder, hm := range r.locks {
		if holder == t {
			continue
		}
		if (m == LockWrite || hm == LockWrite) && !holder.IsAncestorOf(t) {
			return false
		}
	}
	return true
}

// grant records the lock, upgrading if needed.
func (r *replica) grant(t TxnID, m LockMode) {
	if r.locks[t] < m {
		r.locks[t] = m
	}
}

// noteGrant records which phase granted (and, when fresh, created) the
// transaction's lock, for the release guards.
func (r *replica) noteGrant(t TxnID, seq int, held bool) {
	if seq == 0 {
		return
	}
	if r.lockSeqs == nil {
		r.lockSeqs = map[TxnID]int{}
	}
	if r.lockSeqs[t] < seq {
		r.lockSeqs[t] = seq
	}
	if !held {
		if r.lockBorn == nil {
			r.lockBorn = map[TxnID]int{}
		}
		r.lockBorn[t] = seq
	}
}

// tombstoned reports whether phase seq of t was already released here, in
// which case a (late) request copy from that phase must not grant.
func (r *replica) tombstoned(t TxnID, seq int) bool {
	return seq != 0 && seq <= r.released[t]
}

// release processes a ReleaseReq: tombstone the phase, then free the lock
// only if this very phase created it, no later phase re-granted it, and no
// buffered intention of the transaction depends on it. Reports whether the
// lock was freed.
func (r *replica) release(t TxnID, seq int) bool {
	if seq == 0 {
		return false
	}
	if r.released == nil {
		r.released = map[TxnID]int{}
	}
	if r.released[t] < seq {
		r.released[t] = seq
	}
	if _, held := r.locks[t]; !held {
		return false
	}
	if r.lockBorn[t] != seq || r.lockSeqs[t] > seq || r.ownsIntent(t) {
		return false
	}
	delete(r.locks, t)
	delete(r.lockSeqs, t)
	delete(r.lockBorn, t)
	return true
}

// ownsIntent reports whether t owns a buffered intention on this replica.
func (r *replica) ownsIntent(t TxnID) bool {
	for _, in := range r.intents {
		if in.owner == t {
			return true
		}
	}
	return false
}

// hasIntentCopy reports whether t already buffered this exact logical
// write, so hedged duplicate requests install a single intention.
func (r *replica) hasIntentCopy(t TxnID, isConfig bool, vn, gen int) bool {
	for _, in := range r.intents {
		if in.owner != t || in.isConfig != isConfig {
			continue
		}
		if isConfig && in.gen == gen {
			return true
		}
		if !isConfig && in.vn == vn {
			return true
		}
	}
	return false
}

// view folds the intentions visible to t (those owned by t or its
// ancestors) over the committed state, yielding the state t must read.
func (r *replica) view(t TxnID) (vn int, val any, gen int, cfg quorum.Config) {
	vn, val, gen, cfg = r.vn, r.val, r.gen, r.cfg
	for _, in := range r.intents {
		if !in.owner.IsAncestorOf(t) {
			continue
		}
		if in.isConfig {
			gen, cfg = in.gen, in.cfg
		} else {
			vn, val = in.vn, in.val
		}
	}
	return vn, val, gen, cfg
}

// promote hands t's locks and intentions to its parent. The release
// tombstones stay behind: t's phases are over, and late copies of them
// must still be refused.
func (r *replica) promote(t TxnID) {
	parent, ok := t.Parent()
	if m, held := r.locks[t]; held {
		delete(r.locks, t)
		delete(r.lockSeqs, t)
		delete(r.lockBorn, t)
		if ok {
			if r.locks[parent] < m {
				r.locks[parent] = m
			}
		}
	}
	if ok {
		for i := range r.intents {
			if r.intents[i].owner == t {
				r.intents[i].owner = parent
			}
		}
	}
}

// drop removes every lock, intention, and phase record owned by t or its
// descendants.
func (r *replica) drop(t TxnID) {
	for holder := range r.locks {
		if t.IsAncestorOf(holder) {
			delete(r.locks, holder)
		}
	}
	for holder := range r.lockSeqs {
		if t.IsAncestorOf(holder) {
			delete(r.lockSeqs, holder)
		}
	}
	for holder := range r.lockBorn {
		if t.IsAncestorOf(holder) {
			delete(r.lockBorn, holder)
		}
	}
	for holder := range r.released {
		if t.IsAncestorOf(holder) {
			delete(r.released, holder)
		}
	}
	kept := r.intents[:0]
	for _, in := range r.intents {
		if !t.IsAncestorOf(in.owner) {
			kept = append(kept, in)
		}
	}
	r.intents = kept
}

// applyTop folds t's intentions into the committed state and releases its
// locks. committed names the committed subtransactions of t's tree: an
// intention still owned by one of them (its promote never arrived here)
// is committed state too and is applied, not discarded. Intentions fold
// in arrival order, which per item is write order: a later write is only
// issued after the earlier one's quorum acked, and tombstones refuse
// late duplicate copies.
func (r *replica) applyTop(t TxnID, committed map[TxnID]bool) {
	kept := r.intents[:0]
	for _, in := range r.intents {
		if in.owner != t && !committed[in.owner] {
			kept = append(kept, in)
			continue
		}
		if in.isConfig {
			r.gen, r.cfg = in.gen, in.cfg
		} else {
			r.vn, r.val = in.vn, in.val
		}
	}
	r.intents = kept
	r.drop(t)
}

// txnResolved reports whether the request's top-level transaction already
// committed or aborted, in which case no new lock may be granted to it.
func (s *dmServer) txnResolved(t TxnID) bool {
	return s.resolved[t.Top()] != nil
}

func (s *dmServer) markResolved(t TxnID, committed bool, subs []TxnID) {
	if s.resolved == nil {
		s.resolved = map[TxnID]*resolution{}
	}
	_, existed := s.resolved[t]
	s.resolved[t] = &resolution{committed: committed, subs: subs}
	if !existed && s.resolvedCap > 0 {
		// Retention: past the cap, the oldest records shed their subs
		// payload but keep the verdict — a tombstone still refuses late
		// commits, still answers inquiries and settle probes. Re-resolving
		// an already-resolved id (duplicate aborts) never re-logs it.
		s.resolvedLog = append(s.resolvedLog, t)
		for len(s.resolvedLog) > s.resolvedCap {
			old := s.resolvedLog[0]
			s.resolvedLog = s.resolvedLog[1:]
			if res := s.resolved[old]; res != nil && res.subs != nil {
				res.subs = nil
			}
			if s.stats != nil {
				s.stats.ResolvedEvictions.Inc()
			}
		}
	}
	if s.leases != nil {
		delete(s.leases, t)
	}
	if s.inquiries != nil {
		delete(s.inquiries, t)
	}
	// A resolved transaction's Paxos instance is over: queries answer from
	// the resolution record from here on, so the acceptor state (and any
	// in-flight recovery round of ours) can be retired with it.
	if s.acceptors != nil {
		delete(s.acceptors, t)
	}
	if s.recoveries != nil {
		delete(s.recoveries, t)
	}
}

// applyLogged routes a decision this DM reached itself — a reap, a Paxos
// outcome — through the same apply-then-log path as a client's request,
// minus the reply: there is no caller to acknowledge. It runs on the loop
// goroutine (coordinate calls it), so the log keeps its single writer. A
// decision whose record is lost to a crash before the flush is simply
// re-decided after recovery: the restored locks get fresh leases, lapse
// again, and the inquiry re-runs.
func (s *dmServer) applyLogged(req any) {
	if _, mutated := s.apply(req); mutated && s.logThen != nil {
		s.logThen(req, func(error) {})
	}
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
		_ = q
		return Ack{OK: true}, false
	case ReadReq:
		if w, ok := s.moved[q.Item]; ok {
			return w, false
		}
		r := s.replicas[q.Item]
		if r == nil {
			return ReadResp{}, false
		}
		if s.txnResolved(q.Txn) || r.tombstoned(q.Txn, q.Seq) {
			return ReadResp{}, false
		}
		if !r.canLock(q.Txn, q.Lock) {
			s.noteConflict(r, q.Txn)
			return ReadResp{Busy: true}, false
		}
		_, held := r.locks[q.Txn]
		r.grant(q.Txn, q.Lock)
		r.noteGrant(q.Txn, q.Seq, held)
		s.touch(q.Txn, q.Item)
		s.stampLease(q.Txn)
		vn, val, gen, cfg := r.view(q.Txn)
		// A granted read mutates the lock table: the grant is a promise
		// two-phase locking depends on, so a restarted replica must still
		// remember it. Hinted is response-only soft state (a replay's
		// discarded responses may differ in it; the hard state never does).
		return ReadResp{OK: true, Held: held, VN: vn, Val: val, Gen: gen, Cfg: cfg, Hinted: s.hintLive(q.Item, r)}, true
	case WriteReq:
		if w, ok := s.moved[q.Item]; ok {
			return w, false
		}
		r := s.replicas[q.Item]
		if r == nil {
			return WriteResp{}, false
		}
		if s.txnResolved(q.Txn) || r.tombstoned(q.Txn, q.Seq) {
			return WriteResp{}, false
		}
		if !r.canLock(q.Txn, LockWrite) {
			s.noteConflict(r, q.Txn)
			return WriteResp{Busy: true}, false
		}
		_, held := r.locks[q.Txn]
		r.grant(q.Txn, LockWrite)
		r.noteGrant(q.Txn, q.Seq, held)
		s.touch(q.Txn, q.Item)
		s.stampLease(q.Txn)
		// A write lock revokes the freshness hint here and stamps the fence:
		// the write-quorum members' fence rides the grant itself, only the
		// remaining replicas need an explicit HintFenceReq.
		s.fenceHintLocal(q.Item, q.Txn)
		if !r.hasIntentCopy(q.Txn, false, q.VN, 0) {
			r.intents = append(r.intents, intent{owner: q.Txn, vn: q.VN, val: q.Val})
		}
		return WriteResp{OK: true, Held: held}, true
	case ConfigWriteReq:
		if w, ok := s.moved[q.Item]; ok {
			return w, false
		}
		r := s.replicas[q.Item]
		if r == nil {
			return WriteResp{}, false
		}
		if s.txnResolved(q.Txn) || r.tombstoned(q.Txn, q.Seq) {
			return WriteResp{}, false
		}
		if !r.canLock(q.Txn, LockWrite) {
			s.noteConflict(r, q.Txn)
			return WriteResp{Busy: true}, false
		}
		_, held := r.locks[q.Txn]
		r.grant(q.Txn, LockWrite)
		r.noteGrant(q.Txn, q.Seq, held)
		s.touch(q.Txn, q.Item)
		s.stampLease(q.Txn)
		s.fenceHintLocal(q.Item, q.Txn)
		if !r.hasIntentCopy(q.Txn, true, 0, q.Gen) {
			r.intents = append(r.intents, intent{owner: q.Txn, isConfig: true, gen: q.Gen, cfg: q.Cfg.Clone()})
		}
		return WriteResp{OK: true, Held: held}, true
	case ReleaseReq:
		r := s.replicas[q.Item]
		if r == nil || q.Seq == 0 || s.txnResolved(q.Txn) {
			// A resolved transaction is refused every grant already; a
			// tombstone for it would only outlive the resolution's sweep.
			return Ack{OK: true}, false
		}
		// Even a refused release installs the phase tombstone, which must
		// survive a restart or late request copies could re-grant.
		r.release(q.Txn, q.Seq)
		s.touch(q.Txn, q.Item)
		return Ack{OK: true}, true
	case RepairReq:
		r := s.replicas[q.Item]
		if r == nil {
			return Ack{}, false
		}
		// Safe when strictly newer and no writer is in flight: the repair
		// only advances the committed state to a value that is already
		// committed at a write-quorum, which every quorum read would
		// return anyway. Read locks do not block it. The same argument
		// covers configuration generations: a newer (gen, cfg) was
		// installed by a committed reconfiguration, and propagating it
		// only redirects clients sooner.
		writerInFlight := len(r.intents) > 0
		for _, m := range r.locks {
			if m == LockWrite {
				writerInFlight = true
			}
		}
		applied := false
		if q.VN > r.vn && !writerInFlight {
			r.vn, r.val = q.VN, q.Val
			applied = true
		}
		if q.Gen > r.gen && !writerInFlight {
			r.gen, r.cfg = q.Gen, q.Cfg.Clone()
			applied = true
		}
		return Ack{OK: true}, applied
	case InspectReq:
		r := s.replicas[q.Item]
		if r == nil {
			return InspectResp{}, false
		}
		// An inspection doubles as an orphan sweep: the anti-entropy
		// sweeper's idle-tick inspections hunt expired-lease holders even
		// when no client is conflicting with them.
		s.noteInspect(r)
		return InspectResp{
			OK: true, VN: r.vn, Val: r.val, Gen: r.gen, Cfg: r.cfg.Clone(),
			Locks: len(r.locks), Intents: len(r.intents),
		}, false
	case CommitSubReq:
		s.eachTouched(q.Txn, func(_ string, r *replica) { r.promote(q.Txn) })
		return Ack{OK: true}, true
	case AbortReq:
		if q.Txn.Top() == q.Txn {
			s.abortTop(q.Txn)
		} else {
			s.eachTouched(q.Txn, func(_ string, r *replica) { r.drop(q.Txn) })
		}
		return Ack{OK: true}, true
	case CommitTopReq:
		if res := s.resolved[q.Txn]; res != nil {
			// A transaction the lease reaper already presumed aborted must
			// not commit late — under the lease fence the client never
			// reaches this point, but a refused ack keeps even a fence
			// bypass from silently diverging.
			return Ack{OK: res.committed}, false
		}
		s.commitTop(q.Txn, q.Subs, q.Final)
		return Ack{OK: true}, true
	case AdoptItemReq:
		if _, hosts := s.replicas[q.Item]; hosts {
			// Idempotent: a retried adopt round must not regress a replica
			// that may already hold copied state or live locks.
			return Ack{OK: true}, false
		}
		// Adoption supersedes any old moved marker: the item is coming back
		// to this DM (migrations can round-trip). The replica starts at
		// version 0 with an empty config — it becomes a read target only
		// through the migration's copy + committed cutover config record.
		delete(s.moved, q.Item)
		s.replicas[q.Item] = &replica{
			val:   q.Initial,
			locks: map[TxnID]LockMode{},
		}
		return Ack{OK: true}, true
	case RetireItemReq:
		r := s.replicas[q.Item]
		if r == nil {
			// Already retired (or never hosted): idempotent only when the
			// marker is present, refused otherwise so a misdirected retire
			// is visible.
			_, ok := s.moved[q.Item]
			return Ack{OK: ok}, false
		}
		if len(r.locks) > 0 || len(r.intents) > 0 {
			// In-flight transactions finish against the old generation; the
			// coordinator retries retirement later (or leaves the replica —
			// the gen-chase redirects readers regardless).
			return Ack{OK: false}, false
		}
		delete(s.replicas, q.Item)
		s.moved[q.Item] = WrongShardResp{
			DM: s.id, Item: q.Item, Epoch: q.Epoch, Group: q.Group,
			DMs: append([]string(nil), q.DMs...), Gen: q.Gen, Cfg: q.Cfg.Clone(),
		}
		delete(s.hints, q.Item)
		return Ack{OK: true}, true
	case ReapReq:
		top := q.Txn.Top()
		if s.resolved[top] != nil {
			return Ack{OK: true}, false
		}
		if q.Commit {
			// A peer produced the commit record: apply the transaction here
			// exactly as a late CommitTopReq would, Subs and all. No
			// freshness grant: a reaped commit carries no final version map
			// (the reaper reconstructs the verdict, not the write set), so
			// this replica cannot prove its applied state is the cluster
			// maximum. The sweeper re-proves it.
			s.commitTop(top, q.Subs, nil)
		} else {
			// Presumed abort: no replica anywhere holds a commit record and
			// the lease lapsed, so the commit point was never passed.
			s.abortTop(top)
		}
		return Ack{OK: true}, true
	case PaxosAcceptReq:
		// Phase 2a: accept the proposed outcome unless a higher ballot was
		// promised. Ballot 0 is the coordinator's fast path (it skips
		// Phase 1); recovery proposers arrive with ballots >= 1.
		if res := s.resolved[q.Txn]; res != nil {
			// Recovery already decided this instance — the caller adopts the
			// decision instead of counting this as a vote.
			return PaxosAcceptResp{Decided: true, DecCommit: res.committed}, false
		}
		acc := s.acceptors[q.Txn]
		if acc == nil {
			acc = commit.NewAcceptor(append([]string(nil), q.Cohort...))
		}
		ok, mutated := acc.Accept(q.Ballot, commit.Decision{
			Commit: q.Commit, Subs: txnsToStrings(q.Subs), Final: q.Final,
		})
		if !ok {
			return PaxosAcceptResp{OK: false, Promised: acc.Promised}, false
		}
		if s.acceptors == nil {
			s.acceptors = map[TxnID]*commit.Acceptor{}
		}
		s.acceptors[q.Txn] = acc
		return PaxosAcceptResp{OK: true, Promised: acc.Promised}, mutated
	case PaxosPrepareReq:
		// Phase 1a durability: self-applied by the recovering DM so the
		// promise watermark hits the log before the promise leaves the
		// machine. A resolved instance refuses — the recovery path answers
		// such queries from the resolution record instead.
		if s.resolved[q.Txn] != nil {
			return Ack{OK: false}, false
		}
		acc := s.acceptors[q.Txn]
		if acc == nil {
			acc = commit.NewAcceptor(append([]string(nil), q.Cohort...))
		}
		ok, mutated := acc.Prepare(q.Ballot)
		if ok {
			if s.acceptors == nil {
				s.acceptors = map[TxnID]*commit.Acceptor{}
			}
			s.acceptors[q.Txn] = acc
		}
		return Ack{OK: ok}, mutated
	case PaxosDecisionReq:
		// The learn message: install a decided outcome exactly as a late
		// CommitTopReq (or a reaped abort) would. Idempotent, and it retires
		// the instance's acceptor state via markResolved.
		top := q.Txn.Top()
		if s.resolved[top] != nil {
			return Ack{OK: true}, false
		}
		if q.Commit {
			// Same freshness rule as CommitTopReq: the decision carries the
			// final version map.
			s.commitTop(top, q.Subs, q.Final)
		} else {
			s.abortTop(top)
		}
		return Ack{OK: true}, true
	default:
		return Ack{OK: false}, false
	}
}
