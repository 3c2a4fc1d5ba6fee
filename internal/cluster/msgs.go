package cluster

import (
	"repro/internal/commit"
	"repro/internal/quorum"
)

// LockMode is the lock an access must hold at a DM.
type LockMode int

// Lock modes. Write-TM read phases use LockWrite (update locking), so a
// writer never needs to upgrade a read lock it already holds. lockNone is a
// top-level transaction's first read (readPhase): refused exactly where a
// read lock would be, and otherwise answered with no lock taken.
const (
	lockNone LockMode = iota
	LockRead
	LockWrite
)

// ReadReq asks a DM for its replica state of an item, acquiring a lock of
// the given mode for the transaction first (none for lockNone). Seq
// identifies the quorum phase that issued the request (monotonic per
// transaction); hedged duplicates of one phase share a Seq, and a
// ReleaseReq carrying the same Seq tombstones the phase so late copies
// cannot re-grant. Seq 0 means "no phase tracking" (requests sent outside a
// quorum phase, such as PlantOrphan's). Gen is the newest configuration
// generation the reader already holds: the reply carries a configuration
// only when it is newer.
//
// Inherit states Moss's lock inheritance instead of having the replica
// perform it: the committed subtransactions whose locks and versions Txn's
// ancestors (Txn included) have inherited — a fact about the transaction
// tree, which only the coordinator holds. A conflicting lock held by a
// listed transaction does not refuse Txn, and Txn sees a listed
// transaction's intentions; both stay under their owner's id until the top
// level resolves. Empty for a flat transaction. WriteReq and ConfigWriteReq
// carry the same list.
type ReadReq struct {
	Txn     TxnID
	Item    string
	Lock    LockMode
	Seq     int
	Gen     int
	Inherit []TxnID
}

// ReadResp carries the replica state visible to the transaction (committed
// state plus the intentions of its ancestors and of the committed
// subtransactions they inherited). Busy reports a lock
// conflict; the caller backs off and retries, which doubles as the
// cluster's deadlock resolution. Held reports that the transaction already
// held a lock on the item before this request — such locks belong to an
// earlier phase and must never be released by this one. Cfg is the
// configuration of generation Gen when Gen is news to the reader (above
// ReadReq.Gen) and empty otherwise: Section 4's reader needs c only to
// move to a newer g.
type ReadResp struct {
	OK   bool
	Busy bool
	Held bool
	VN   int
	Val  any
	Gen  int
	Cfg  quorum.Config
	// Orphans rides a Busy refusal: the top-level transactions of other
	// trees that hold a lock on this replica under a lapsed lease. The
	// replica only names them; the refused client resolves them
	// (Store.resolve) before it backs off. Response-only soft state.
	// WriteResp and InspectResp carry the same list.
	Orphans []TxnID
}

// WriteReq buffers a versioned value write as an intention of the
// transaction, acquiring a write lock first. Seq is the issuing phase, as
// in ReadReq, and Inherit the same list.
type WriteReq struct {
	Txn     TxnID
	Item    string
	VN      int
	Val     any
	Seq     int
	Inherit []TxnID
}

// ConfigWriteReq buffers a configuration write (generation bump) as an
// intention of the transaction, acquiring a write lock first.
type ConfigWriteReq struct {
	Txn     TxnID
	Item    string
	Gen     int
	Cfg     quorum.Config
	Seq     int
	Inherit []TxnID
}

// WriteResp acknowledges a write (or reports a lock conflict). Held and
// Orphans are as in ReadResp.
type WriteResp struct {
	OK      bool
	Busy    bool
	Held    bool
	Orphans []TxnID
}

// ReleaseReq retracts phase Seq of a transaction at one replica: the
// replica records a tombstone so late (hedged or cancelled) copies of the
// phase's request cannot re-grant, and frees the lock if — and only if —
// that phase created it, no later phase re-granted it, and no buffered
// intention depends on it. Sent fire-and-forget when a widened phase
// completes with more grants than the winning quorum needs, so Moss locking
// fairness is preserved, and to every replica a finished phase left a copy
// in flight at.
type ReleaseReq struct {
	Txn  TxnID
	Item string
	Seq  int
}

// AbortReq discards the locks and intentions of a transaction and all its
// descendants. A subtransaction's commit has no message: it is an event at
// the coordinator, stated to the replicas by the Inherit list of later
// accesses and by CommitTopReq.Subs.
type AbortReq struct {
	Txn TxnID
}

// CommitTopReq applies a top-level transaction's intentions to the
// committed replica state and releases its locks. Idempotent.
//
// Subs lists every committed subtransaction in Txn's tree. A DM holds a
// subtransaction's intentions under the subtransaction's own id; the list
// is how it learns which of them are committed state to apply and which
// belong to aborted children and are discarded.
type CommitTopReq struct {
	Txn  TxnID
	Subs []TxnID

	// Final is unused: no client fills it and the replica ignores it. It
	// stays only because the benchmark's frame probe (bench/probes.go)
	// builds a committop frame with it; the next change that may edit
	// bench/ deletes both.
	Final map[string]int
}

// Ack acknowledges a commit/abort control message.
type Ack struct {
	OK bool
}

// RepairReq is retired: nothing sends or serves it, and it is not
// registered with the wire (its tag, 8, stays unused). It was the repair a
// quorum read or an anti-entropy sweep pushed to a stale copy, which no read
// returns anyway (DESIGN.md §6). It stays only because the benchmark's
// tracer test (bench/trace_test.go) builds one; the next change that may
// edit bench/ deletes both.
type RepairReq struct {
	Item string
	VN   int
}

// OverloadedResp is the explicit admission rejection a DM sends when its
// bounded service queue sheds a request (queue full) or discards it
// expired-on-arrival (its propagated deadline passed while it queued).
// The caller learns "overloaded" the moment the verdict is decided instead
// of burning its call timeout, and the fan-out counts the replica as
// responsive-but-shedding — it is alive, so health probes must not suspect
// it, and hedging it would only add load.
type OverloadedResp struct {
	// DM is the replica that shed the request.
	DM string
	// Expired reports expired-on-arrival (deadline passed in queue) rather
	// than a queue-full shed.
	Expired bool
}

// PingReq is an inert request: a DM answers Ack{OK: true} without touching
// locks, leases or replica state. Overload harnesses use it as burst
// filler — it exercises admission, priority classification and deadline
// expiry like any bulk request, but a shed or served ping can never
// interact with the transaction protocol, which keeps seeded campaigns
// deterministic.
type PingReq struct {
	// Seq distinguishes burst pings in traces.
	Seq int
}

// InspectReq asks a DM for its committed replica state: ResolveOrphans's
// question, and a diagnostic.
type InspectReq struct {
	Item string
}

// InspectResp carries a replica's committed state and bookkeeping sizes.
// Orphans names every lock holder's top-level transaction whose lease
// lapsed (as in ReadResp, with no requester to exempt), which is how
// ResolveOrphans finds orphans nobody is waiting on.
type InspectResp struct {
	OK      bool
	VN      int
	Val     any
	Gen     int
	Cfg     quorum.Config
	Locks   int
	Intents int
	Orphans []TxnID
}

// RenewLeaseReq refreshes the lock lease of a live transaction at one DM.
// The DM refuses (Ack{OK: false}) when the transaction is already resolved
// — committed, aborted, or reaped — which is how a client whose lease
// lapsed learns it must not pass the commit point. Non-mutating: leases are
// soft state, re-stamped fresh on recovery.
type RenewLeaseReq struct {
	Txn TxnID
}

// AdoptItemReq tells a DM to start hosting a replica of an item it did not
// serve before — the first round of a live migration. The replica is
// created empty at version 0 with Initial as its value; the copy phase
// then installs the real (vn, val) through the ordinary write path, and
// only the committed cutover config record makes the new replica a read
// target. Idempotent: a DM that already hosts the item acks without
// touching its state, so a retried adopt round cannot regress a replica.
// Adoption is hard state (WAL-logged and replayed): a crashed new-group
// member must come back still hosting the item.
type AdoptItemReq struct {
	Item    string
	Initial any
}

// PaxosAcceptReq is Phase-2a of Paxos Commit: accept this transaction's
// outcome at Ballot. The coordinator that ran the transaction owns ballot 0
// and skips Phase 1 (no other proposer ever uses 0); a recovering client
// arrives with the ballot its Phase 1 was promised. Commit/Subs are
// the full Decision value — everything a CommitTopReq would carry — and
// Cohort is the complete acceptor set of the instance, recorded by each
// acceptor so anyone can later run recovery without knowing the
// transaction's footprint. Hard state: the
// acceptance is WAL-logged before the ack (persist-before-ack), which is
// what lets a majority of acceptors reconstruct the decision after any
// single failure.
type PaxosAcceptReq struct {
	Txn    TxnID
	Ballot int
	Commit bool
	Subs   []TxnID
	Cohort []string
}

// PaxosAcceptResp answers a PaxosAcceptReq. OK false with Promised set
// means another proposer was promised a higher ballot here (the caller
// lost the race and must not treat the outcome as decided). Decided
// short-circuits: the transaction is already resolved at this replica —
// someone else reached a decision first — and the caller adopts the
// record (DecCommit, DecSubs) instead of counting votes.
type PaxosAcceptResp struct {
	OK        bool
	Promised  int
	Decided   bool
	DecCommit bool
	DecSubs   []TxnID
}

// PaxosPrepareReq is Phase-1a of acceptor recovery: Proposer — a client
// blocked by Txn's locks (Store.resolve) — asks for a promise of Ballot, a
// number it picked itself. The acceptor grants a ballot above its
// watermark, or the watermark again to the proposer already holding it (a
// retry); see commit.Acceptor.Prepare. Hard state: a granted promise is
// WAL-logged before the answer leaves the machine.
type PaxosPrepareReq struct {
	Txn      TxnID
	Ballot   int
	Cohort   []string
	Proposer string
}

// PaxosPrepareResp is the Phase-1b answer. OK grants the promise and
// AccBal/AccCommit/AccSubs carry the acceptor's accepted value
// when AccBal >= 0 — the proposer must adopt the highest accepted ballot's
// value. OK false reports the watermark that refused the ballot (Promised):
// the proposer retries above it. Decided short-circuits the round: the
// answering replica already holds the outcome (DecCommit, DecSubs), and the
// proposer adopts it — it never re-proposes over a decision.
type PaxosPrepareResp struct {
	OK        bool
	Promised  int
	AccBal    int
	AccCommit bool
	AccSubs   []TxnID
	Decided   bool
	DecCommit bool
	DecSubs   []TxnID
}

// DecisionReq installs a top-level transaction's outcome that somebody
// other than the transaction's own client reached: a client the
// transaction's locks were blocking (Store.resolve). Commit true is a commit
// record another replica held, re-served (Subs naming the committed
// subtree), or the outcome of acceptor recovery; Commit false is the same
// for an abort, or — Presumed — the presumed abort: every DM answered the
// resolver and none knew the transaction, vouched for its coordinator or
// held acceptor state, so its commit point was never reached. The
// presumption stays conditional at each replica: one that holds an
// unexpired lease entry for the transaction refuses it unlogged (the
// coordinator renewed there since the resolver asked), every other replica
// applies it. Commit true applies the transaction's intentions exactly as
// CommitTopReq would, false discards them as AbortReq would, and an
// already-resolved transaction keeps its first verdict.
type DecisionReq struct {
	Txn      TxnID
	Commit   bool
	Subs     []TxnID
	Presumed bool
}

// ResolutionProbeReq asks a DM how a top-level transaction stands there:
// the protocol's one such question. A client blocked by the transaction's
// locks asks every DM before it resolves anything (Store.resolve), and the
// chaos gates and `qcstore client -inspect txn:<id>` read the same answer.
// Served from the actor goroutine that owns the state, so it is consistent
// without locks, and never logged.
type ResolutionProbeReq struct {
	Txn TxnID
}

// ResolutionProbeResp reports a replica's view of one transaction: whether
// it holds a resolution record (Known/Committed, with the committed-subs
// list a straggler needs to apply the same commit), whether any replica
// state still references the transaction's tree (Holds — locks or
// intentions), whether this replica vouches for a live coordinator (Active —
// it holds an unexpired lease entry: the client renewed here recently), and
// the raw acceptor hard state when one exists (Promised, AccBal, AccCommit,
// and the instance's Cohort; Promised is -2 when no acceptor state exists,
// since -1 and 0 are both meaningful watermarks).
type ResolutionProbeResp struct {
	Known     bool
	Committed bool
	Subs      []TxnID
	Holds     bool
	Active    bool
	Promised  int
	AccBal    int
	AccCommit bool
	Cohort    []string
}

// QuarantinedResp is a quarantined replica's answer to every request: its
// write-ahead log was found corrupt (or an append failed mid-operation),
// so nothing it could serve is trustworthy and nothing it could promise
// would survive. Serving stale-but-plausible state would be a silent
// split brain; the explicit refusal lets callers count the replica as
// responsive-but-useless — alive for failure detection, never granted,
// never hedged — until a peer rebuild (cluster.RebuildReplica) readmits
// it. Reason carries the corruption detail for diagnostics. A healthy
// durable replica gives the same refusal, without quarantining, to a
// request its log cannot encode: it applies nothing it could not log.
type QuarantinedResp struct {
	DM     string
	Reason string
}

// RebuildPullReq asks one replica for everything it holds that a
// quarantined peer (For) needs to rebuild from scratch: the committed state
// of every item it hosts, resolution records, and the Paxos acceptor hard
// state of every instance whose cohort names For. Served from the actor
// goroutine (consistent without locks) and never logged — the pull mutates
// nothing at the answering replica.
type RebuildPullReq struct {
	For string
}

// RebuildPullResp is one replica's complete answer to a RebuildPullReq, in
// the state machine's own types. Replicas holds every item this replica
// hosts, committed state only: locks, tombstones and intentions of
// in-flight transactions died with the corrupt log, and the lease fence
// turns their loss into clean aborts instead of broken promises. Resolved
// (Subs nil for aborts and for commit records the retention cap already
// compacted to outcome tombstones) and Acceptors carry the transaction
// outcome state the rebuilding replica must re-adopt before it may serve
// again. OK false (or a QuarantinedResp instead) means this replica cannot
// contribute and the rebuild must not count it as a witness.
type RebuildPullResp struct {
	OK        bool
	From      string
	Replicas  map[string]replica
	Resolved  map[TxnID]resolution
	Acceptors map[TxnID]commit.Acceptor
}
