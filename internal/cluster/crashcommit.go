package cluster

import (
	"context"
	"errors"
	"time"

	"repro/internal/checker"
)

// ErrCommitAbandoned reports that a commit coordinator (CrashCommit's, or a
// MigrateItem's) stopped at its injected crash stage: the transaction was
// neither committed nor aborted by the coordinator, so its locks,
// intentions, and (under PaxosCommit) acceptor votes dangle exactly as a
// kill -9 would leave them. Chaos campaigns inject these crashes around the
// commit point and then verify the cluster converges on exactly one outcome
// — and, under PaxosCommit, that it converges without waiting out a lease
// TTL.
var ErrCommitAbandoned = errors.New("cluster: commit coordinator crashed")

// CommitCrashStage selects where a chaos-injected coordinator crash cuts a
// transaction short. The stages bracket the commit decision — under
// PaxosCommit the decide phase splits 2PC's single ambiguous instant into
// three distinct windows, each with a provable outcome rule.
type CommitCrashStage int

const (
	// CommitCrashNone runs the commit to completion.
	CommitCrashNone CommitCrashStage = iota
	// CommitCrashBeforeDecide dies after every write buffered its intention
	// and the fences passed, but before any Phase-2a accept (PaxosCommit)
	// or any CommitTopReq (TwoPhase) was sent. No acceptor voted and no DM
	// can apply: the outcome is a provable abort under both protocols.
	CommitCrashBeforeDecide
	// CommitCrashMidDecide dies partway through the Phase-2a fan-out:
	// Deliver cohort members durably accept ballot 0, the rest never hear
	// it. A majority of deliveries decides commit; fewer leave the instance
	// open — acceptor recovery then decides either way, and the chaos gate
	// checks only that the cluster converges on ONE outcome. Under TwoPhase
	// there is no decide phase; the stage degrades to BeforeDecide.
	CommitCrashMidDecide
	// CommitCrashBeforeLearn dies after the outcome is decided at an
	// acceptor majority but before any DM hears the learn broadcast: the
	// one window 2PC cannot express at all — the outcome is a provable
	// commit that NO replica has applied yet. Acceptor recovery must
	// reconstruct and finish it. Under TwoPhase the commit point is the
	// first CommitTopReq send, so this too degrades to BeforeDecide.
	CommitCrashBeforeLearn
	// CommitCrashMidLearn dies partway through the CommitTopReq broadcast:
	// Deliver written DMs apply, the rest never hear it. Under PaxosCommit
	// the outcome was already decided commit; under TwoPhase one delivery
	// decides commit and zero leave a presumed abort.
	CommitCrashMidLearn
)

// CommitCrashOptions is the cut a coordinator crash makes through the
// commit tail; the zero value commits cleanly.
type CommitCrashOptions struct {
	// Stage selects the injected coordinator crash point.
	Stage CommitCrashStage
	// Deliver is, for the Mid stages, how many targets (in sorted order)
	// hear the fan-out before the coordinator dies. Values past the target
	// set mean everyone heard.
	Deliver int
}

// CrashReport describes what a crashed commit coordinator left behind —
// everything the chaos harness needs to predict the mandatory outcome and
// to backfill the serializability history once the cluster resolves the
// orphan.
type CrashReport struct {
	// Txn is the abandoned transaction.
	Txn TxnID
	// Decided reports whether the outcome was provably decided commit
	// before the crash (an acceptor majority under PaxosCommit, at least
	// one applied CommitTopReq under TwoPhase).
	Decided bool
	// Cohort is the acceptor cohort size (0 under TwoPhase).
	Cohort int
	// Accepts is how many acceptors durably accepted ballot 0 before the
	// crash. It counts acknowledgements: under a lossy network an acceptor
	// may have accepted while its ack was dropped, so Accepts is a lower
	// bound on durable votes.
	Accepts int
	// Learned is how many written DMs acknowledged CommitTopReq before the
	// crash (a lower bound, like Accepts).
	Learned int
	// Sends is how many commit-carrying requests (Phase-2a accepts or
	// CommitTopReqs) the coordinator dispatched before dying, whether or
	// not they were acknowledged. Sends == 0 means no replica anywhere can
	// hold evidence of a commit: the only outcome a harness may demand is
	// abort. Sends > 0 proves nothing either way — a dispatched request
	// may have been dropped, or delivered with its ack lost.
	Sends int
	// DMs is every replica the crashed transaction may have left state at —
	// written and lock-granting DMs plus the acceptor cohort — the set a
	// harness must probe to observe the cluster's eventual resolution.
	DMs []string
	// Ops is the transaction's operation log, withheld from the history
	// recorder: the harness records it only if the cluster resolves the
	// orphan as committed.
	Ops []checker.Op
	// Start and End bracket the attempt for the history record.
	Start, End time.Time
}

// CrashCommit runs one write transaction (item := val) through the common
// commit tail with a coordinator kill -9 injected at the requested stage:
// no abort, no further sends, locks and votes left dangling for the
// cluster to resolve. Returns ErrCommitAbandoned (with the report) when the
// coordinator stopped unresolved — the injected crash fired, or the decide
// phase genuinely ended in doubt, which is rarer but leaves the same shape
// — and nil when Stage is CommitCrashNone and the commit completed.
// Test/chaos harness use only.
func (s *Store) CrashCommit(ctx context.Context, item string, val any, opts CommitCrashOptions) (CrashReport, error) {
	rep, err := s.commitAttempt(ctx, func(t *Txn) error { return t.Write(ctx, item, val) }, opts)
	if errors.Is(err, ErrTxnInDoubt) {
		err = ErrCommitAbandoned
	}
	return rep, err
}
