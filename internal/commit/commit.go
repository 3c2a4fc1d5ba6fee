// Package commit holds the commit-protocol seam shared by the cluster
// client and the replica servers: the protocol selector, the outcome
// value transactions reach consensus on, and the per-transaction Paxos
// acceptor state machine of Gray & Lamport's Paxos Commit.
//
// The formulation is deliberately the simplest one that is non-blocking:
// ONE Paxos consensus instance per top-level transaction, on the complete
// outcome value (commit/abort plus the committed-subtransaction set and
// final version numbers the learn fan-out needs). The coordinator that ran
// the transaction owns ballot 0 and may skip Phase 1 entirely — no other
// proposer ever uses ballot 0, so a bare Phase-2a at ballot 0 is safe.
// Recovery proposers (clients that find a dangling lock in their way after
// the coordinator died) pick higher ballots themselves; the acceptor makes a
// ballot unique by promising it to one proposer only (PromisedTo). They run
// Phase 1 to learn any accepted value, and are bound by the usual Paxos
// rule: adopt the highest-ballot accepted value seen, and only when no
// acceptor in a majority accepted anything propose the default — abort,
// mirroring presumed abort.
package commit

import "fmt"

// Protocol selects how a top-level transaction's outcome is decided.
type Protocol int

const (
	// TwoPhase is the seed's coordinator-decides commit: the first
	// CommitTopReq send is the commit point, and a coordinator crash
	// around it leans on lease reaping (presumed abort after a TTL).
	TwoPhase Protocol = iota
	// PaxosCommit replicates the commit decision itself across the
	// acceptors co-located on the transaction's replica groups before
	// any CommitTopReq is sent, so no single failure leaves the outcome
	// in doubt: any majority of acceptors can reconstruct it.
	PaxosCommit
)

func (p Protocol) String() string {
	switch p {
	case TwoPhase:
		return "2pc"
	case PaxosCommit:
		return "paxos"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// ParseProtocol maps the CLI spellings to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "2pc", "twophase", "2PC":
		return TwoPhase, nil
	case "paxos", "paxoscommit":
		return PaxosCommit, nil
	default:
		return TwoPhase, fmt.Errorf("commit: unknown protocol %q (want 2pc or paxos)", s)
	}
}

// Decision is the value a transaction's consensus instance decides: the
// full outcome, carrying everything a replica needs to apply it without
// asking anyone else. Subs mirrors CommitTopReq so a recovered decision can
// drive the same learn path the coordinator would have.
type Decision struct {
	Commit bool
	Subs   []string
}

// Acceptor is the per-transaction Paxos acceptor hard state. It lives in
// the replica server's state map, is mutated only through WAL-logged
// requests (persist-before-ack), and is carried whole inside snapshots —
// all fields are exported for gob.
type Acceptor struct {
	// Promised is the highest ballot this acceptor has promised. Zero is
	// meaningful (the coordinator's own ballot), so Prepared/Accepted
	// track whether anything happened at all.
	Promised int
	// PromisedTo names the proposer a Phase-1a promise of Promised was
	// granted to; empty when Promised was taken by a bare accept (the
	// coordinator's ballot 0, or a Phase-2a that overtook its own Phase 1).
	// Proposers pick their ballots without coordinating, so this is what
	// keeps two of them from both gathering a majority of promises for one
	// ballot.
	PromisedTo string
	// AccBal is the ballot of the accepted value, -1 if none accepted.
	AccBal int
	// AccVal is the accepted outcome, meaningful iff AccBal >= 0.
	AccVal Decision
	// Cohort is the full acceptor set for this transaction's instance,
	// recorded at first contact so any replica can later run recovery
	// without knowing the transaction's footprint.
	Cohort []string
}

// NewAcceptor returns the initial acceptor state for a cohort.
func NewAcceptor(cohort []string) *Acceptor {
	return &Acceptor{Promised: -1, AccBal: -1, Cohort: cohort}
}

// Prepare handles a Phase-1a message at ballot bal from proposer who. A
// ballot above the watermark is promised to who; the watermark itself is
// promised again only to the proposer that holds it — a retry, which
// changes nothing. It reports whether the promise was granted and whether
// hard state changed (callers log only mutations).
func (a *Acceptor) Prepare(bal int, who string) (ok, mutated bool) {
	if bal > a.Promised {
		a.Promised, a.PromisedTo = bal, who
		return true, true
	}
	return bal == a.Promised && who == a.PromisedTo, false
}

// Accept handles a Phase-2a message at ballot bal with value val. Granting
// an accept also promises the ballot (the standard acceptor collapse) — to
// nobody, when the accept raises the watermark: no Phase 1 may follow it at
// that ballot.
func (a *Acceptor) Accept(bal int, val Decision) (ok, mutated bool) {
	if bal < a.Promised {
		return false, false
	}
	if bal > a.Promised {
		a.PromisedTo = ""
	}
	a.Promised = bal
	a.AccBal = bal
	a.AccVal = val
	return true, true
}

// Promise is one acceptor's Phase-1b answer, as collected by a recovery
// proposer.
type Promise struct {
	OK     bool
	AccBal int
	AccVal Decision
}

// Choose applies the Paxos value-selection rule to a set of promises: the
// value accepted at the highest ballot wins; with no accepted value
// anywhere, the default outcome is abort (presumed abort carried over).
func Choose(promises []Promise) Decision {
	best := -1
	val := Decision{Commit: false}
	for _, p := range promises {
		if p.OK && p.AccBal >= 0 && p.AccBal > best {
			best = p.AccBal
			val = p.AccVal
		}
	}
	return val
}

// Quorum is the majority threshold for a cohort of n acceptors: with
// n = 2F+1 the instance tolerates F acceptor failures.
func Quorum(n int) int { return n/2 + 1 }
