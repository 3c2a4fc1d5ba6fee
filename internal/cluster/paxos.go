package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/commit"
)

// Paxos Commit (DESIGN.md §11): the non-blocking commit arm. The clean path
// replaces 2PC's unilateral commit point with one consensus instance per
// top-level transaction — the coordinator, owning ballot 0, sends Phase-2a
// accepts for the full outcome value (commit flag, committed-subs list,
// final version map) to a cohort of acceptors co-located on the replica
// groups the transaction wrote. A majority of durable acceptances decides
// the outcome; only then does the learn fan-out (the ordinary CommitTopReq
// round) publish it. If the coordinator dies at ANY instant, any client
// that trips over the orphan's locks reconstructs the decision from a
// majority of acceptors (Store.resolve) instead of waiting out a lease TTL
// — and when no acceptor anywhere voted, presumed abort still backstops
// exactly as under 2PC.
//
// There is one proposer, propose, and it lives in the client: the
// coordinator runs it at ballot 0 with its own value, a blocked client at a
// ballot it picks, Phase 1 first. A replica is only ever an acceptor: every
// promise and acceptance is a logged request (PaxosPrepareReq,
// PaxosAcceptReq) made durable by the host before the answer leaves the
// machine, like any other.

// ErrTxnInDoubt means the coordinator could not learn its transaction's
// outcome: the Phase-2a fan-out reached at least one acceptor but no
// majority answered, so the outcome is whatever the acceptors eventually
// decide — committing OR aborting locally would risk contradicting it. The
// transaction's locks stand until acceptor recovery resolves them (the
// first conflict that finds them after the lease lapsed, not a presumption).
var ErrTxnInDoubt = errors.New("cluster: transaction outcome in doubt")

// InDoubtError reports which transaction was left to acceptor recovery and
// how far its Phase-2a got. It wraps ErrTxnInDoubt only — NOT ErrConflict:
// Run must not restart an in-doubt transaction (its outcome may yet be
// commit).
type InDoubtError struct {
	// Txn is the transaction whose outcome is unresolved.
	Txn TxnID
	// Acked is how many acceptors durably accepted ballot 0.
	Acked int
	// Cohort is the acceptor cohort size (majority = Cohort/2 + 1).
	Cohort int
}

func (e *InDoubtError) Error() string {
	return fmt.Sprintf(
		"cluster: outcome of %s is in doubt (%d of %d acceptors acked, majority is %d); acceptor recovery will decide it — do not retry until it does",
		e.Txn, e.Acked, e.Cohort, commit.Quorum(e.Cohort))
}

func (e *InDoubtError) Unwrap() error { return ErrTxnInDoubt }

// txnsToStrings converts a TxnID list to the plain strings the commit
// package's Decision value carries (it must not depend on cluster types).
func txnsToStrings(ts []TxnID) []string {
	if len(ts) == 0 {
		return nil
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = string(t)
	}
	return out
}

// stringsToTxns reverses txnsToStrings.
func stringsToTxns(ss []string) []TxnID {
	if len(ss) == 0 {
		return nil
	}
	out := make([]TxnID, len(ss))
	for i, s := range ss {
		out[i] = TxnID(s)
	}
	return out
}

// noteWrittenItem records an item this transaction buffered a write for.
func (t *Txn) noteWrittenItem(item string) {
	t.mu.Lock()
	if t.wroteItems == nil {
		t.wroteItems = map[string]bool{}
	}
	t.wroteItems[item] = true
	t.mu.Unlock()
}

// writtenItems snapshots the transaction's written-item set.
func (t *Txn) writtenItems() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.wroteItems))
	for item := range t.wroteItems {
		out = append(out, item)
	}
	return out
}

// paxosCohort derives the transaction's acceptor cohort: the sorted union
// of the replica sets of every item the transaction (tree) wrote. Writing
// through a quorum of these same DMs is what makes co-location free — no
// separate acceptor fleet, and F replica failures leave a majority of any
// 2F+1-member cohort. Read-only transactions return nil: they have no
// outcome worth a consensus instance.
func (t *Txn) paxosCohort() []string {
	set := map[string]bool{}
	for _, item := range t.writtenItems() {
		it, ok := t.store.itemSpec(item)
		if !ok {
			continue
		}
		for _, dm := range it.DMs {
			set[dm] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for dm := range set {
		out = append(out, dm)
	}
	sort.Strings(out)
	return out
}

// propose runs one Paxos proposer over top's commit instance and returns the
// outcome it learned decided. The coordinator calls it at ballot 0 with its
// own value and skips Phase 1 (no other proposer ever uses 0); a client
// resolving an orphan calls it at a ballot >= 1 of its own choosing, which
// first runs Phase 1 — PaxosPrepareReq to the whole cohort, a majority of
// promises, the value picked by commit.Choose — and ignores val. Phase 2 is
// the same loop for both: accepts to the cohort, waiting for ALL answers
// (not first-to-majority — every ack is a durable log write we paid for;
// stragglers only cost latency already spent). A proposer whose ballot is
// refused retries above the watermark that refused it, after the ordinary
// backoff, at most lockRetries times — except at ballot 0, which is lost
// for good. Nothing makes client-chosen ballots distinct but the acceptor,
// which promises a ballot to one proposer only (commit.Acceptor.Prepare).
//
// deliver < len(cohort) is an injected coordinator crash mid-fan-out: only
// that prefix of the cohort hears Phase 2. acked counts the durable
// acceptances of the last ballot tried. Outcomes:
//
//   - a majority of OKs decides val; a Decided answer (someone else resolved
//     the instance first) is adopted instead: nil error, out is the outcome.
//   - no majority and nothing possibly delivered: an UnavailableError —
//     nothing anywhere remembers the ballot, so a coordinator may abort.
//   - no majority, but a message may have landed: an InDoubtError — a
//     coordinator must NOT abort (an acceptor majority may yet assemble
//     around its commit); whoever the locks block next owns the outcome.
func (s *Store) propose(ctx context.Context, top TxnID, cohort []string, deliver, ballot int, val commit.Decision) (out commit.Decision, acked int, err error) {
	need, sent := commit.Quorum(len(cohort)), 0
	for try := 0; ; try++ {
		refusedAt := -1 // the highest watermark that refused this ballot
		targets := cohort[:deliver]
		if ballot > 0 {
			answers, n := s.call(ctx, round{dms: cohort, retries: s.opts.lockRetries,
				req: PaxosPrepareReq{Txn: top, Ballot: ballot, Cohort: cohort, Proposer: s.clientID}})
			sent += n
			var promises []commit.Promise
			for _, raw := range answers {
				switch p, ok := raw.(PaxosPrepareResp); {
				case !ok:
				case p.Decided:
					return commit.Decision{Commit: p.DecCommit, Subs: txnsToStrings(p.DecSubs)}, 0, nil
				case p.OK:
					promises = append(promises, commit.Promise{OK: true, AccBal: p.AccBal, AccVal: commit.Decision{
						Commit: p.AccCommit, Subs: txnsToStrings(p.AccSubs),
					}})
				default:
					refusedAt = max(refusedAt, p.Promised)
				}
			}
			// No acceptance in a promising majority means the commit point was
			// provably never passed: Choose's default is abort, the
			// presumed-abort backstop.
			val = commit.Choose(promises)
			if len(promises) < need {
				targets = nil // no Phase 2 at a ballot no majority promised
			}
		}
		answers, n := s.call(ctx, round{dms: targets, retries: s.opts.lockRetries, req: PaxosAcceptReq{
			Txn: top, Ballot: ballot, Commit: val.Commit,
			Subs: stringsToTxns(val.Subs), Cohort: cohort,
		}})
		sent, acked = sent+n, 0
		for _, raw := range answers {
			switch a, ok := raw.(PaxosAcceptResp); {
			case !ok:
			case a.Decided:
				return commit.Decision{Commit: a.DecCommit, Subs: txnsToStrings(a.DecSubs)}, acked, nil
			case a.OK:
				acked++
			default:
				// Another proposer was promised a higher ballot here.
				refusedAt = max(refusedAt, a.Promised)
			}
		}
		if acked >= need {
			return val, acked, nil
		}
		if ballot == 0 || refusedAt < ballot || try >= s.opts.lockRetries || ctx.Err() != nil {
			break
		}
		s.backoff(ctx, try)
		ballot = refusedAt + 1
	}
	if sent == 0 {
		// Every send was refused before it left this process: no acceptor can
		// have logged anything, so the ordinary abort path is safe.
		return val, acked, &UnavailableError{Txn: top, Phase: "decide", Attempts: 1, Missing: cohort}
	}
	return val, acked, &InDoubtError{Txn: top, Acked: acked, Cohort: len(cohort)}
}

// ResolutionProbe asks one DM how a transaction stands there: resolution
// record, surviving locks/intentions, lease, raw acceptor state — the
// question resolve asks every DM, for harnesses and `qcstore -inspect`.
func (s *Store) ResolutionProbe(ctx context.Context, dm string, txn TxnID) (ResolutionProbeResp, error) {
	raw, err := s.callDM(ctx, dm, ResolutionProbeReq{Txn: txn})
	if err != nil {
		return ResolutionProbeResp{}, err
	}
	ans, ok := raw.(ResolutionProbeResp)
	if !ok {
		return ResolutionProbeResp{}, fmt.Errorf("cluster: probe of %s at %s: unexpected answer %T", txn, dm, raw)
	}
	return ans, nil
}
