package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/commit"
)

// Paxos Commit (DESIGN.md §11): the non-blocking commit arm. The clean path
// replaces 2PC's unilateral commit point with one consensus instance per
// top-level transaction — the coordinator, owning ballot 0, sends Phase-2a
// accepts for the full outcome value (commit flag, committed-subs list,
// final version map) to a cohort of acceptors co-located on the replica
// groups the transaction wrote. A majority of durable acceptances decides
// the outcome; only then does the learn fan-out (the ordinary CommitTopReq
// round) publish it. If the coordinator dies at ANY instant, any DM that
// trips over the orphan's locks reconstructs the decision from a majority
// of acceptors in one round-trip instead of waiting out a lease TTL — and
// when no acceptor anywhere voted, presumed abort still backstops exactly
// as under 2PC.
//
// The server half of this file is soft-state coordination in the style of
// lease.go: recovery rounds live in dmServer.recoveries and are never
// logged; every promise and acceptance they produce enters the state
// machine as a logged request (PaxosPrepareReq, PaxosAcceptReq, DecisionReq)
// and is made durable before the answer leaves the
// machine, via the host's logThen.

// ErrTxnInDoubt means the coordinator could not learn its transaction's
// outcome: the Phase-2a fan-out reached at least one acceptor but no
// majority answered, so the outcome is whatever the acceptors eventually
// decide — committing OR aborting locally would risk contradicting it. The
// transaction's locks stand until acceptor recovery resolves them (one
// inquiry round-trip after a conflict finds them, not a lease TTL).
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

// --- server side: acceptor recovery ---

// paxosRecovery is the proposer soft state of one in-flight acceptor
// recovery round. Like an inquiry it is never logged: a round lost to a
// crash is simply re-run (at a higher ballot) when the next conflict finds
// the orphan still unresolved.
type paxosRecovery struct {
	ballot  int
	attempt int
	cohort  []string // sorted acceptor set of the instance
	started time.Time
	// phase: 1 = collecting promises, 2 = collecting accepts, 0 = dead
	// (a higher ballot was promised somewhere; the next trigger restarts
	// with attempt+1).
	phase    int
	val      commit.Decision
	promises map[string]commit.Promise
	accepts  map[string]bool
}

// proposerBallot derives this DM's recovery ballot for the given attempt:
// globally unique per (DM, attempt) and always above the coordinator's 0.
func (s *dmServer) proposerBallot(attempt int) int {
	all := append(append([]string{}, s.peers...), s.id)
	sort.Strings(all)
	idx := sort.SearchStrings(all, s.id)
	return commit.RecoveryBallot(attempt, idx, len(all))
}

// startPaxosRecovery begins (or re-arms) acceptor recovery for top: query
// every cohort member for a promise at a fresh ballot. Triggered wherever
// the lease reaper would have started a resolution inquiry — a conflict or
// sweep found the orphan's locks — but acceptor state exists, locally or
// at a peer, so the outcome must be reconstructed, never presumed.
func (s *dmServer) startPaxosRecovery(top TxnID, cohort []string) {
	if s.Resolved[top] != nil || len(cohort) == 0 {
		return
	}
	now := s.clock.Now()
	attempt := 0
	if rec := s.recoveries[top]; rec != nil {
		if rec.phase != 0 && now.Sub(rec.started) < s.leaseTTL {
			return // a round is in flight and still fresh
		}
		attempt = rec.attempt + 1
	}
	if s.stats != nil {
		s.stats.AcceptorRecoveries.Inc()
	}
	rec := &paxosRecovery{
		ballot:   s.proposerBallot(attempt),
		attempt:  attempt,
		cohort:   append([]string(nil), cohort...),
		started:  now,
		phase:    1,
		promises: map[string]commit.Promise{},
		accepts:  map[string]bool{},
	}
	sort.Strings(rec.cohort)
	s.recoveries[top] = rec
	for _, m := range rec.cohort {
		// Self included: the query loops back through the transport so the
		// answer arrives on the loop goroutine like every peer's, after the
		// promise it carries is durable.
		s.notifyPeer(m, PaxosRecoverQuery{Txn: top, Ballot: rec.ballot, Cohort: rec.cohort, From: s.id})
	}
}

// persistThen makes an already-applied acceptor mutation durable before
// running done (which only sends — it must not touch actor state, because
// it runs on the log's flusher goroutine); a failed append never runs it.
// Unchanged state and a machine without a log run done immediately.
func (s *dmServer) persistThen(req any, mutated bool, done func()) {
	if !mutated || s.logThen == nil {
		done()
		return
	}
	s.logThen(req, func(err error) {
		if err == nil {
			done()
		}
	})
}

// coordinatePaxos serves the acceptor-recovery messages and the
// diagnostics probe. Called from coordinate on the loop goroutine.
func (s *dmServer) coordinatePaxos(req any) (resp any, handled bool) {
	switch q := req.(type) {
	case PaxosRecoverQuery:
		// Phase 1b. A resolved instance short-circuits the whole round: the
		// proposer adopts the decision instead of counting promises.
		if res := s.Resolved[q.Txn]; res != nil {
			s.notifyPeer(q.From, PaxosRecoverPromise{
				Txn: q.Txn, Ballot: q.Ballot, From: s.id,
				Decided: true, DecCommit: res.Committed, DecSubs: res.Subs,
			})
			return Ack{OK: true}, true
		}
		prep := PaxosPrepareReq{Txn: q.Txn, Ballot: q.Ballot, Cohort: q.Cohort}
		raw, mutated := s.apply(prep)
		ack, _ := raw.(Ack)
		ans := PaxosRecoverPromise{Txn: q.Txn, Ballot: q.Ballot, From: s.id, OK: ack.OK, AccBal: -1}
		if acc := s.Acceptors[q.Txn]; acc != nil {
			ans.Promised = acc.Promised
			ans.AccBal = acc.AccBal
			if acc.AccBal >= 0 {
				ans.AccCommit = acc.AccVal.Commit
				ans.AccSubs = stringsToTxns(acc.AccVal.Subs)
				ans.AccFinal = acc.AccVal.Final
			}
		}
		from := q.From
		s.persistThen(prep, mutated, func() { s.notifyPeer(from, ans) })
		return Ack{OK: true}, true
	case PaxosRecoverPromise:
		// Proposer side of Phase 1b. A decided answer ends the round — the
		// proposer adopts, it never re-proposes over a decision.
		if q.Decided {
			delete(s.recoveries, q.Txn)
			s.decidePaxos(q.Txn, commit.Decision{
				Commit: q.DecCommit, Subs: txnsToStrings(q.DecSubs), Final: q.DecFinal,
			})
			return Ack{OK: true}, true
		}
		rec := s.recoveries[q.Txn]
		if rec == nil || rec.ballot != q.Ballot || rec.phase != 1 {
			return Ack{OK: true}, true
		}
		if !q.OK {
			rec.phase = 0 // our ballot lost; the next trigger goes higher
			return Ack{OK: true}, true
		}
		rec.promises[q.From] = commit.Promise{OK: true, AccBal: q.AccBal, AccVal: commit.Decision{
			Commit: q.AccCommit, Subs: txnsToStrings(q.AccSubs), Final: q.AccFinal,
		}}
		if len(rec.promises) < commit.Quorum(len(rec.cohort)) {
			return Ack{OK: true}, true
		}
		// Quorum promised: choose the value consensus may already have
		// decided (highest accepted ballot; no acceptances anywhere means
		// the commit point was provably never passed — abort, the presumed-
		// abort backstop) and push Phase 2a to the whole cohort.
		proms := make([]commit.Promise, 0, len(rec.promises))
		for _, p := range rec.promises {
			proms = append(proms, p)
		}
		rec.val = commit.Choose(proms)
		rec.phase = 2
		for _, m := range rec.cohort {
			s.notifyPeer(m, PaxosRecoverAccept{
				Txn: q.Txn, Ballot: rec.ballot,
				Commit: rec.val.Commit, Subs: stringsToTxns(rec.val.Subs), Final: rec.val.Final,
				Cohort: rec.cohort, From: s.id,
			})
		}
		return Ack{OK: true}, true
	case PaxosRecoverAccept:
		// Phase 2a of a recovery round.
		if res := s.Resolved[q.Txn]; res != nil {
			s.notifyPeer(q.From, PaxosRecoverPromise{
				Txn: q.Txn, Ballot: q.Ballot, From: s.id,
				Decided: true, DecCommit: res.Committed, DecSubs: res.Subs,
			})
			return Ack{OK: true}, true
		}
		areq := PaxosAcceptReq{
			Txn: q.Txn, Ballot: q.Ballot, Commit: q.Commit,
			Subs: q.Subs, Final: q.Final, Cohort: q.Cohort,
		}
		raw, mutated := s.apply(areq)
		ar, _ := raw.(PaxosAcceptResp)
		ans := PaxosRecoverAccepted{Txn: q.Txn, Ballot: q.Ballot, From: s.id, OK: ar.OK}
		from := q.From
		s.persistThen(areq, mutated, func() { s.notifyPeer(from, ans) })
		return Ack{OK: true}, true
	case PaxosRecoverAccepted:
		// Proposer side of Phase 2b: a majority of durable acceptances at
		// our ballot decides the chosen value.
		rec := s.recoveries[q.Txn]
		if rec == nil || rec.ballot != q.Ballot || rec.phase != 2 {
			return Ack{OK: true}, true
		}
		if !q.OK {
			rec.phase = 0
			return Ack{OK: true}, true
		}
		rec.accepts[q.From] = true
		if len(rec.accepts) < commit.Quorum(len(rec.cohort)) {
			return Ack{OK: true}, true
		}
		val := rec.val
		delete(s.recoveries, q.Txn)
		s.decidePaxos(q.Txn, val)
		return Ack{OK: true}, true
	case ResolutionProbeReq:
		ans := ResolutionProbeResp{Promised: -2, AccBal: -1}
		if res := s.Resolved[q.Txn]; res != nil {
			ans.Known, ans.Committed = true, res.Committed
		}
		ans.Holds = s.holdsTxn(q.Txn.Top())
		if acc := s.Acceptors[q.Txn]; acc != nil {
			ans.Promised = acc.Promised
			ans.AccBal = acc.AccBal
			ans.AccCommit = acc.AccVal.Commit
		}
		return ans, true
	}
	return nil, false
}

// decidePaxos installs a decided outcome locally (logged, via the same
// applyLogged path as reap decisions) and broadcasts the learn message to
// every peer — the whole cluster resolves in one message, which is what
// keeps the post-crash in-doubt window at a single round-trip instead of
// a lease TTL.
func (s *dmServer) decidePaxos(top TxnID, val commit.Decision) {
	if s.Resolved[top] != nil {
		return
	}
	if s.stats != nil {
		if val.Commit {
			s.stats.AcceptorResolvesCommitted.Inc()
		} else {
			s.stats.AcceptorResolvesAborted.Inc()
		}
	}
	dec := DecisionReq{Txn: top, Commit: val.Commit, Subs: stringsToTxns(val.Subs), Final: val.Final}
	s.applyLogged(dec)
	for _, p := range s.peers {
		s.notifyPeer(p, dec)
	}
}

// --- client side: the coordinator's decide phase ---

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

// paxosDecide is the coordinator's commit decision under PaxosCommit: fan
// out Phase-2a accepts at ballot 0 to the cohort and wait for ALL answers
// (not first-to-majority — every ack is a durable log write we paid for;
// stragglers only cost latency already spent). deliver < len(cohort) is an
// injected coordinator crash mid-fan-out: only that prefix of the cohort
// hears the proposal. acked counts the durable acceptances. Outcomes:
//
//   - a majority of OKs, or a Decided-commit answer (recovery resolved
//     the instance first): nil error — proceed to the learn fan-out.
//   - a Decided-abort answer: conflict error; the ordinary abort/restart
//     path is safe (consensus decided abort, no DM can hold a commit).
//   - no majority, nothing possibly delivered: nothing anywhere remembers
//     ballot 0, so the ordinary abort path is safe too.
//   - no majority, but at least one accept may have landed: inDoubt —
//     the caller must NOT abort (an acceptor majority may yet assemble
//     around the commit); acceptor recovery owns the outcome.
func (t *Txn) paxosDecide(ctx context.Context, cohort []string, deliver int) (acked int, inDoubt bool, err error) {
	s := t.store
	req := PaxosAcceptReq{
		Txn: t.id, Ballot: 0, Commit: true,
		Subs: t.committedSubs(), Final: t.finalVNs(),
		Cohort: cohort,
	}
	type vote struct {
		acked   bool
		reached bool // an attempt may have been delivered (send not refused locally)
		decided bool
		decCom  bool
	}
	votes := make([]vote, deliver)
	var wg sync.WaitGroup
	for i, dm := range cohort[:deliver] {
		wg.Add(1)
		go func(i int, dm string) {
			defer wg.Done()
			for attempt := 0; attempt <= s.opts.lockRetries && ctx.Err() == nil; attempt++ {
				raw, cerr := s.callDM(ctx, dm, req)
				if errors.Is(cerr, errNoBudget) {
					return
				}
				// A failed call may still have been delivered and logged — only
				// the answer is missing. That possibility is what makes the
				// no-majority case in-doubt rather than abortable.
				votes[i].reached = true
				if ans, ok := raw.(PaxosAcceptResp); cerr == nil && ok {
					// Neither OK nor Decided: a recovery proposer promised a
					// higher ballot here. Our ballot-0 instance lost; recovery
					// owns the outcome.
					votes[i].acked, votes[i].decided, votes[i].decCom = ans.OK, ans.Decided, ans.DecCommit
					return
				}
				s.backoff(ctx, attempt)
			}
		}(i, dm)
	}
	wg.Wait()
	reached := 0
	for _, v := range votes {
		if v.decided {
			// Recovery decided while we were deciding: adopt — the learn
			// fan-out (commit) or conflict restart (abort) follows it.
			if v.decCom {
				return acked, false, nil
			}
			return acked, false, &ConflictError{Txn: t.id, Phase: "decide", Attempts: 1}
		}
		if v.acked {
			acked++
		}
		if v.reached {
			reached++
		}
	}
	s.Stats.PaxosAccepts.Add(int64(acked))
	if acked >= commit.Quorum(len(cohort)) {
		s.Stats.PaxosCommits.Inc()
		return acked, false, nil
	}
	if reached == 0 {
		// Every send was refused before it left this process: no acceptor
		// can have logged ballot 0, so the ordinary abort path is safe.
		return acked, false, &UnavailableError{Txn: t.id, Phase: "decide", Attempts: 1, Missing: cohort}
	}
	return acked, true, &InDoubtError{Txn: t.id, Acked: acked, Cohort: len(cohort)}
}

// ResolutionProbe asks one DM how a transaction stands there: resolution
// record, surviving locks/intentions, raw acceptor state. Diagnostics and
// chaos gating only.
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
