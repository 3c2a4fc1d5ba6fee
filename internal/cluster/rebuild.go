package cluster

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/commit"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Peer rebuild (DESIGN.md §12): the recovery path for a replica whose log
// is corrupt — or whose disk is simply gone. The quarantined replica's
// durable state is reconstructed from its peers' committed state: item
// values and configurations certified by a read quorum — the items it
// started with and every item since migrated onto it — resolution records,
// and Paxos acceptor hard state.
// The merged state is written through a fresh write-ahead log as one
// synthetic snapshot, and the replica rejoins under the same id.
//
// The rebuild deliberately restores COMMITTED state only. Locks, buffered
// intentions and leases of in-flight transactions are lost with the log;
// that is safe because the commit fence closes the gap: the rebuilt replica
// knows nothing of those transactions, so its refusal of their pre-commit
// lease renewals (knowsTxn, lease.go) aborts them cleanly before any
// commit point. Quorum intersection keeps conflicting writers out in the
// meantime — with at most a minority of an item's replicas corrupt, every
// write quorum still overlaps every other quorum at a healthy replica that
// remembers the locks.

// RebuildStats reports what one peer rebuild restored.
type RebuildStats struct {
	// Items is the number of hosted items restored with a quorum-certified
	// value and configuration.
	Items int
	// Resolved and Acceptors count restored resolution records and Paxos
	// acceptor instances.
	Resolved  int
	Acceptors int
	// Peers is how many peers answered the pull (all of them — a rebuild
	// that cannot hear every peer fails and is retried later).
	Peers int
}

// coordinateRebuild answers a quarantined peer's state pull. Read-only —
// nothing is logged — and served like the other coordination traffic, off
// the replicated state machine. The answer is this replica's own state minus
// what is in flight: the committed value and configuration of every item it
// hosts, plus ALL resolution records and the acceptor state of every Paxos
// instance whose cohort includes the rebuilding DM — and no lock, tombstone
// or intention. Every item, not just the ones the rebuilding DM started
// with: an item migrated onto it since is restored too, and a copy that
// missed the migration's writes (a bare placeholder) still counts toward
// that item's read quorum. Configurations, subs lists, cohorts and accepted
// values are replaced, never mutated in place, so the answer shares them
// with the live state.
func (s *dmServer) coordinateRebuild(req any) (resp any, handled bool) {
	q, ok := req.(RebuildPullReq)
	if !ok {
		return nil, false
	}
	out := RebuildPullResp{
		OK: true, From: s.id,
		Replicas:  make(map[string]replica, len(s.Replicas)),
		Resolved:  make(map[TxnID]resolution, len(s.Resolved)),
		Acceptors: map[TxnID]commit.Acceptor{},
	}
	for item, r := range s.Replicas {
		out.Replicas[item] = replica{VN: r.VN, Val: r.Val, Gen: r.Gen, Cfg: r.Cfg}
	}
	for t, res := range s.Resolved {
		out.Resolved[t] = *res
	}
	for t, acc := range s.Acceptors {
		if slices.Contains(acc.Cohort, q.For) {
			out.Acceptors[t] = *acc
		}
	}
	return out, true
}

// pullMerged pulls the replica's state from every peer and merges it into a
// fresh state machine — one that only seedLog reads, to write it out as a
// snapshot, so the merge adopts the answers' values without copying them.
//
// The pull requires an answer from EVERY peer, not just a quorum. Values
// only need a read quorum, but Paxos acceptor state does not shard along
// item quorums: a promise or acceptance witnessed by a single healthy
// cohort member must be restored, or a recovery round after the rebuild
// could decide against an outcome the pre-corruption replica helped decide
// (acceptor amnesia). A peer that is down — or itself quarantined — fails
// the whole rebuild; the replica stays quarantined and the caller retries
// later. That also serializes concurrent rebuilds: two quarantined
// replicas refuse each other's pulls rather than trade unrebuilt state.
func (h *DMHost) pullMerged(ctx context.Context, client transport.Client) (*dmServer, RebuildStats, error) {
	var rst RebuildStats
	peers := h.peers // sorted
	answers := make(map[string]RebuildPullResp, len(peers))
	for _, p := range peers {
		cctx, cancel := context.WithTimeout(ctx, h.st.callTimeout)
		raw, err := client.Call(cctx, p, RebuildPullReq{For: h.id})
		cancel()
		if err != nil {
			return nil, rst, fmt.Errorf("cluster: rebuild %s: pull from %s: %w", h.id, p, err)
		}
		switch r := raw.(type) {
		case RebuildPullResp:
			if !r.OK {
				return nil, rst, fmt.Errorf("cluster: rebuild %s: %s refused the pull", h.id, p)
			}
			answers[p] = r
		case QuarantinedResp:
			return nil, rst, fmt.Errorf("cluster: rebuild %s: peer %s is itself quarantined (%s)", h.id, p, r.Reason)
		default:
			return nil, rst, fmt.Errorf("cluster: rebuild %s: unexpected answer %T from %s", h.id, r, p)
		}
	}

	srv := newDMState(h.id, h.items)
	rst.Peers = len(peers)

	// Per-item merge: the answers holding the item must cover a read quorum
	// of the highest configuration generation seen — then the maximum
	// version among them is at least the newest committed version, by
	// quorum intersection. The items are the ones this DM started with and
	// every other one whose newest configuration names it: migrated here
	// since, so its copy here may be one a read quorum needs.
	started := map[string]bool{} // every item to merge: whether this DM started with it
	for _, p := range peers {
		for item := range answers[p].Replicas {
			started[item] = false
		}
	}
	for _, it := range h.items {
		started[it.Name] = true
	}
	names := make([]string, 0, len(started))
	for item := range started {
		names = append(names, item)
	}
	sort.Strings(names)
	for _, item := range names {
		var best *replica
		have := map[string]bool{}
		for _, p := range peers {
			st, ok := answers[p].Replicas[item]
			if !ok {
				continue
			}
			have[p] = true
			if best == nil {
				best = &st
				continue
			}
			if st.Gen > best.Gen {
				best.Gen, best.Cfg = st.Gen, st.Cfg
			}
			if st.VN > best.VN {
				best.VN, best.Val = st.VN, st.Val
			}
		}
		if best == nil {
			return nil, rst, fmt.Errorf("cluster: rebuild %s: no peer holds a copy of %q (single-replica items cannot be rebuilt)", h.id, item)
		}
		if !started[item] && !slices.Contains(best.Cfg.Members(), h.id) {
			continue // not this DM's item
		}
		if !best.Cfg.HasReadQuorum(have) {
			return nil, rst, fmt.Errorf("cluster: rebuild %s: peers holding %q do not cover a read quorum of gen %d", h.id, item, best.Gen)
		}
		srv.Replicas[item] = best
		rst.Items++
	}

	// Resolution records: union across peers, preferring answers that still
	// carry the committed-subs payload over retention tombstones. Verdicts
	// must agree — a commit here and an abort there is a serializability
	// violation already in progress, and rebuilding over it would bury it.
	for _, p := range peers {
		for t, res := range answers[p].Resolved {
			prev := srv.Resolved[t]
			if prev == nil {
				srv.Resolved[t] = &res
				continue
			}
			if prev.Committed != res.Committed {
				return nil, rst, fmt.Errorf("cluster: rebuild %s: peers disagree on outcome of %s", h.id, t)
			}
			if prev.Subs == nil {
				prev.Subs = res.Subs
			}
		}
	}
	rst.Resolved = len(srv.Resolved)

	// Acceptor hard state, for every undecided Paxos instance this DM is a
	// cohort member of. Every cohort member except this DM must be among
	// the answered peers — a promise or acceptance witnessed only by an
	// absent member would otherwise be lost, which is exactly the acceptor
	// amnesia the all-peers pull exists to prevent. Promised watermarks
	// merge by maximum, each with the proposer it was promised to (to nobody
	// when two peers promised that ballot to different proposers: the
	// rebuilt acceptor must then grant neither a retry); the accepted value
	// rides the highest accepted ballot. Instances some peer already
	// resolved are dropped — the resolution record answers for them now.
	for _, p := range peers {
		for t, acc := range answers[p].Acceptors {
			if srv.Resolved[t.Top()] != nil {
				continue
			}
			m := srv.Acceptors[t]
			if m == nil {
				srv.Acceptors[t] = &acc
				continue
			}
			switch {
			case acc.Promised > m.Promised:
				m.Promised, m.PromisedTo = acc.Promised, acc.PromisedTo
			case acc.Promised == m.Promised && acc.PromisedTo != m.PromisedTo:
				m.PromisedTo = ""
			}
			if acc.AccBal > m.AccBal {
				m.AccBal, m.AccVal = acc.AccBal, acc.AccVal
			}
		}
	}
	for t, m := range srv.Acceptors {
		answered := 0
		for _, member := range m.Cohort {
			if member == h.id {
				continue
			}
			if _, ok := answers[member]; ok {
				answered++
			} else {
				return nil, rst, fmt.Errorf("cluster: rebuild %s: cohort member %s of instance %s did not answer the pull", h.id, member, t)
			}
		}
		if answered+1 < commit.Quorum(len(m.Cohort)) {
			// Unreachable with a full cohort answering; kept as a guard
			// against malformed cohorts.
			return nil, rst, fmt.Errorf("cluster: rebuild %s: instance %s lacks a quorum of witnesses", h.id, t)
		}
	}
	rst.Acceptors = len(srv.Acceptors)

	srv.reindex() // the replicas were replaced wholesale above
	return srv, rst, nil
}

// seedLog moves the untrusted log directory aside (kept for post-mortems,
// never deleted) and writes the merged state into a fresh log as its one
// snapshot, so the next start recovers exactly that state.
func (h *DMHost) seedLog(srv *dmServer) error {
	if _, err := os.Stat(h.dir); err == nil {
		moved := false
		for n := 0; n < 1000 && !moved; n++ {
			aside := fmt.Sprintf("%s.corrupt-%d", h.dir, n)
			if _, err := os.Stat(aside); err == nil {
				continue
			}
			if err := os.Rename(h.dir, aside); err != nil {
				return fmt.Errorf("cluster: rebuild %s: move corrupt log aside: %w", h.id, err)
			}
			moved = true
		}
		if !moved {
			return fmt.Errorf("cluster: rebuild %s: no free .corrupt-N slot beside %s", h.id, h.dir)
		}
	}
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return fmt.Errorf("cluster: rebuild %s: %w", h.id, err)
	}
	state, err := encodeSnapshot(srv)
	if err != nil {
		return err
	}
	log, _, err := wal.Open(h.dir, h.st.walOpts...)
	if err != nil {
		return fmt.Errorf("cluster: rebuild %s: fresh log: %w", h.id, err)
	}
	defer log.Close()
	if err := log.WriteSnapshot(state); err != nil {
		return fmt.Errorf("cluster: rebuild %s: seed snapshot: %w", h.id, err)
	}
	return nil
}

// rebuild replaces this host with one whose state comes from its peers:
// Close, pull and merge, seed a fresh log with the merged state, start. The
// returned host is the slot's new occupant either way. On success it is a
// healthy host with Rebuilt set; on any failure it is this host's twin
// serving the typed refusal — the verdict that was already set, or else the
// failure itself — so the caller can retry once the peers are reachable.
func (h *DMHost) rebuild(ctx context.Context, client transport.Client) (*DMHost, error) {
	if h.dir == "" {
		return h, fmt.Errorf("cluster: DM %q is not durable", h.id)
	}
	if len(h.peers) == 0 {
		return h, fmt.Errorf("cluster: DM %q has no peers to rebuild from", h.id)
	}
	h.Close()
	srv, rst, err := h.pullMerged(ctx, client)
	if err == nil {
		err = h.seedLog(srv)
	}
	if err == nil {
		var nh *DMHost
		if nh, err = start(h.tr, h.id, h.items, h.peers, h.st, h.Stats); err == nil {
			nh.recovery = RecoveryStats{} // the seed snapshot is the rebuild's, not a recovery
			nh.Rebuilt = &rst
			h.Stats.Rebuilds.Inc()
			h.Stats.RebuiltItems.Add(int64(rst.Items))
			return nh, nil
		}
	}
	cause := h.Quarantined()
	if cause == nil {
		cause = err
	}
	twin := newHost(h.tr, h.id, h.items, h.peers, h.st, h.Stats)
	twin.verdict.Store(&cause) // not quarantine(): this quarantine was counted when it began
	if twin.serve() != nil {
		return h, err // the id cannot be served at all: the slot keeps the closed host
	}
	return twin, err
}

// RebuildReplica replaces a quarantined (or otherwise untrusted) durable
// replica with state pulled from its peers — the recovery path for disk
// corruption, where RestartDM's log replay has nothing trustworthy to
// replay. On any failure the slot keeps serving the typed refusal, so the
// caller can retry once the peers are reachable again.
func (s *Store) RebuildReplica(ctx context.Context, id string) (RebuildStats, error) {
	h := s.host(id)
	if h == nil {
		return RebuildStats{}, fmt.Errorf("cluster: unknown DM %q", id)
	}
	nh, err := h.rebuild(ctx, s.client)
	s.mu.Lock()
	s.dms[id] = nh
	s.mu.Unlock()
	if err != nil {
		return RebuildStats{}, err
	}
	return *nh.Rebuilt, nil
}

// QuarantinedDMs lists the store's currently quarantined replicas, sorted.
// Empty on a healthy cluster — the chaos harness's exit gate.
func (s *Store) QuarantinedDMs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, h := range s.dms {
		if h.Quarantined() != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// DMHealth is one replica's status as observed over the wire — what
// `qcstore client -inspect health` prints per replica.
type DMHealth struct {
	DM     string
	Status string // "healthy", "quarantined" or "unreachable"
	Detail string // quarantine cause or transport error; empty when healthy
}

// ProbeHealth pings every DM named by the store's item specs and classifies
// each answer: Ack{OK: true} is healthy, the typed refusal is quarantined
// (with its cause), and anything else — a timeout, a refused connection, a
// wrong answer — is unreachable. Works from pure client stores; each probe
// is bounded by the store's call budget.
func (s *Store) ProbeHealth(ctx context.Context) []DMHealth {
	dms := s.DMs()
	out := make([]DMHealth, 0, len(dms))
	for _, dm := range dms {
		h := DMHealth{DM: dm}
		raw, err := s.callDM(ctx, dm, PingReq{})
		switch r := raw.(type) {
		case QuarantinedResp:
			h.Status, h.Detail = "quarantined", r.Reason
		case Ack:
			h.Status = "healthy"
			if !r.OK {
				h.Status, h.Detail = "unreachable", "ping refused"
			}
		default:
			h.Status = "unreachable"
			if err != nil {
				h.Detail = err.Error()
			} else {
				h.Detail = fmt.Sprintf("unexpected answer %T", raw)
			}
		}
		out = append(out, h)
	}
	return out
}
