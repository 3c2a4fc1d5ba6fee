package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"repro/internal/commit"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The durable replica path makes the paper's resilient-object assumption
// honest: a DM's versioned value, quorum configuration, lock table,
// intention list and resolution set live in a write-ahead log, and no
// state-mutating request is acknowledged before its log record is durable.
// Recovery rebuilds the DM by replaying the log through the same apply()
// state machine that produced it, so a restarted replica answers exactly as
// the pre-crash one would — which is what lets an amnesia-crashed
// write-quorum member keep counting toward the quorum intersection
// invariant (Lemma 8) after it comes back.

// walRecord wraps one logged request so gob can carry the request types
// through an interface field.
type walRecord struct {
	Req any
}

// The request types a WAL record can carry are gob-registered in wire.go
// alongside every other protocol type — one registry for log and network.

// encodeRecord serializes one state-mutating request for the log.
func encodeRecord(req any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(walRecord{Req: req}); err != nil {
		return nil, fmt.Errorf("cluster: encode wal record: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeRecord reverses encodeRecord.
func decodeRecord(b []byte) (any, error) {
	var rec walRecord
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("cluster: decode wal record: %w", err)
	}
	return rec.Req, nil
}

// intentSnap is the exported mirror of intent for snapshots.
type intentSnap struct {
	Owner    TxnID
	IsConfig bool
	VN       int
	Val      any
	Gen      int
	Cfg      quorum.Config
}

// replicaSnap is the exported mirror of one replica's full state.
type replicaSnap struct {
	Item     string
	VN       int
	Val      any
	Gen      int
	Cfg      quorum.Config
	Locks    map[TxnID]LockMode
	Intents  []intentSnap
	LockSeqs map[TxnID]int
	LockBorn map[TxnID]int
	Released map[TxnID]int
}

// resolutionSnap is the exported mirror of a resolution record.
type resolutionSnap struct {
	Committed bool
	Subs      []TxnID
}

// dmSnap is a whole DM's state at one point in the log.
type dmSnap struct {
	Replicas []replicaSnap
	Resolved map[TxnID]resolutionSnap
	// Moved carries the migration retirement markers: hard state like the
	// replicas themselves — a compacted log must still answer WrongShard
	// redirects for items this DM retired.
	Moved map[string]WrongShardResp
	// Acceptors carries the Paxos Commit acceptor hard state (promise
	// watermarks and accepted outcome values): a compacted log must still
	// let a majority reconstruct an undecided instance's outcome. Absent
	// from pre-Paxos snapshots, which gob decodes as nil.
	Acceptors map[TxnID]commit.Acceptor
}

// encodeSnapshot serializes the DM's complete state. Replicas are listed in
// item order so snapshots of identical state are structurally identical.
// Leases, in-flight inquiries, and freshness hints are soft state and
// deliberately absent: recovery re-stamps fresh leases (which only delays
// reaping) and rebuilds an empty hint table (a recovered replica serves no
// hinted reads until a commit or the sweeper re-proves its freshness).
func encodeSnapshot(s *dmServer) ([]byte, error) {
	snap := dmSnap{Resolved: map[TxnID]resolutionSnap{}}
	for t, res := range s.resolved {
		snap.Resolved[t] = resolutionSnap{Committed: res.committed, Subs: res.subs}
	}
	if len(s.moved) > 0 {
		snap.Moved = map[string]WrongShardResp{}
		for item, w := range s.moved {
			snap.Moved[item] = w
		}
	}
	if len(s.acceptors) > 0 {
		snap.Acceptors = map[TxnID]commit.Acceptor{}
		for t, acc := range s.acceptors {
			snap.Acceptors[t] = *acc
		}
	}
	names := make([]string, 0, len(s.replicas))
	for name := range s.replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.replicas[name]
		rs := replicaSnap{
			Item: name, VN: r.vn, Val: r.val, Gen: r.gen, Cfg: r.cfg.Clone(),
			Locks:    r.locks,
			LockSeqs: r.lockSeqs, LockBorn: r.lockBorn, Released: r.released,
		}
		for _, in := range r.intents {
			rs.Intents = append(rs.Intents, intentSnap{
				Owner: in.owner, IsConfig: in.isConfig,
				VN: in.vn, Val: in.val, Gen: in.gen, Cfg: in.cfg.Clone(),
			})
		}
		snap.Replicas = append(snap.Replicas, rs)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("cluster: encode wal snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// restoreSnapshot overwrites the DM's state with a decoded snapshot.
func restoreSnapshot(s *dmServer, b []byte) error {
	var snap dmSnap
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return fmt.Errorf("cluster: decode wal snapshot: %w", err)
	}
	s.resolved = map[TxnID]*resolution{}
	for t, rs := range snap.Resolved {
		s.resolved[t] = &resolution{committed: rs.Committed, subs: rs.Subs}
	}
	s.moved = map[string]WrongShardResp{}
	for item, w := range snap.Moved {
		s.moved[item] = w
	}
	s.acceptors = map[TxnID]*commit.Acceptor{}
	for t, acc := range snap.Acceptors {
		a := acc
		s.acceptors[t] = &a
	}
	s.replicas = map[string]*replica{}
	for _, rs := range snap.Replicas {
		r := &replica{
			vn: rs.VN, val: rs.Val, gen: rs.Gen, cfg: rs.Cfg,
			locks:    rs.Locks,
			lockSeqs: rs.LockSeqs, lockBorn: rs.LockBorn, released: rs.Released,
		}
		if r.locks == nil {
			r.locks = map[TxnID]LockMode{}
		}
		for _, in := range rs.Intents {
			r.intents = append(r.intents, intent{
				owner: in.Owner, isConfig: in.IsConfig,
				vn: in.VN, val: in.Val, gen: in.Gen, cfg: in.Cfg,
			})
		}
		s.replicas[rs.Item] = r
	}
	s.reindex()
	return nil
}

// RecoveryStats reports what a durable DM rebuilt when it opened its log.
type RecoveryStats struct {
	// Replayed is the number of log records re-applied through the state
	// machine.
	Replayed int
	// FromSnapshot reports whether a snapshot seeded the state before
	// replay.
	FromSnapshot bool
	// TruncatedBytes is the torn log tail dropped during open.
	TruncatedBytes int64
}

// defaultSnapshotEvery is how many logged records a durable DM absorbs
// before writing a compacting snapshot.
const defaultSnapshotEvery = 1024

// dmWAL couples one DM state machine to its write-ahead log. Its handle
// method runs on the sim node's single loop goroutine (actor discipline);
// only the deferred replies escape to the log's flusher goroutine.
type dmWAL struct {
	srv *dmServer
	log *wal.Log

	snapEvery int
	sinceSnap int

	// quarMu guards quarErr, the sticky quarantine verdict. Set on the
	// first failed append (ENOSPC, I/O error — the log also poisons
	// itself), read by the handler on the loop goroutine and by Store
	// accessors on theirs. Once set, the DM answers QuarantinedResp to
	// everything: the in-memory state may already be ahead of the durable
	// log, so serving (or promising) anything would hand out state a
	// restart cannot honor. Only a peer rebuild clears the condition — by
	// replacing the whole handle.
	quarMu  sync.Mutex
	quarErr error
}

// quarantine records the fault that ends this incarnation's service,
// counting the first occurrence. Callable from the log's flusher goroutine
// (append callbacks) as well as the loop goroutine.
func (d *dmWAL) quarantine(err error) {
	d.quarMu.Lock()
	first := d.quarErr == nil
	d.quarErr = err
	d.quarMu.Unlock()
	if first && d.srv.stats != nil {
		d.srv.stats.Quarantines.Inc()
	}
}

// quarantined returns the sticky quarantine verdict, nil while healthy.
func (d *dmWAL) quarantined() error {
	d.quarMu.Lock()
	defer d.quarMu.Unlock()
	return d.quarErr
}

// handle applies a request and defers its reply until the corresponding log
// record is durable — the persist-before-ack discipline. Requests that
// mutate nothing (refusals, inspections, idempotent re-deliveries) reply
// immediately: a restart loses nothing they promised. Because the log is
// sequential, a record's durability implies every earlier record's, so an
// acked request can never be contradicted by recovery.
func (d *dmWAL) handle(_ string, req any, reply func(any)) {
	// A quarantined replica serves nothing — not even reads or lease
	// coordination. Its in-memory state may be ahead of the durable log
	// (the apply that hit the failed append already ran), and its log is
	// untrusted; every answer is the typed refusal until a peer rebuild
	// replaces this incarnation.
	if qerr := d.quarantined(); qerr != nil {
		reply(QuarantinedResp{DM: d.srv.id, Reason: qerr.Error()})
		return
	}
	// Hinted reads translate to plain ReadReqs before the apply/log path
	// sees them (as in the volatile handler): the log carries only the
	// equivalent ReadReq, so replay never consults hint state, and a miss
	// is answered without logging anything.
	if q, ok := req.(HintReadReq); ok {
		rr, miss := d.srv.hintCheck(q)
		if miss != nil {
			reply(*miss)
			return
		}
		req = rr
	}
	if resp, handled := d.srv.coordinate(req); handled {
		// Lease coordination (renewals, resolution queries and answers) is
		// soft state and never logged; the reap decisions it produces come
		// back through selfApply, which does persist them.
		reply(resp)
		return
	}
	resp, mutated := d.srv.apply(req)
	if !mutated {
		reply(resp)
		return
	}
	rec, err := encodeRecord(req)
	if err != nil {
		return // cannot persist ⇒ never acknowledge
	}
	// Fail closed on write errors: an append the log refuses (or fails at
	// flush — ENOSPC, a dying disk) quarantines the replica instead of
	// silently dropping the ack. The caller learns immediately rather than
	// burning its timeout, and no later request can be served from state
	// the log no longer backs.
	if aerr := d.log.AppendCallback(rec, func(ferr error) {
		if ferr == nil {
			reply(resp)
			return
		}
		d.quarantine(ferr)
		reply(QuarantinedResp{DM: d.srv.id, Reason: ferr.Error()})
	}); aerr != nil {
		d.quarantine(aerr)
		reply(QuarantinedResp{DM: d.srv.id, Reason: aerr.Error()})
		return
	}
	d.maybeSnapshot()
}

// selfApply routes a reap decision through the same apply+log path as
// client requests, minus the reply — there is no caller to acknowledge.
// It runs on the node's loop goroutine (coordinate calls it), so the
// single-writer discipline of the log holds. A reap whose record is lost
// to a crash before the flush is simply re-decided after recovery: the
// restored locks get fresh leases, lapse again, and the inquiry re-runs.
func (d *dmWAL) selfApply(req any) {
	if d.quarantined() != nil {
		return
	}
	_, mutated := d.srv.apply(req)
	if !mutated {
		return
	}
	rec, err := encodeRecord(req)
	if err != nil {
		return
	}
	if aerr := d.log.AppendCallback(rec, func(ferr error) {
		if ferr != nil {
			d.quarantine(ferr)
		}
	}); aerr != nil {
		d.quarantine(aerr)
		return
	}
	d.maybeSnapshot()
}

// persist logs one already-applied mutating request and runs done once the
// record is durable — the deferred half of the persist-before-ack
// discipline for acceptor answers that travel as peer notifications
// instead of replies. done is captured on the loop goroutine and only
// sends; it never reads actor state (it runs on the log's flusher).
// A record lost to a crash before the flush never answered, so the
// recovered acceptor never contradicts a promise it sent.
func (d *dmWAL) persist(req any, done func()) {
	if d.quarantined() != nil {
		return
	}
	rec, err := encodeRecord(req)
	if err != nil {
		return // cannot persist ⇒ never answer
	}
	if aerr := d.log.AppendCallback(rec, func(ferr error) {
		if ferr == nil {
			done()
			return
		}
		d.quarantine(ferr)
	}); aerr != nil {
		d.quarantine(aerr)
		return
	}
	d.maybeSnapshot()
}

func (d *dmWAL) maybeSnapshot() {
	d.sinceSnap++
	if d.sinceSnap < d.snapEvery {
		return
	}
	d.sinceSnap = 0
	// The state already reflects every appended record (single-writer:
	// this goroutine is the only appender), which is exactly what
	// WriteSnapshot requires.
	if state, err := encodeSnapshot(d.srv); err == nil {
		d.log.WriteSnapshot(state)
	}
}

// newDurableDM opens (or recovers) the write-ahead log in dir, rebuilds the
// DM state machine from it, and starts its server endpoint. wire, when
// non-nil, configures the recovered state machine (lease parameters, peer
// transport) after replay and before the endpoint starts serving.
//
// A log that fails to open with a CorruptionError — damage beyond the
// torn-tail truncation Open performs itself — does NOT fail the call:
// acknowledged state may be missing or altered, so instead of serving from
// an untrustworthy log (or crashing the whole store over one disk) the
// replica comes up quarantined, answering QuarantinedResp to everything
// until a peer rebuild (Store.RebuildReplica) replaces it. Callers detect
// the condition via dmHandle.quarantineReason.
func newDurableDM(tr transport.Transport, id string, items []ItemSpec, dir string, walOpts []wal.Option, snapEvery int, wire func(*dmServer), serveOpts ...transport.ServeOption) (*dmHandle, RecoveryStats, error) {
	log, rec, err := wal.Open(dir, walOpts...)
	if err != nil {
		if wal.IsCorruption(err) {
			h, qerr := quarantinedDM(tr, id, items, dir, fmt.Errorf("cluster: dm %s: %w", id, err), serveOpts...)
			return h, RecoveryStats{}, qerr
		}
		return nil, RecoveryStats{}, fmt.Errorf("cluster: dm %s: %w", id, err)
	}
	srv := newDMState(id, items)
	stats := RecoveryStats{TruncatedBytes: rec.TruncatedBytes}
	if rec.Snapshot != nil {
		if err := restoreSnapshot(srv, rec.Snapshot); err != nil {
			log.Close()
			return nil, RecoveryStats{}, err
		}
		stats.FromSnapshot = true
	}
	for _, raw := range rec.Records {
		req, err := decodeRecord(raw)
		if err != nil {
			log.Close()
			return nil, RecoveryStats{}, err
		}
		srv.apply(req)
		stats.Replayed++
	}
	h, err := startDurableDM(tr, id, items, dir, log, srv, snapEvery, wire, serveOpts...)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	return h, stats, nil
}

// startDurableDM couples an already-recovered (or rebuilt) state machine to
// its open log and starts the server endpoint — the shared tail of
// newDurableDM and rebuildReplica.
func startDurableDM(tr transport.Transport, id string, items []ItemSpec, dir string, log *wal.Log, srv *dmServer, snapEvery int, wire func(*dmServer), serveOpts ...transport.ServeOption) (*dmHandle, error) {
	if snapEvery <= 0 {
		snapEvery = defaultSnapshotEvery
	}
	d := &dmWAL{srv: srv, log: log, snapEvery: snapEvery}
	if wire != nil {
		wire(srv)
	}
	srv.selfApply = d.selfApply
	srv.persist = d.persist
	// Lease stamps from the previous incarnation are meaningless wall-clock
	// values; give every recovered lock holder a fresh lease. Delayed
	// reaping is always safe, invented expiry is not.
	srv.refreshLeases()
	h := &dmHandle{id: id, items: items, srv: srv, wal: d, walPath: dir}
	server, err := tr.Serve(id, d.handle, serveOpts...)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("cluster: dm %s: %w", id, err)
	}
	// The state machine's peer sender binds to the live endpoint only now;
	// any lease poll that fired during the gap is re-sent on the next
	// conflict, so the brief sender-less window is harmless.
	srv.setSender(server.Notify)
	h.server = server
	return h, nil
}

// quarantinedDM serves a replica slot whose log cannot be trusted: every
// request — reads, writes, leases, probes, Paxos — is answered with the
// typed refusal. The handle keeps the items and log path so RebuildReplica
// knows what to rebuild and where; srv is a fresh empty state machine so
// accessors that reach through the handle keep working.
func quarantinedDM(tr transport.Transport, id string, items []ItemSpec, dir string, cause error, serveOpts ...transport.ServeOption) (*dmHandle, error) {
	h := &dmHandle{
		id: id, items: items, srv: newDMState(id, items),
		walPath: dir, quarantined: cause,
	}
	reason := cause.Error()
	server, err := tr.Serve(id, func(_ string, _ any, reply func(any)) {
		reply(QuarantinedResp{DM: id, Reason: reason})
	}, serveOpts...)
	if err != nil {
		return nil, fmt.Errorf("cluster: dm %s: %w", id, err)
	}
	h.server = server
	return h, nil
}

// RestartDM simulates recovery from an amnesia crash of one DM: the server
// endpoint is torn down, its in-memory state discarded, and a fresh state
// machine is rebuilt purely from the DM's write-ahead log. The endpoint
// then rejoins the transport under the same id. Only valid on stores
// opened with WithDurability.
func (s *Store) RestartDM(id string) (RecoveryStats, error) {
	s.mu.Lock()
	h := s.dms[id]
	s.mu.Unlock()
	if h == nil {
		return RecoveryStats{}, fmt.Errorf("cluster: unknown DM %q", id)
	}
	if h.walPath == "" {
		return RecoveryStats{}, fmt.Errorf("cluster: DM %q is not durable", id)
	}
	h.server.Close()
	if h.wal != nil {
		if err := h.wal.log.Close(); err != nil && h.wal.quarantined() == nil {
			// A quarantined incarnation's poisoned log reports its sticky
			// error at close; that is old news, not a reason to refuse the
			// restart (which will re-judge the log from disk).
			return RecoveryStats{}, fmt.Errorf("cluster: dm %s: close wal: %w", id, err)
		}
	}
	s.mu.Lock()
	all := make([]string, 0, len(s.dms))
	for dm := range s.dms {
		all = append(all, dm)
	}
	s.mu.Unlock()
	sort.Strings(all)
	nh, stats, err := newDurableDM(s.tr, id, h.items, h.walPath, s.opts.walOpts, s.opts.snapEvery, s.leaseWiring(id, peersOf(id, all)), s.dmServeOpts(id)...)
	if err != nil {
		return RecoveryStats{}, err
	}
	s.mu.Lock()
	s.dms[id] = nh
	s.mu.Unlock()
	if nh.quarantined != nil {
		// The restart found a log it cannot trust. The slot serves the typed
		// refusal until RebuildReplica replaces it; the restart itself did not
		// fail — the caller decides when (and whether) to rebuild.
		s.Stats.Quarantines.Inc()
		return RecoveryStats{}, nil
	}
	s.Stats.Recoveries.Inc()
	s.Stats.ReplayedRecords.Add(int64(stats.Replayed))
	return stats, nil
}

// WALMetrics returns the write-ahead-log metrics of one durable DM, or nil
// for volatile stores and unknown ids.
func (s *Store) WALMetrics(id string) *wal.Metrics {
	s.mu.Lock()
	h := s.dms[id]
	s.mu.Unlock()
	if h == nil || h.wal == nil {
		return nil
	}
	return h.wal.log.Metrics()
}
