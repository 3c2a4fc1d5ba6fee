package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// DMHost is one replica and the only owner of everything it is made of: the
// DM state machine, its write-ahead log (nil when the replica is volatile),
// its serving endpoint and its quarantine verdict. Store.Open starts one per
// replica site and a `qcstore serve` process (ServeDM) starts exactly one —
// through the same start, the same wiring, the same request handler and the
// same Close — so the cluster a test, chaos campaign or benchmark opens is
// made of the hosts a deployment runs. A host's parts are fixed once start
// returns: restarting or rebuilding a replica closes its host and starts
// another in the slot.
type DMHost struct {
	tr    transport.Transport
	id    string
	items []ItemSpec // the items this replica hosts
	peers []string   // every other DM of the cluster, sorted: whom a rebuild pulls from
	st    settings
	dir   string // the log's directory, "" on a volatile host

	srv    *dmServer
	log    *wal.Log // nil on a volatile host and on one quarantined at open
	server transport.Server

	// rec is the buffer records are encoded into; touched only by handle,
	// on the serving goroutine.
	rec []byte

	// verdict is the sticky quarantine verdict, nil while healthy. Set when
	// the log fails to open with a CorruptionError, or on the first failed
	// append (ENOSPC, I/O error — the log also poisons itself), possibly
	// from the log's flusher goroutine. Once set, the host answers
	// QuarantinedResp to everything: its in-memory state may already be
	// ahead of the durable log, so serving (or promising) anything would
	// hand out state a restart cannot honor. Only a peer rebuild clears the
	// condition — by starting another host in the slot.
	verdict atomic.Pointer[error]

	closeOnce sync.Once

	recovery RecoveryStats

	// Rebuilt, when non-nil, reports that this host was started by a peer
	// rebuild, with what the rebuild restored.
	Rebuilt *RebuildStats

	// Stats receives the host-side counters: recoveries, quarantines,
	// rebuilds and resolution-record evictions. A host a Store started shares
	// the store's; a ServeDM host has its own, whose client-side counters
	// stay zero.
	Stats *Stats
}

// defaultResolvedRetention is how many resolution records a DM keeps with
// their full committed-subs payload before the oldest compact to outcome
// tombstones (the verdict alone). The window only needs to outlive the
// straggler horizon — a replica that missed a commit hears about it from a
// client its locks block, or from ResolveOrphans, long before 4096 later
// transactions resolve.
const defaultResolvedRetention = 4096

// start brings up the replica id hosting items: the state machine at the
// items' initial values or, when st names a log directory, recovered from
// the log under it, then wired and served on tr. It is the only way a
// replica comes to exist; Open, ServeDM, RestartDM and a peer rebuild all
// end here.
//
// A log that fails to open with a CorruptionError — damage beyond the
// torn-tail truncation the log performs itself — does NOT fail the start:
// acknowledged state may be missing or altered, so instead of serving from
// an untrustworthy log (or taking the whole cluster down over one disk) the
// host comes up quarantined, with an empty state machine and no log, until
// a peer rebuild replaces it.
func start(tr transport.Transport, id string, items []ItemSpec, peers []string, st settings, stats *Stats) (*DMHost, error) {
	h := newHost(tr, id, items, peers, st, stats)
	if h.dir != "" {
		if err := h.recover(); err != nil {
			return nil, err
		}
	}
	if err := h.serve(); err != nil {
		return nil, err
	}
	return h, nil
}

// newHost assembles a host around a state machine at the items' initial
// values: not recovered, not serving.
func newHost(tr transport.Transport, id string, items []ItemSpec, peers []string, st settings, stats *Stats) *DMHost {
	h := &DMHost{tr: tr, id: id, items: items, peers: peers, st: st, Stats: stats, srv: newDMState(id, items)}
	if st.walDir != "" {
		h.dir = filepath.Join(st.walDir, id)
	}
	return h
}

// wire configures the state machine for service. It runs after recovery
// replay — replay must see no retention cap, so a recovered replica never
// compacts what it replays — and before the endpoint exists.
func (h *DMHost) wire() {
	h.srv.configure(h.st, h.Stats)
	// Replay's grants stamped leases on the default wall clock, and a logged
	// release may since have dropped the lock one was for: drop them all and
	// give every recovered lock holder a fresh lease on the host's clock.
	// Delayed resolution is always safe, invented expiry is not.
	h.srv.refreshLeases()
}

// serve wires the state machine and puts the host on the transport — the
// package's one Serve call. With WithAdmissionCapacity armed the endpoint
// gets a bounded priority service queue that rejects shed and expired work
// with an explicit OverloadedResp naming the DM.
func (h *DMHost) serve() error {
	h.wire()
	var opts []transport.ServeOption
	if h.st.admitCap > 0 {
		opts = append(opts, transport.WithAdmission(transport.AdmissionConfig{
			Capacity:     h.st.admitCap,
			Classify:     classifyRequest,
			Reject:       func(req any, expired bool) any { return OverloadedResp{DM: h.id, Expired: expired} },
			Clock:        h.st.clock,
			ServiceDelay: h.st.serviceTime,
			ServeExpired: h.st.admitServeExpired,
			OnDepth:      func(d int) { h.Stats.QueueDepth.Observe(int64(d)) },
		}))
	}
	server, err := h.tr.Serve(h.id, h.handle, opts...)
	if err != nil {
		if h.log != nil {
			h.log.Close()
		}
		return fmt.Errorf("cluster: serve DM %s: %w", h.id, err)
	}
	h.server = server
	return nil
}

// handle is the replica's request handler, invoked on the endpoint's single
// serving goroutine (the actor discipline); only deferred replies escape to
// the log's flusher goroutine. A request that mutated the state machine is
// answered once its log record is durable — persist-before-ack — and at
// once, like every other answer, when the host keeps no log (no deferred
// reply is even built: the seeded chaos replays are sensitive to what a
// volatile replica allocates per request). Requests that mutate nothing (refusals,
// inspections, probes, idempotent re-deliveries, lease coordination) reply
// immediately: a restart loses nothing they promised. Because the log is
// sequential, a record's durability implies every earlier record's, so an
// acked request can never be contradicted by recovery.
func (h *DMHost) handle(_ string, req any, reply func(any)) {
	// A quarantined replica serves nothing — not even reads or lease
	// coordination: every answer is the typed refusal.
	if qerr := h.Quarantined(); qerr != nil {
		reply(QuarantinedResp{DM: h.id, Reason: qerr.Error()})
		return
	}
	// Coordination (renewals, probes, the refusal of a presumed abort, rebuild
	// pulls) is soft state and never logged.
	if resp, handled := h.srv.coordinate(req); handled {
		reply(resp)
		return
	}
	// The record is the request itself, so it is encoded before apply: a
	// request the codec cannot carry (a value that crossed no wire, as
	// in-process traffic does) is refused with state and log untouched.
	if h.log != nil {
		var err error
		if h.rec, err = wire.AppendStamped(h.rec[:0], req); err != nil {
			reply(QuarantinedResp{DM: h.id, Reason: err.Error()})
			return
		}
	}
	resp, mutated := h.srv.apply(req)
	if !mutated || h.log == nil {
		reply(resp)
		return
	}
	h.logThen(func(err error) {
		if err != nil {
			// Fail closed: the caller learns at once rather than burning its
			// timeout on an ack that will never come.
			reply(QuarantinedResp{DM: h.id, Reason: err.Error()})
			return
		}
		reply(resp)
	})
}

// logThen appends the record handle encoded for one already-applied
// mutating request and runs done once the record is durable. Only a host
// with a log gets here: the handler answers at once without one. It is the
// one append in the package, and handle its one caller: every record is a
// client's request, every done a reply. done runs on the log's flusher
// goroutine and must not touch actor state. An append the log refuses or
// fails to flush (ENOSPC, a dying disk) quarantines the host and hands done
// the error; a record lost to a crash before its flush never ran done, so
// recovery contradicts nothing the replica said. Once the log has outgrown
// its last snapshot, logThen encodes the state and hands it to the log,
// whose flusher writes it.
func (h *DMHost) logThen(done func(error)) {
	if err := h.log.AppendCallback(h.rec, func(ferr error) {
		if ferr != nil {
			h.quarantine(ferr)
		}
		done(ferr)
	}); err != nil {
		h.quarantine(err)
		done(err)
		return
	}
	if !h.log.SnapshotDue() {
		return
	}
	// The state already reflects every appended record (this goroutine is
	// the only appender), which is exactly what a snapshot requires; the
	// log's flusher writes it.
	if state, err := encodeSnapshot(h.srv); err == nil {
		h.log.Snapshot(state)
	}
}

// quarantine records the fault that ends this host's service; the first one
// sticks and is counted.
func (h *DMHost) quarantine(err error) {
	if h.verdict.CompareAndSwap(nil, &err) {
		h.Stats.Quarantines.Inc()
	}
}

// Quarantined reports why the host refuses service — its log was corrupt at
// start or failed an append since — or nil while it is healthy.
func (h *DMHost) Quarantined() error {
	if p := h.verdict.Load(); p != nil {
		return *p
	}
	return nil
}

// harness returns the overload-harness view of the host's endpoint, or nil
// when the backend does not support it (or no admission queue is armed —
// both sim and TCP servers expose the capability only through this optional
// interface).
func (h *DMHost) harness() transport.OverloadHarness {
	oh, _ := h.server.(transport.OverloadHarness)
	return oh
}

// Recovery reports what the host rebuilt from its write-ahead log at start:
// the zero value for volatile hosts and fresh logs.
func (h *DMHost) Recovery() RecoveryStats { return h.recovery }

// ID returns the hosted DM's name.
func (h *DMHost) ID() string { return h.id }

// Close shuts the replica down in order: the endpoint stops accepting (and
// serves what it already delivered), then the write-ahead log flushes its
// tail and closes. An orderly Close loses nothing; SIGKILL is the amnesia
// crash the log exists for. Idempotent and safe to race.
func (h *DMHost) Close() {
	h.closeOnce.Do(func() {
		h.server.Close()
		if h.log != nil {
			// A poisoned log reports its sticky error again here; that is old
			// news — whoever starts the next host re-judges the log from disk.
			h.log.Close()
		}
	})
}

// sitesOf groups items by the DMs that replicate them: one replica hosts
// every item whose spec names it. It returns the DM ids sorted and each
// one's items in spec order.
func sitesOf(items []ItemSpec) ([]string, map[string][]ItemSpec) {
	hosted := map[string][]ItemSpec{}
	for _, it := range items {
		for _, dm := range it.DMs {
			hosted[dm] = append(hosted[dm], it)
		}
	}
	ids := make([]string, 0, len(hosted))
	for dm := range hosted {
		ids = append(ids, dm)
	}
	sort.Strings(ids)
	return ids, hosted
}

// peersOf returns all of the cluster's DMs except id, in all's order.
func peersOf(id string, all []string) []string {
	out := make([]string, 0, len(all))
	for _, dm := range all {
		if dm != id {
			out = append(out, dm)
		}
	}
	return out
}

// ServeDM starts the DM named id on tr as this process's replica — the
// server-side entry point a multi-process deployment runs once per replica,
// while clients attach with OpenClient over the same transport. The host
// serves every item whose DMs list names it; the full item specs are passed
// in so the replica knows its peer set. With WithDurability the replica
// keeps a write-ahead log under dir/<id> and recovers from it when one
// exists — so a kill -9'd process restarted with the same flags resumes
// exactly where the log ends. Every option shapes the host exactly as it
// shapes a host Open starts; options that configure a client are ignored.
//
// A host that comes up quarantined tries one peer rebuild before settling
// for serving refusals: a process restarted onto a scrambled (or wiped)
// disk should rejoin with its peers' state. Quarantined on the returned
// host tells whether that failed; the process stays up either way.
func ServeDM(tr transport.Transport, id string, items []ItemSpec, opts ...Option) (*DMHost, error) {
	ids, hosted := sitesOf(items)
	if hosted[id] == nil {
		return nil, fmt.Errorf("cluster: no item names DM %q", id)
	}
	h, err := start(tr, id, hosted[id], peersOf(id, ids), resolve(opts), new(Stats))
	if err != nil {
		return nil, err
	}
	if h.Quarantined() != nil && len(h.peers) > 0 {
		if client, err := tr.Client("rebuild-" + id); err == nil {
			h, _ = h.rebuild(context.Background(), client)
			client.Close()
		}
	}
	h.countRecovery()
	return h, nil
}

// countRecovery counts a start that found state in its log.
func (h *DMHost) countRecovery() {
	if h.recovery.Replayed > 0 || h.recovery.FromSnapshot {
		h.Stats.Recoveries.Inc()
		h.Stats.ReplayedRecords.Add(int64(h.recovery.Replayed))
	}
}
