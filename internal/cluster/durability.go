package cluster

import (
	"cmp"
	"fmt"

	"repro/internal/transport/wire"
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

// A log record is one state-mutating request and a snapshot is the state
// machine's own dmState, both stamped in package wire's encoding — the plans
// the TCP transport compiled for the same types, registered once in wire.go,
// behind the fingerprint of those plans. Like a frame on the wire, a log is
// read by the build that wrote it: bytes another build's layouts wrote are
// refused (wire.ErrLayout), never misread.

// encodeSnapshot serializes the DM's complete hard state: its dmState, with
// no mirror types between them. Leases and the touched index are soft or
// derived state and deliberately absent: recovery re-stamps fresh leases
// (which only delays orphan resolution) and re-derives the index.
func encodeSnapshot(s *dmServer) ([]byte, error) { return wire.AppendStamped(nil, s.dmState) }

// restoreSnapshot overwrites the DM's hard state with a decoded snapshot
// and re-derives the index from it.
func restoreSnapshot(s *dmServer, b []byte) error {
	v, err := wire.DecodeStamped(b)
	st, ok := v.(dmState)
	if err != nil || !ok {
		return cmp.Or(err, fmt.Errorf("snapshot holds a %T", v))
	}
	s.dmState = st.allocated()
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

// recover opens (or creates) the write-ahead log under h.dir and rebuilds
// the state machine from it: the snapshot, when there is one, then every
// later record replayed through the same apply() that produced it. A log
// corrupt beyond a torn tail, or written under other record layouts, sets
// the verdict instead (see start) and leaves the host without a log; its
// state machine, whatever replay left in it, serves nothing.
func (h *DMHost) recover() error {
	log, rec, err := wal.Open(h.dir, h.st.walOpts...)
	if err == nil {
		if err = h.replay(rec); err != nil {
			log.Close()
			err = &wal.CorruptionError{Dir: h.dir, Offset: -1, Err: err}
		}
	}
	if wal.IsCorruption(err) {
		h.quarantine(fmt.Errorf("cluster: dm %s: %w", h.id, err))
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: dm %s: %w", h.id, err)
	}
	h.log = log
	return nil
}

// replay rebuilds the state machine from what the log recovered. A snapshot
// or record that does not decode — another build's layouts (wire.ErrLayout)
// or damage the checksums missed — leaves the log untrusted, as corruption
// does (see recover).
func (h *DMHost) replay(rec wal.Recovery) error {
	h.recovery.TruncatedBytes = rec.TruncatedBytes
	if rec.Snapshot != nil {
		if err := restoreSnapshot(h.srv, rec.Snapshot); err != nil {
			return err
		}
		h.recovery.FromSnapshot = true
	}
	for _, raw := range rec.Records {
		req, err := wire.DecodeStamped(raw)
		if err != nil {
			return err
		}
		h.srv.apply(req)
		h.recovery.Replayed++
	}
	return nil
}

// RestartDM simulates recovery from an amnesia crash of one DM: its host is
// closed, its in-memory state discarded, and a new host started in the slot
// purely from the DM's write-ahead log. Only valid on stores opened with
// WithDurability. A restart that finds a log it cannot trust does not fail:
// the slot serves the typed refusal until RebuildReplica replaces it — the
// caller decides when (and whether) to rebuild.
func (s *Store) RestartDM(id string) (RecoveryStats, error) {
	h := s.host(id)
	if h == nil {
		return RecoveryStats{}, fmt.Errorf("cluster: unknown DM %q", id)
	}
	if h.dir == "" {
		return RecoveryStats{}, fmt.Errorf("cluster: DM %q is not durable", id)
	}
	h.Close()
	nh, err := start(s.tr, id, h.items, h.peers, s.opts, &s.Stats)
	if err != nil {
		return RecoveryStats{}, err
	}
	s.mu.Lock()
	s.dms[id] = nh
	s.mu.Unlock()
	if nh.Quarantined() != nil {
		return RecoveryStats{}, nil
	}
	s.Stats.Recoveries.Inc()
	s.Stats.ReplayedRecords.Add(int64(nh.recovery.Replayed))
	return nh.recovery, nil
}

// WALMetrics returns the write-ahead-log metrics of one durable DM, or nil
// for volatile stores and unknown ids.
func (s *Store) WALMetrics(id string) *wal.Metrics {
	h := s.host(id)
	if h == nil || h.log == nil {
		return nil
	}
	return h.log.Metrics()
}
