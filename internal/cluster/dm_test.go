package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/quorum"
)

// serve drives one request through the one request handler, on a volatile
// host around the bare state machine s, and returns the answer.
func serve(s *dmServer, req any) (resp any) {
	(&DMHost{id: s.id, srv: s}).handle("c", req, func(r any) { resp = r })
	return resp
}

func newReplica() *replica {
	return &replica{Val: "init", Cfg: quorum.Majority([]string{"a", "b", "c"})}
}

// bareDM is a state machine "d" hosting one fresh replica, of item "x".
func bareDM() *dmServer {
	s := newDMState("d", nil)
	s.Replicas["x"] = newReplica()
	return s
}

func TestReplicaMossLockRules(t *testing.T) {
	r := newReplica()
	if !r.canLock("c1.t1/1", LockRead) {
		t.Fatal("first lock grantable")
	}
	r.grant("c1.t1/1", LockRead, 0)
	// Unrelated read is compatible; unrelated write is not.
	if !r.canLock("c1.t2", LockRead) {
		t.Error("read/read compatible")
	}
	if r.canLock("c1.t2", LockWrite) {
		t.Error("write over unrelated read must be refused")
	}
	// The holder's ancestor relationship is what matters: a descendant of
	// the holder may lock.
	if !r.canLock("c1.t1/1/3", LockWrite) {
		t.Error("descendant of holder must be able to write-lock")
	}
	// Upgrading one's own lock is always allowed.
	if !r.canLock("c1.t1/1", LockWrite) {
		t.Error("self-upgrade must be allowed")
	}
	r.grant("c1.t1/1", LockWrite, 0)
	if r.Locks["c1.t1/1"].Mode != LockWrite {
		t.Error("grant must upgrade")
	}
	r.grant("c1.t1/1", LockRead, 0)
	if r.Locks["c1.t1/1"].Mode != LockWrite {
		t.Error("grant must never downgrade")
	}
}

func TestReplicaViewFoldsAncestorIntents(t *testing.T) {
	r := newReplica()
	r.VN, r.Val = 1, "committed"
	r.Intents = append(r.Intents,
		intent{Owner: "c1.t1", VN: 2, Val: "parent-write"},
		intent{Owner: "c1.t2", VN: 5, Val: "foreign-write"},
		intent{Owner: "c1.t1/3", VN: 3, Val: "child-write"},
	)
	// A child of t1 sees t1's and its own writes, not t2's; later
	// intentions in order win.
	vn, val, _, _ := r.view("c1.t1/3")
	if vn != 3 || val != "child-write" {
		t.Errorf("view(t1/3) = (%d, %v)", vn, val)
	}
	// t2 sees its own write only.
	vn, val, _, _ = r.view("c1.t2")
	if vn != 5 || val != "foreign-write" {
		t.Errorf("view(t2) = (%d, %v)", vn, val)
	}
	// A stranger sees only committed state.
	vn, val, _, _ = r.view("c1.t9")
	if vn != 1 || val != "committed" {
		t.Errorf("view(t9) = (%d, %v)", vn, val)
	}
}

func TestReplicaPromoteMovesLocksAndIntents(t *testing.T) {
	r := newReplica()
	r.grant("c1.t1/1", LockWrite, 0)
	r.Intents = append(r.Intents, intent{Owner: "c1.t1/1", VN: 2, Val: "x"})
	r.promote("c1.t1/1")
	if _, held := r.Locks["c1.t1/1"]; held {
		t.Error("child lock must move")
	}
	if r.Locks["c1.t1"].Mode != LockWrite {
		t.Error("parent must inherit the write lock")
	}
	if r.Intents[0].Owner != "c1.t1" {
		t.Error("intent ownership must move to the parent")
	}
}

func TestReplicaDropRemovesSubtree(t *testing.T) {
	r := newReplica()
	r.grant("c1.t1/1", LockWrite, 0)
	r.grant("c1.t1/1/2", LockRead, 0)
	r.grant("c1.t2", LockRead, 0)
	r.Intents = append(r.Intents,
		intent{Owner: "c1.t1/1", VN: 2, Val: "x"},
		intent{Owner: "c1.t2", VN: 3, Val: "y"},
	)
	r.drop("c1.t1/1")
	if len(r.Locks) != 1 || r.Locks["c1.t2"].Mode != LockRead {
		t.Errorf("locks after drop: %v", r.Locks)
	}
	if len(r.Intents) != 1 || r.Intents[0].Owner != "c1.t2" {
		t.Errorf("intents after drop: %v", r.Intents)
	}
}

func TestReplicaApplyTopFoldsInOrder(t *testing.T) {
	r := newReplica()
	r.Intents = append(r.Intents,
		intent{Owner: "c1.t1", VN: 1, Val: "first"},
		intent{Owner: "c1.t1", IsConfig: true, Gen: 1, Cfg: quorum.ReadOneWriteAll([]string{"a", "b", "c"})},
		intent{Owner: "c1.t1", VN: 2, Val: "second"},
		intent{Owner: "c1.t9", VN: 9, Val: "unrelated"},
	)
	r.grant("c1.t1", LockWrite, 0)
	r.applyTop("c1.t1", nil)
	if r.VN != 2 || r.Val != "second" {
		t.Errorf("committed state = (%d, %v)", r.VN, r.Val)
	}
	if r.Gen != 1 {
		t.Errorf("gen = %d", r.Gen)
	}
	if len(r.Intents) != 1 || r.Intents[0].Owner != "c1.t9" {
		t.Errorf("foreign intents must survive: %v", r.Intents)
	}
	if len(r.Locks) != 0 {
		t.Errorf("locks must be released: %v", r.Locks)
	}
}

// A committed subtransaction whose CommitSubReq never arrived leaves its
// intentions under its own id; the top-level commit must apply them (the
// write is committed state) while still discarding aborted children.
func TestReplicaApplyTopAppliesOrphanCommittedSubs(t *testing.T) {
	r := newReplica()
	r.Intents = append(r.Intents,
		intent{Owner: "c1.t1/1", VN: 1, Val: "committed-sub"},
		intent{Owner: "c1.t1/2", VN: 2, Val: "aborted-sub"},
	)
	r.grant("c1.t1/1", LockWrite, 0)
	r.grant("c1.t1/2", LockWrite, 0)
	r.applyTop("c1.t1", map[TxnID]bool{"c1.t1/1": true})
	if r.VN != 1 || r.Val != "committed-sub" {
		t.Errorf("committed state = (%d, %v), want (1, committed-sub)", r.VN, r.Val)
	}
	if len(r.Intents) != 0 {
		t.Errorf("aborted child's intent must be discarded: %v", r.Intents)
	}
	if len(r.Locks) != 0 {
		t.Errorf("all descendants' locks must be released: %v", r.Locks)
	}
}

func TestHandleUnknownItemAndMessage(t *testing.T) {
	s := newDMState("d", nil)
	if resp := serve(s, ReadReq{Txn: "c1.t1", Item: "nope"}); resp.(ReadResp).OK {
		t.Error("unknown item must not grant")
	}
	if resp := serve(s, WriteReq{Txn: "c1.t1", Item: "nope"}); resp.(WriteResp).OK {
		t.Error("unknown item must not accept writes")
	}
	if resp := serve(s, InspectReq{Item: "nope"}); resp.(InspectResp).OK {
		t.Error("unknown item must not inspect")
	}
	if resp := serve(s, "garbage"); resp.(Ack).OK {
		t.Error("unknown message must be refused")
	}
}

func TestCommitTopIdempotent(t *testing.T) {
	s := bareDM()
	r := s.Replicas["x"]
	serve(s, WriteReq{Txn: "c1.t1", Item: "x", VN: 1, Val: "v"})
	serve(s, CommitTopReq{Txn: "c1.t1"})
	if r.VN != 1 {
		t.Fatal("commit not applied")
	}
	// A second, retried commit must not disturb later state.
	serve(s, WriteReq{Txn: "c1.t2", Item: "x", VN: 2, Val: "w"})
	serve(s, CommitTopReq{Txn: "c1.t1"})
	if len(r.Intents) != 1 || r.VN != 1 {
		t.Errorf("idempotence violated: vn=%d intents=%v", r.VN, r.Intents)
	}
}

func TestRepairAppliesOnlyWhenNewerAndIdle(t *testing.T) {
	s := bareDM()
	r := s.Replicas["x"]
	r.VN = 2
	serve(s, RepairReq{Item: "x", VN: 1, Val: "older"})
	if r.VN != 2 {
		t.Error("older repair applied")
	}
	serve(s, RepairReq{Item: "x", VN: 5, Val: "newer"})
	if r.VN != 5 || r.Val != "newer" {
		t.Error("newer repair not applied")
	}
	// Read locks do not block repairs (they only advance committed state
	// to the quorum maximum) …
	r.grant("c1.t1", LockRead, 0)
	serve(s, RepairReq{Item: "x", VN: 9, Val: "reader-held"})
	if r.VN != 9 {
		t.Error("repair must apply under read locks")
	}
	// … but write locks and pending intents do.
	r.grant("c1.t2", LockWrite, 0)
	serve(s, RepairReq{Item: "x", VN: 12, Val: "busy"})
	if r.VN != 12-3 {
		t.Error("repair applied under a write lock")
	}
}

func TestReplicaReleaseGuards(t *testing.T) {
	r := newReplica()
	// released retracts phase seq of txn and reports whether that freed the
	// lock; tombstoned is the refusal acquire makes of a late copy.
	released := func(txn TxnID, seq int) bool {
		r.release(txn, seq)
		_, held := r.Locks[txn]
		return !held
	}
	tombstoned := func(txn TxnID, seq int) bool { return seq <= r.Released[txn] }

	// Phase 1 creates the lock; releasing phase 1 frees it and tombstones
	// the phase so a late duplicate of phase 1 cannot re-grant.
	r.grant("c1.t1", LockRead, 1)
	if !released("c1.t1", 1) {
		t.Fatal("release of the creating phase must free the lock")
	}
	if !tombstoned("c1.t1", 1) {
		t.Error("released phase must be tombstoned")
	}
	if tombstoned("c1.t1", 2) {
		t.Error("later phases must not be tombstoned")
	}

	// A lock created by phase 1 must not be freed by releasing phase 2
	// (phase 2's grant reported Held, so the lock predates it).
	r.grant("c1.t2", LockWrite, 1)
	r.grant("c1.t2", LockWrite, 2)
	if released("c1.t2", 2) {
		t.Error("release must not free a lock an earlier phase created")
	}
	// Nor by releasing phase 1, since phase 2 re-granted it.
	if released("c1.t2", 1) {
		t.Error("release must not free a lock a later phase re-granted")
	}
	if _, held := r.Locks["c1.t2"]; !held {
		t.Fatal("lock must survive both refused releases")
	}

	// A lock backing a buffered intention is never freed.
	r.grant("c1.t3", LockWrite, 1)
	r.Intents = append(r.Intents, intent{Owner: "c1.t3", VN: 1, Val: "v"})
	if released("c1.t3", 1) {
		t.Error("release must not free a lock that backs an intention")
	}
}

func TestHandleRefusesTombstonedAndResolved(t *testing.T) {
	s := bareDM()
	// A release that names no phase (Seq 0: a request sent outside a quorum
	// phase) retracts nothing and is not logged.
	if _, mutated := s.apply(ReleaseReq{Txn: "c1.t1", Item: "x"}); mutated || len(s.Replicas["x"].Released) != 0 {
		t.Error("seq 0 release must be a no-op")
	}
	// Release phase 3 before its (late, reordered) request arrives: the
	// request must not grant.
	serve(s, ReleaseReq{Txn: "c1.t1", Item: "x", Seq: 3})
	resp := serve(s, ReadReq{Txn: "c1.t1", Item: "x", Lock: LockRead, Seq: 3}).(ReadResp)
	if resp.OK || resp.Busy {
		t.Errorf("tombstoned phase must be refused outright, got %+v", resp)
	}
	// A later phase of the same transaction still works.
	resp = serve(s, ReadReq{Txn: "c1.t1", Item: "x", Lock: LockRead, Seq: 4}).(ReadResp)
	if !resp.OK {
		t.Error("later phase must still be granted")
	}

	// Once the top-level transaction resolves, no copy of any phase grants.
	serve(s, CommitTopReq{Txn: "c1.t1"})
	resp = serve(s, ReadReq{Txn: "c1.t1/2", Item: "x", Lock: LockRead, Seq: 9}).(ReadResp)
	if resp.OK || resp.Busy {
		t.Errorf("resolved txn must be refused outright, got %+v", resp)
	}
	w := serve(s, WriteReq{Txn: "c1.t1", Item: "x", VN: 1, Val: "v", Seq: 9}).(WriteResp)
	if w.OK || w.Busy {
		t.Errorf("resolved txn must not buffer writes, got %+v", w)
	}
	if got := len(s.Replicas["x"].Intents); got != 0 {
		t.Errorf("no intent may be installed after resolve, got %d", got)
	}

	// Top-level abort resolves too.
	serve(s, AbortReq{Txn: "c1.t9"})
	resp = serve(s, ReadReq{Txn: "c1.t9", Item: "x", Lock: LockRead, Seq: 1}).(ReadResp)
	if resp.OK {
		t.Error("aborted top-level txn must be refused")
	}
}

func TestHandleDedupesHedgedWriteIntents(t *testing.T) {
	s := bareDM()
	// Two hedged copies of the same phase's WriteReq must install one
	// intention.
	serve(s, WriteReq{Txn: "c1.t1", Item: "x", VN: 7, Val: "v", Seq: 2})
	serve(s, WriteReq{Txn: "c1.t1", Item: "x", VN: 7, Val: "v", Seq: 2})
	if got := len(s.Replicas["x"].Intents); got != 1 {
		t.Errorf("duplicate WriteReq must dedupe, got %d intents", got)
	}
	// A genuinely new write (higher vn) still appends.
	serve(s, WriteReq{Txn: "c1.t1", Item: "x", VN: 8, Val: "w", Seq: 3})
	if got := len(s.Replicas["x"].Intents); got != 2 {
		t.Errorf("new write must append, got %d intents", got)
	}

	cfg := quorum.Majority([]string{"a", "b"})
	serve(s, ConfigWriteReq{Txn: "c1.t1", Item: "x", Gen: 1, Cfg: cfg, Seq: 4})
	serve(s, ConfigWriteReq{Txn: "c1.t1", Item: "x", Gen: 1, Cfg: cfg, Seq: 4})
	if got := len(s.Replicas["x"].Intents); got != 3 {
		t.Errorf("duplicate ConfigWriteReq must dedupe, got %d intents", got)
	}
}

func TestReplicaPromoteKeepsTombstones(t *testing.T) {
	r := newReplica()
	r.grant("c1.t1/1", LockWrite, 2)
	r.release("c1.t1/1", 1) // tombstone an earlier phase, lock survives
	r.promote("c1.t1/1")
	if r.Locks["c1.t1"].Mode != LockWrite {
		t.Fatal("parent must inherit the lock")
	}
	if l := r.Locks["c1.t1"]; l.Born != 0 || l.Last != 0 {
		t.Errorf("the child's phase record must not follow the lock to the parent: %+v", l)
	}
	if r.Released["c1.t1/1"] != 1 {
		t.Error("tombstones must survive promotion")
	}
}

// TestReadRespCarriesCfgOnlyWhenNews: Section 4's reader needs c only to move
// to a newer g, so a read reply carries the configuration exactly when the
// generation visible to the transaction is above the one its request names —
// whether that generation is committed or still an ancestor's intention, and
// whether the request came as a ReadReq or through the hinted fast lane.
func TestReadRespCarriesCfgOnlyWhenNews(t *testing.T) {
	next := quorum.ReadOneWriteAll([]string{"a", "b", "c"})
	committed := func(s *dmServer) { s.Replicas["x"].Gen, s.Replicas["x"].Cfg = 1, next }
	intended := func(s *dmServer) {
		if w := serve(s, ConfigWriteReq{Txn: "c1.t1", Item: "x", Gen: 1, Cfg: next, Seq: 1}).(WriteResp); !w.OK {
			t.Fatalf("config write refused: %+v", w)
		}
	}
	hinted := func(s *dmServer) {
		committed(s)
		s.hintTTL = time.Minute
		s.hints["x"] = itemHint{gen: 1, expiry: s.clock.Now().Add(time.Minute)}
	}
	cases := []struct {
		name    string
		prepare func(*dmServer)
		req     any
		gen     int
		cfg     quorum.Config
	}{
		{"reader current, generation 0", func(*dmServer) {}, ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockRead, Seq: 2}, 0, quorum.Config{}},
		{"reader current, generation 1", committed, ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockRead, Seq: 2, Gen: 1}, 1, quorum.Config{}},
		{"reader ahead of the replica", committed, ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockRead, Seq: 2, Gen: 2}, 1, quorum.Config{}},
		{"reader stale by one generation", committed, ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockRead, Seq: 2}, 1, next},
		{"reader stale, new config an ancestor's intention", intended, ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockWrite, Seq: 2}, 1, next},
		{"owner of the intention already holds it", intended, ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockWrite, Seq: 2, Gen: 1}, 1, quorum.Config{}},
		{"hinted read at the matching generation", hinted, HintReadReq{Txn: "c1.t1/0", Item: "x", Seq: 2, Gen: 1}, 1, quorum.Config{}},
	}
	for _, c := range cases {
		s := bareDM()
		c.prepare(s)
		resp, ok := serve(s, c.req).(ReadResp)
		if !ok || !resp.OK {
			t.Errorf("%s: not granted: %+v", c.name, resp)
			continue
		}
		if resp.Gen != c.gen || !reflect.DeepEqual(resp.Cfg, c.cfg) {
			t.Errorf("%s: reply carries gen %d cfg %v, want gen %d cfg %v", c.name, resp.Gen, resp.Cfg, c.gen, c.cfg)
		}
	}
}
