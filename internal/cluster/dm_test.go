package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
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
	if !r.canLock("c1.t1/1", nil, LockRead) {
		t.Fatal("first lock grantable")
	}
	r.grant("c1.t1/1", LockRead, 0)
	// Unrelated read is compatible; unrelated write is not.
	if !r.canLock("c1.t2", nil, LockRead) {
		t.Error("read/read compatible")
	}
	if r.canLock("c1.t2", nil, LockWrite) {
		t.Error("write over unrelated read must be refused")
	}
	// The holder's ancestor relationship is what matters: a descendant of
	// the holder may lock.
	if !r.canLock("c1.t1/1/3", nil, LockWrite) {
		t.Error("descendant of holder must be able to write-lock")
	}
	// Upgrading one's own lock is always allowed.
	if !r.canLock("c1.t1/1", nil, LockWrite) {
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
	vn, val, _, _ := r.view("c1.t1/3", nil)
	if vn != 3 || val != "child-write" {
		t.Errorf("view(t1/3) = (%d, %v)", vn, val)
	}
	// t2 sees its own write only.
	vn, val, _, _ = r.view("c1.t2", nil)
	if vn != 5 || val != "foreign-write" {
		t.Errorf("view(t2) = (%d, %v)", vn, val)
	}
	// A stranger sees only committed state.
	vn, val, _, _ = r.view("c1.t9", nil)
	if vn != 1 || val != "committed" {
		t.Errorf("view(t9) = (%d, %v)", vn, val)
	}
}

// Inheritance is stated by the requester, not performed by the replica: the
// parent passes a committed child's write lock and reads its intention by
// listing the child, and nothing is re-owned — lock and intention stay under
// the child's id, the parent's grant is a lock of its own.
func TestReplicaInheritLeavesLocksAndIntentsInPlace(t *testing.T) {
	s := bareDM()
	r := s.Replicas["x"]
	serve(s, WriteReq{Txn: "c1.t1/1", Item: "x", VN: 2, Val: "child", Seq: 1})
	if resp := serve(s, ReadReq{Txn: "c1.t1", Item: "x", Lock: LockWrite, Seq: 1}).(ReadResp); !resp.Busy {
		t.Fatalf("the parent must wait for a child it does not list: %+v", resp)
	}
	resp := serve(s, ReadReq{Txn: "c1.t1", Item: "x", Lock: LockWrite, Seq: 2, Inherit: []TxnID{"c1.t1/1"}}).(ReadResp)
	if !resp.OK || resp.Held || resp.VN != 2 || resp.Val != "child" {
		t.Fatalf("the parent must inherit the listed child's lock and see its write: %+v", resp)
	}
	if r.Locks["c1.t1/1"].Mode != LockWrite {
		t.Error("the child's lock must stay under the child's id")
	}
	if l := r.Locks["c1.t1"]; l.Mode != LockWrite || l.Born != 2 {
		t.Errorf("the parent's grant must be a lock of its own, born in its own phase: %+v", l)
	}
	if len(r.Intents) != 1 || r.Intents[0].Owner != "c1.t1/1" {
		t.Errorf("the intention must stay the child's: %+v", r.Intents)
	}
}

// TestInheritListAtTheReplica is the inheritance rule on the bare state
// machine: child c1.t1/1 wrote x and committed at the coordinator, which the
// replica only learns from the lists later requests carry.
func TestInheritListAtTheReplica(t *testing.T) {
	child := []TxnID{"c1.t1/1"}
	cases := []struct {
		name    string
		req     ReadReq
		granted bool
		vn      int
	}{
		{"sibling, child unlisted", ReadReq{Txn: "c1.t1/2", Lock: LockWrite}, false, 0},
		{"sibling, child listed", ReadReq{Txn: "c1.t1/2", Lock: LockWrite, Inherit: child}, true, 1},
		{"sibling read lock, child listed", ReadReq{Txn: "c1.t1/2", Lock: LockRead, Inherit: child}, true, 1},
		{"nephew, child listed", ReadReq{Txn: "c1.t1/2/1", Lock: LockWrite, Inherit: child}, true, 1},
		{"sibling lists only another child", ReadReq{Txn: "c1.t1/2", Lock: LockWrite, Inherit: []TxnID{"c1.t1/3"}}, false, 0},
		{"another tree lists the child", ReadReq{Txn: "c1.t2", Lock: LockWrite, Inherit: child}, false, 0},
		{"another tree's child lists the child", ReadReq{Txn: "c1.t2/1", Lock: LockRead, Inherit: child}, false, 0},
	}
	for _, c := range cases {
		s := bareDM()
		serve(s, WriteReq{Txn: "c1.t1/1", Item: "x", VN: 1, Val: "child", Seq: 1})
		c.req.Item, c.req.Seq = "x", 1
		resp := serve(s, c.req).(ReadResp)
		if resp.OK != c.granted || resp.Busy == c.granted || resp.VN != c.vn {
			t.Errorf("%s: answered %+v, want granted %v at vn %d", c.name, resp, c.granted, c.vn)
		}
	}

	// view folds the listed child's intention and not an unlisted one's; a
	// later write of the reader's own wins over both, in arrival order.
	s := bareDM()
	serve(s, WriteReq{Txn: "c1.t1/1", Item: "x", VN: 1, Val: "listed", Seq: 1})
	r := s.Replicas["x"]
	r.grant("c1.t1/3", LockWrite, 0)
	r.Intents = append(r.Intents, intent{Owner: "c1.t1/3", VN: 2, Val: "unlisted"})
	if vn, val, _, _ := r.view("c1.t1/2", child); vn != 1 || val != "listed" {
		t.Errorf("view with the child listed = (%d, %v)", vn, val)
	}
	if vn, val, _, _ := r.view("c1.t1/2", nil); vn != 0 || val != "init" {
		t.Errorf("view with nothing listed = (%d, %v)", vn, val)
	}
	if vn, val, _, _ := r.view("c1.t2", child); vn != 0 || val != "init" {
		t.Errorf("another tree's view with the child listed = (%d, %v)", vn, val)
	}
	if w := serve(s, WriteReq{Txn: "c1.t1/2", Item: "x", VN: 3, Val: "sibling", Seq: 1, Inherit: child}).(WriteResp); w.OK {
		t.Error("c1.t1/3's write lock is not inherited: the sibling's write must wait")
	}
	r.drop("c1.t1/3")
	if w := serve(s, WriteReq{Txn: "c1.t1/2", Item: "x", VN: 3, Val: "sibling", Seq: 1, Inherit: child}).(WriteResp); !w.OK {
		t.Fatalf("sibling overwrite refused: %+v", w)
	}
	if vn, val, _, _ := r.view("c1.t1/2", child); vn != 3 || val != "sibling" {
		t.Errorf("view after the sibling's overwrite = (%d, %v)", vn, val)
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

// A subtransaction's intentions stay under its own id; the top-level commit
// applies those of the committed subtransactions it lists, in arrival order
// (the write is committed state), and discards every other child's.
func TestReplicaApplyTopAppliesCommittedSubs(t *testing.T) {
	r := newReplica()
	r.Intents = append(r.Intents,
		intent{Owner: "c1.t1/1", VN: 1, Val: "committed-sub"},
		intent{Owner: "c1.t1/2", VN: 2, Val: "aborted-sub"},
		intent{Owner: "c1.t1/3/1", VN: 3, Val: "committed-grandchild"},
		intent{Owner: "c1.t1/4", VN: 4, Val: "aborted-later"},
	)
	r.grant("c1.t1/1", LockWrite, 0)
	r.grant("c1.t1/2", LockWrite, 0)
	r.applyTop("c1.t1", map[TxnID]bool{"c1.t1/1": true, "c1.t1/3": true, "c1.t1/3/1": true})
	if r.VN != 3 || r.Val != "committed-grandchild" {
		t.Errorf("committed state = (%d, %v), want (3, committed-grandchild)", r.VN, r.Val)
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

// A committed child's phases are over: its tombstones keep refusing late
// copies of them after the parent inherited its lock, and the parent's own
// phases are tombstoned and released on their own record, not the child's.
func TestReplicaInheritKeepsTombstones(t *testing.T) {
	s := bareDM()
	r := s.Replicas["x"]
	serve(s, ReadReq{Txn: "c1.t1/1", Item: "x", Lock: LockWrite, Seq: 2})
	serve(s, ReleaseReq{Txn: "c1.t1/1", Item: "x", Seq: 1}) // tombstone an earlier phase, lock survives
	inherit := []TxnID{"c1.t1/1"}
	if resp := serve(s, ReadReq{Txn: "c1.t1", Item: "x", Lock: LockWrite, Seq: 1, Inherit: inherit}).(ReadResp); !resp.OK {
		t.Fatalf("parent must inherit the lock: %+v", resp)
	}
	if resp := serve(s, ReadReq{Txn: "c1.t1/1", Item: "x", Lock: LockWrite, Seq: 1}).(ReadResp); resp.OK || resp.Busy {
		t.Errorf("a late copy of the child's released phase must be refused outright: %+v", resp)
	}
	// Releasing the parent's surplus grant frees the parent's lock alone.
	serve(s, ReleaseReq{Txn: "c1.t1", Item: "x", Seq: 1})
	if _, held := r.Locks["c1.t1"]; held {
		t.Error("the parent's phase created its lock, so its release must free it")
	}
	if r.Locks["c1.t1/1"].Mode != LockWrite || r.Released["c1.t1/1"] != 1 {
		t.Errorf("the child's lock and tombstone must be untouched: %+v %+v", r.Locks, r.Released)
	}
}

// TestLateCopyOfAbortedSubIsRefused: a sub-abort is remembered until the top
// level resolves, so a duplicated or reordered copy of the dead subtree's
// access — which the abort's sweep of the subtree's tombstones would
// otherwise let through — is refused, whether or not the replica held
// anything when the abort arrived, and siblings and the parent go on.
func TestLateCopyOfAbortedSubIsRefused(t *testing.T) {
	write := func(txn TxnID) WriteReq { return WriteReq{Txn: txn, Item: "x", VN: 1, Val: "v", Seq: 1} }
	for _, name := range []string{"copy granted before the abort", "abort before the first copy"} {
		s := bareDM()
		if name == "copy granted before the abort" {
			if w := serve(s, write("c1.t1/1")).(WriteResp); !w.OK {
				t.Fatalf("%s: first copy refused: %+v", name, w)
			}
		}
		if resp, mutated := s.apply(AbortReq{Txn: "c1.t1/1"}); resp != (Ack{OK: true}) || !mutated {
			t.Fatalf("%s: sub-abort answered (%+v, logged %v)", name, resp, mutated)
		}
		for _, late := range []TxnID{"c1.t1/1", "c1.t1/1/1"} {
			if w := serve(s, write(late)).(WriteResp); w.OK || w.Busy {
				t.Errorf("%s: late copy of %s answered %+v, want an outright refusal", name, late, w)
			}
		}
		if r := s.Replicas["x"]; len(r.Locks) != 0 || len(r.Intents) != 0 {
			t.Errorf("%s: the dead subtree is back: locks %v intents %v", name, r.Locks, r.Intents)
		}
		if w := serve(s, write("c1.t1/2")).(WriteResp); !w.OK {
			t.Errorf("%s: the sibling was refused after the abort: %+v", name, w)
		}
		parent := write("c1.t1")
		parent.Inherit = []TxnID{"c1.t1/2"}
		if w := serve(s, parent).(WriteResp); !w.OK {
			t.Errorf("%s: the parent was refused after the abort: %+v", name, w)
		}
		// The memory is hard state, and lives exactly as long as the tree.
		snap, err := encodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		restored := newDMState("d", nil)
		if err := restoreSnapshot(restored, snap); err != nil {
			t.Fatal(err)
		}
		if w := serve(restored, write("c1.t1/1")).(WriteResp); w.OK || w.Busy {
			t.Errorf("%s: late copy granted after a snapshot restore: %+v", name, w)
		}
		serve(s, AbortReq{Txn: "c1.t1"})
		if len(s.Aborted) != 0 {
			t.Errorf("%s: aborted ids outlive their top level: %v", name, s.Aborted)
		}
		// Nothing is left to discard once the top level resolved: a no-op a
		// durable replica neither logs nor flushes.
		if resp, mutated := s.apply(AbortReq{Txn: "c1.t1/1"}); resp != (Ack{OK: true}) || mutated {
			t.Errorf("%s: sub-abort after resolution answered (%+v, logged %v)", name, resp, mutated)
		}
	}
}

// TestReadRespCarriesCfgOnlyWhenNews: Section 4's reader needs c only to move
// to a newer g, so a read reply carries the configuration exactly when the
// generation visible to the transaction is above the one its request names —
// whether that generation is committed or still an ancestor's intention.
func TestReadRespCarriesCfgOnlyWhenNews(t *testing.T) {
	next := quorum.ReadOneWriteAll([]string{"a", "b", "c"})
	committed := func(s *dmServer) { s.Replicas["x"].Gen, s.Replicas["x"].Cfg = 1, next }
	intended := func(s *dmServer) {
		if w := serve(s, ConfigWriteReq{Txn: "c1.t1", Item: "x", Gen: 1, Cfg: next, Seq: 1}).(WriteResp); !w.OK {
			t.Fatalf("config write refused: %+v", w)
		}
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

// leasedDM is bareDM with its lock leases on a manual clock.
func leasedDM() (*dmServer, *transport.ManualClock) {
	clk := transport.NewManualClock(time.Unix(0, 0))
	s := bareDM()
	s.clock = clk
	return s, clk
}

// TestRefusalNamesExpiredLeaseHolders: a replica does nothing about an
// orphan but name it. Every refusal over its locks — a read's, a write's —
// carries exactly the top-level ids of other trees whose lease lapsed, an
// inspection carries them with nobody exempt, and naming changes nothing at
// the replica.
func TestRefusalNamesExpiredLeaseHolders(t *testing.T) {
	s, clk := leasedDM()
	for _, holder := range []TxnID{"c1.t1/1", "c2.t9", "c1.t3/2"} {
		if resp := serve(s, ReadReq{Txn: holder, Item: "x", Lock: LockRead, Seq: 1}).(ReadResp); !resp.OK {
			t.Fatalf("read lock for %s refused: %+v", holder, resp)
		}
	}
	// c1.t3 is refused by all three: two other trees, and its own child,
	// which it does not list.
	write := WriteReq{Txn: "c1.t3", Item: "x", VN: 1, Val: "v", Seq: 2}
	refusals := func() map[string][]TxnID {
		w := serve(s, write).(WriteResp)
		r := serve(s, ReadReq{Txn: "c1.t3", Item: "x", Lock: LockWrite, Seq: 3}).(ReadResp)
		if !w.Busy || !r.Busy {
			t.Fatalf("want two Busy refusals, got %+v %+v", w, r)
		}
		return map[string][]TxnID{"write": w.Orphans, "read": r.Orphans}
	}
	for kind, got := range refusals() {
		if got != nil {
			t.Errorf("%s refusal named %v while every lease is live", kind, got)
		}
	}
	clk.Advance(LeaseTTL + time.Millisecond)
	for kind, got := range refusals() {
		if want := []TxnID{"c1.t1", "c2.t9"}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s refusal named %v, want %v: other trees' top-level ids, sorted, never the requester's own", kind, got, want)
		}
	}
	insp := serve(s, InspectReq{Item: "x"}).(InspectResp)
	if want := []TxnID{"c1.t1", "c1.t3", "c2.t9"}; !reflect.DeepEqual(insp.Orphans, want) {
		t.Errorf("inspection named %v, want %v: it has no requester to exempt", insp.Orphans, want)
	}
	// A renewal takes a transaction off the list; a holder without a lease
	// entry is never on it, and being asked gives it none.
	if ack := serve(s, RenewLeaseReq{Txn: "c2.t9"}).(Ack); !ack.OK {
		t.Fatal("renewal refused")
	}
	delete(s.leases, "c1.t3")
	if got, want := serve(s, InspectReq{Item: "x"}).(InspectResp).Orphans, []TxnID{"c1.t1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("inspection named %v, want %v", got, want)
	}
	if _, stamped := s.leases["c1.t3"]; stamped || len(s.Resolved) != 0 || len(s.Replicas["x"].Locks) != 3 {
		t.Errorf("naming changed the replica: leases %v, resolved %v, locks %v", s.leases, s.Resolved, s.Replicas["x"].Locks)
	}
}

// TestRecoveryKeepsNoLeaseWithoutALock: replay stamps a lease for every
// grant it re-applies, on the wall clock, before the host wires its own. A
// holder whose lock a logged release then dropped must not keep that stamp:
// under a manual clock it would stay live forever, and the transaction would
// never be presumed aborted. Wiring leaves exactly the lock holders leased,
// each from the wired clock's now.
func TestRecoveryKeepsNoLeaseWithoutALock(t *testing.T) {
	s := bareDM() // as replay finds it: the wall clock
	serve(s, ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockRead, Seq: 1})
	serve(s, ReleaseReq{Txn: "c1.t1/0", Item: "x", Seq: 1})
	serve(s, ReadReq{Txn: "c1.t2/0", Item: "x", Lock: LockRead, Seq: 1})
	if len(s.leases) != 2 || len(s.Replicas["x"].Locks) != 1 {
		t.Fatalf("precondition: leases %v, locks %v — want two stamps, one lock", s.leases, s.Replicas["x"].Locks)
	}
	clk := transport.NewManualClock(time.Unix(0, 0))
	s.configure(settings{clock: clk}, nil)
	s.refreshLeases()
	if want := map[TxnID]time.Time{"c1.t2": clk.Now().Add(LeaseTTL)}; !reflect.DeepEqual(s.leases, want) {
		t.Fatalf("wired leases %v, want %v", s.leases, want)
	}
	if p := serve(s, ResolutionProbeReq{Txn: "c1.t1"}).(ResolutionProbeResp); p.Active || p.Holds {
		t.Fatalf("c1.t1, whose only lock was released before the restart: %+v, want neither active nor holding", p)
	}
}

// TestLocklessReadAtTheReplica: a top-level transaction's first read carries
// lockNone. A foreign read lock does not refuse it, and it is answered with
// the committed state while the replica records nothing — no lock, no index
// entry, no lease — and reports nothing for the log. A foreign write lock,
// with or without an intention behind it, makes it Busy exactly as it would
// a read lock, naming the holders whose lease lapsed.
func TestLocklessReadAtTheReplica(t *testing.T) {
	s, clk := leasedDM()
	r := s.Replicas["x"]
	const reader = TxnID("c2.t1")
	read := ReadReq{Txn: reader, Item: "x", Lock: lockNone, Seq: 1}
	if resp := serve(s, ReadReq{Txn: "c1.t1", Item: "x", Lock: LockRead, Seq: 1}).(ReadResp); !resp.OK {
		t.Fatalf("foreign read lock refused: %+v", resp)
	}
	resp, mutated := s.apply(read)
	if got := resp.(ReadResp); !got.OK || got.Held || got.VN != 0 || got.Val != "init" || mutated {
		t.Fatalf("lockless read beside a foreign read lock: (%+v, logged %v), want the committed state, unlogged", got, mutated)
	}
	_, locked := r.Locks[reader]
	_, leased := s.leases[reader]
	if locked || leased || s.touched[reader] != nil || len(r.Locks) != 1 {
		t.Fatalf("lockless read left state: locks %v, leases %v, touched %v", r.Locks, s.leases, s.touched)
	}

	for _, writer := range []any{
		ReadReq{Txn: "c1.t2", Item: "x", Lock: LockWrite, Seq: 1},
		WriteReq{Txn: "c1.t2/0", Item: "x", VN: 1, Val: "v", Seq: 1},
	} {
		s, clk = leasedDM()
		serve(s, writer)
		if got := serve(s, read).(ReadResp); got.OK || !got.Busy || got.Orphans != nil {
			t.Fatalf("lockless read behind %T: %+v, want Busy naming nobody", writer, got)
		}
		clk.Advance(LeaseTTL + time.Millisecond)
		if got := serve(s, read).(ReadResp); !got.Busy || !reflect.DeepEqual(got.Orphans, []TxnID{"c1.t2"}) {
			t.Fatalf("lockless read behind %T past its lease: %+v, want Busy naming c1.t2", writer, got)
		}
		if _, leased := s.leases[reader]; leased || s.touched[reader] != nil {
			t.Fatalf("a refused lockless read left state: leases %v, touched %v", s.leases, s.touched)
		}
	}
}

// TestPresumedAbortIsConditionalAtTheReplica: the resolver presumes, each
// replica disposes. A DecisionReq marked Presumed is refused, unlogged, while
// this replica holds an unexpired lease entry for the transaction; once the
// lease lapsed — or at a replica that never saw the transaction — it is a
// request like any other: applied, and reported for the log. A decision
// proper is never held up by a lease.
func TestPresumedAbortIsConditionalAtTheReplica(t *testing.T) {
	s, clk := leasedDM()
	const txn = TxnID("c1.t1")
	serve(s, WriteReq{Txn: txn + "/0", Item: "x", VN: 1, Val: "v", Seq: 1})
	presumed := DecisionReq{Txn: txn, Presumed: true}
	if resp, handled := s.coordinate(presumed); !handled || resp != (Ack{OK: false}) {
		t.Fatalf("presumed abort under a live lease: (%#v, handled %v), want an unlogged refusal", resp, handled)
	}
	if s.Resolved[txn] != nil || len(s.Replicas["x"].Locks) != 1 || len(s.Replicas["x"].Intents) != 1 {
		t.Fatalf("the refusal moved state: resolved %v, replica %+v", s.Resolved[txn], s.Replicas["x"])
	}
	clk.Advance(LeaseTTL + time.Millisecond)
	if resp, handled := s.coordinate(presumed); handled {
		t.Fatalf("presumed abort past the lease was answered off the state machine: %#v", resp)
	}
	if resp, mutated := s.apply(presumed); resp != (Ack{OK: true}) || !mutated {
		t.Fatalf("presumed abort past the lease: (%#v, logged %v), want applied and logged", resp, mutated)
	}
	if res := s.Resolved[txn]; res == nil || res.Committed || len(s.Replicas["x"].Locks) != 0 || len(s.Replicas["x"].Intents) != 0 || len(s.leases) != 0 {
		t.Fatalf("after the presumed abort: resolved %+v, replica %+v, leases %v", res, s.Replicas["x"], s.leases)
	}

	// A replica that never saw the transaction records the abort and nothing
	// else: no lease entry, so the rebuilt-replica fence — no renewal for a
	// transaction this DM holds no trace of — still stands for it and for
	// every other stranger.
	fresh, _ := leasedDM()
	if ack := serve(fresh, presumed).(Ack); !ack.OK || fresh.Resolved[txn] == nil {
		t.Fatalf("presumed abort of a stranger: %+v, record %v", ack, fresh.Resolved[txn])
	}
	for _, stranger := range []TxnID{txn, "c1.t2"} {
		if ack := serve(fresh, RenewLeaseReq{Txn: stranger}).(Ack); ack.OK || len(fresh.leases) != 0 {
			t.Errorf("renewal for %s: %+v with leases %v, want refused and no entry", stranger, ack, fresh.leases)
		}
	}

	// Not presumed: somebody holds the outcome, and a live lease does not
	// argue with it.
	live, _ := leasedDM()
	serve(live, WriteReq{Txn: txn, Item: "x", VN: 1, Val: "v", Seq: 1})
	if ack := serve(live, DecisionReq{Txn: txn, Commit: true}).(Ack); !ack.OK || live.Replicas["x"].VN != 1 {
		t.Fatalf("a decided commit under a live lease: %+v, replica %+v", ack, live.Replicas["x"])
	}
}

// TestAcceptorAnswersAtTheReplica: Phase 1a is a request like any other. An
// open instance promises the ballot to its proposer and reports what it
// accepted; the same proposer's retry is granted and not logged again;
// another proposer at that ballot is refused with the watermark; and a
// resolved instance answers either phase with its record, Subs included,
// and keeps no acceptor state.
func TestAcceptorAnswersAtTheReplica(t *testing.T) {
	s := bareDM()
	const txn = TxnID("c1.t1")
	cohort := []string{"d"}
	serve(s, WriteReq{Txn: txn + "/0", Item: "x", VN: 1, Val: "v", Seq: 1})
	serve(s, PaxosAcceptReq{Txn: txn, Ballot: 0, Commit: true, Subs: []TxnID{txn + "/0"}, Cohort: cohort})
	prep := PaxosPrepareReq{Txn: txn, Ballot: 2, Cohort: cohort, Proposer: "c2"}
	want := PaxosPrepareResp{OK: true, Promised: 2, AccBal: 0, AccCommit: true, AccSubs: []TxnID{txn + "/0"}}
	if resp, mutated := s.apply(prep); !reflect.DeepEqual(resp, want) || !mutated {
		t.Fatalf("first prepare: (%#v, logged %v), want %#v logged", resp, mutated, want)
	}
	if resp, mutated := s.apply(prep); !reflect.DeepEqual(resp, want) || mutated {
		t.Fatalf("the proposer's retry: (%#v, logged %v), want the same promise, not logged again", resp, mutated)
	}
	prep.Proposer = "c3"
	if resp, mutated := s.apply(prep); resp.(PaxosPrepareResp).OK || resp.(PaxosPrepareResp).Promised != 2 || mutated {
		t.Fatalf("another proposer at the promised ballot: (%#v, logged %v), want refused at watermark 2", resp, mutated)
	}
	if resp := serve(s, PaxosAcceptReq{Txn: txn, Ballot: 0, Commit: true, Cohort: cohort}).(PaxosAcceptResp); resp.OK || resp.Promised != 2 {
		t.Fatalf("the coordinator's ballot 0 after a promise of 2: %+v, want refused", resp)
	}

	serve(s, CommitTopReq{Txn: txn, Subs: []TxnID{txn + "/0"}})
	prep.Ballot = 5
	decided := PaxosPrepareResp{Decided: true, DecCommit: true, DecSubs: []TxnID{txn + "/0"}}
	if resp, mutated := s.apply(prep); !reflect.DeepEqual(resp, decided) || mutated {
		t.Fatalf("prepare on a resolved instance: (%#v, logged %v), want %#v", resp, mutated, decided)
	}
	acc := serve(s, PaxosAcceptReq{Txn: txn, Ballot: 5, Cohort: cohort}).(PaxosAcceptResp)
	if !acc.Decided || !acc.DecCommit || !reflect.DeepEqual(acc.DecSubs, decided.DecSubs) || acc.OK {
		t.Fatalf("accept on a resolved instance: %+v, want the record", acc)
	}
	if len(s.Acceptors) != 0 {
		t.Fatalf("a resolved instance kept acceptor state: %v", s.Acceptors)
	}
}
