package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
)

// fullScanApply is the replica's resolution logic as it was before the
// touched index: every AbortReq, CommitTopReq and DecisionReq visits every
// hosted replica. Kept as the reference the indexed server is compared
// against; every other request goes through the shared apply.
func fullScanApply(s *dmServer, req any) (any, bool) {
	resolve := func(top TxnID, commit bool, subs []TxnID) (any, bool) {
		if res := s.Resolved[top]; res != nil {
			return Ack{OK: res.Committed == commit}, false
		}
		if !commit {
			subs = nil
		}
		s.markResolved(top, commit, subs)
		committed := map[TxnID]bool{}
		for _, sub := range subs {
			committed[sub] = true
		}
		for _, r := range s.Replicas {
			if !commit {
				r.drop(top)
				continue
			}
			r.applyTop(top, committed)
		}
		delete(s.Aborted, top)
		return Ack{OK: true}, true
	}
	switch q := req.(type) {
	case AbortReq:
		top := q.Txn.Top()
		if top == q.Txn {
			return resolve(q.Txn, false, nil)
		}
		if s.Resolved[top] != nil {
			return Ack{OK: true}, false
		}
		known := false
		for _, a := range s.Aborted[top] {
			known = known || a == q.Txn
		}
		if !known {
			s.Aborted[top] = append(s.Aborted[top], q.Txn)
		}
		for _, r := range s.Replicas {
			r.drop(q.Txn)
		}
		return Ack{OK: true}, true
	case CommitTopReq:
		return resolve(q.Txn, true, q.Subs)
	case DecisionReq:
		return resolve(q.Txn.Top(), q.Commit, q.Subs)
	}
	return s.apply(req)
}

// fullScanHolds is holdsTxn as knowsTxn and the ResolutionProbeReq handler
// computed it before the index: does any hosted replica hold a lock or an
// intention of top's tree.
func fullScanHolds(s *dmServer, top TxnID) bool {
	for _, r := range s.Replicas {
		for holder := range r.Locks {
			if holder.Top() == top {
				return true
			}
		}
		for _, in := range r.Intents {
			if in.Owner.Top() == top {
				return true
			}
		}
	}
	return false
}

// replicaState is everything a replica holds, with empty maps and slices
// normalised to nil so lazily allocated tables compare equal.
type replicaState struct {
	VN, Gen int
	Val     any
	Cfg     string
	Locks   map[TxnID]lock
	Freed   map[TxnID]int
	Intents []intent
}

func snapshotState(s *dmServer) (map[string]replicaState, map[TxnID]resolution, map[TxnID][]TxnID) {
	reps := map[string]replicaState{}
	for name, r := range s.Replicas {
		st := replicaState{VN: r.VN, Gen: r.Gen, Val: r.Val, Cfg: r.Cfg.String()}
		if len(r.Locks) > 0 {
			st.Locks = r.Locks
		}
		if len(r.Released) > 0 {
			st.Freed = r.Released
		}
		if len(r.Intents) > 0 {
			st.Intents = r.Intents
		}
		reps[name] = st
	}
	res := map[TxnID]resolution{}
	for t, r := range s.Resolved {
		res[t] = *r
	}
	return reps, res, s.Aborted
}

// checkIndex asserts the index's two invariants: every transaction with
// state on a replica has that item under its top-level id, and no resolved
// transaction has an entry — nor a remembered aborted subtransaction, which
// is dropped where the index entry is.
func checkIndex(t *testing.T, s *dmServer) {
	t.Helper()
	for item, r := range s.Replicas {
		holders := map[TxnID]bool{}
		for h := range r.Locks {
			holders[h] = true
		}
		for h := range r.Released {
			holders[h] = true
		}
		for _, in := range r.Intents {
			holders[in.Owner] = true
		}
		for h := range holders {
			if _, ok := s.touched[h.Top()][item]; !ok {
				t.Fatalf("%s holds state on %s but the index does not list it", h, item)
			}
		}
	}
	for top := range s.touched {
		if s.Resolved[top] != nil {
			t.Fatalf("resolved transaction %s still has an index entry", top)
		}
	}
	for top := range s.Aborted {
		if s.Resolved[top] != nil {
			t.Fatalf("resolved transaction %s still has aborted subtransactions on record", top)
		}
	}
}

// resolutionSteps is the length of one seeded request stream.
const resolutionSteps = 1500

// resolutionStream is the seeded request generator the replica's
// equivalence tests share: 12 items, transactions up to two Subs deep with
// tolerated sub-aborts, accesses that list committed subtransactions (some
// of them aborted here), early releases, late and duplicate copies, reaps
// and Paxos decisions. It returns the item specs the replicas host and the
// generator, which yields step's request and its top-level transaction.
func resolutionStream(seed int64) ([]ItemSpec, func(step int) (any, TxnID)) {
	const items, tops = 12, 10
	rng := rand.New(rand.NewSource(seed))
	cfg := quorum.Majority([]string{"dm0", "dm1", "dm2"})
	var specs []ItemSpec
	for i := 0; i < items; i++ {
		specs = append(specs, ItemSpec{Name: fmt.Sprintf("k%d", i), Initial: 0, Config: cfg})
	}
	// A transaction id somewhere in top's tree, up to two Subs deep.
	node := func(top TxnID) TxnID {
		id := top
		for d := rng.Intn(3); d > 0; d-- {
			id += TxnID(fmt.Sprintf("/%d", rng.Intn(2)))
		}
		return id
	}
	item := func() string { return fmt.Sprintf("k%d", rng.Intn(items)) }
	subsOf := func(top TxnID) []TxnID {
		var subs []TxnID
		for _, s := range []TxnID{"/0", "/1", "/0/0", "/0/1", "/1/0", "/1/1"} {
			if rng.Intn(2) == 0 {
				subs = append(subs, top+s)
			}
		}
		return subs
	}
	generation := 0
	return specs, func(step int) (any, TxnID) {
		// Resolved ids are retired now and then, so fresh transactions keep
		// arriving while late copies for the old ones still do.
		if step%300 == 299 {
			generation++
		}
		top := TxnID(fmt.Sprintf("c1.t%d", generation*tops/2+rng.Intn(tops)))
		var req any
		switch p := rng.Intn(100); {
		case p < 35:
			req = ReadReq{Txn: node(top), Item: item(), Lock: LockMode(1 + rng.Intn(2)), Seq: rng.Intn(4), Inherit: subsOf(top)}
		case p < 63:
			req = WriteReq{Txn: node(top), Item: item(), VN: step + 1, Val: step, Seq: rng.Intn(4), Inherit: subsOf(top)}
		case p < 67:
			req = ConfigWriteReq{Txn: node(top), Item: item(), Gen: 1 + rng.Intn(5), Cfg: cfg, Seq: rng.Intn(4), Inherit: subsOf(top)}
		case p < 78:
			req = ReleaseReq{Txn: node(top), Item: item(), Seq: rng.Intn(4)}
		case p < 88:
			req = AbortReq{Txn: node(top)}
		case p < 94:
			req = CommitTopReq{Txn: top, Subs: subsOf(top)}
		case p < 97: // a reap: the reaper may name any node of the tree
			req = DecisionReq{Txn: node(top), Commit: rng.Intn(2) == 0, Subs: subsOf(top)}
		default: // a Paxos decision
			req = DecisionReq{Txn: top, Commit: rng.Intn(2) == 0, Subs: subsOf(top)}
		}
		return req, top
	}
}

// TestIndexedResolutionMatchesFullScan drives an indexed server and the
// full-scan reference with the same seeded request streams, snapshot round
// trips included, and requires identical answers and identical replica
// state after every request.
func TestIndexedResolutionMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs, next := resolutionStream(seed)
			clock := transport.NewManualClock(time.Unix(1700000000, 0))
			build := func() *dmServer {
				s := newDMState("dm0", specs)
				s.clock = clock
				return s
			}
			indexed, reference := build(), build()
			for step := 0; step < resolutionSteps; step++ {
				req, top := next(step)
				gotResp, gotMut := indexed.apply(req)
				wantResp, wantMut := fullScanApply(reference, req)
				if !reflect.DeepEqual(gotResp, wantResp) || gotMut != wantMut {
					t.Fatalf("step %d %#v: indexed answered (%#v, %v), full scan (%#v, %v)", step, req, gotResp, gotMut, wantResp, wantMut)
				}
				if step%97 == 0 {
					// The index is derived state: a server restored from a
					// snapshot must rebuild it from the replicas alone.
					snap, err := encodeSnapshot(indexed)
					if err != nil {
						t.Fatal(err)
					}
					restored := build()
					if err := restoreSnapshot(restored, snap); err != nil {
						t.Fatal(err)
					}
					indexed = restored
				}
				gotReps, gotRes, gotAborted := snapshotState(indexed)
				wantReps, wantRes, wantAborted := snapshotState(reference)
				if !reflect.DeepEqual(gotReps, wantReps) {
					for name := range wantReps {
						if !reflect.DeepEqual(gotReps[name], wantReps[name]) {
							t.Fatalf("step %d %#v: replica %s diverged:\n indexed   %+v\n full scan %+v", step, req, name, gotReps[name], wantReps[name])
						}
					}
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("step %d %#v: resolution records diverged:\n indexed   %+v\n full scan %+v", step, req, gotRes, wantRes)
				}
				if !reflect.DeepEqual(gotAborted, wantAborted) {
					t.Fatalf("step %d %#v: aborted subtransactions diverged:\n indexed   %+v\n full scan %+v", step, req, gotAborted, wantAborted)
				}
				checkIndex(t, indexed)
				if got, want := indexed.holdsTxn(top), fullScanHolds(reference, top); got != want {
					t.Fatalf("step %d %#v: holdsTxn(%s) = %v by the index, %v by full scan", step, req, top, got, want)
				}
			}
			// Resolve whatever is left: the index must drain with it.
			for top := range indexed.touched {
				indexed.apply(AbortReq{Txn: top})
			}
			if len(indexed.touched) != 0 {
				t.Fatalf("index holds %d entries after every transaction resolved", len(indexed.touched))
			}
		})
	}
}

// TestLateReleaseAfterResolutionIsInert pins the one behaviour the index
// changed: a ReleaseReq that arrives after its transaction resolved is
// acknowledged but neither logged nor recorded (it used to install a
// tombstone no sweep would remove), and late request copies stay refused —
// by the resolution record, which survives a snapshot round trip.
func TestLateReleaseAfterResolutionIsInert(t *testing.T) {
	cfg := quorum.Majority([]string{"dm0", "dm1", "dm2"})
	specs := []ItemSpec{{Name: "x", Initial: 0, Config: cfg}}
	for name, resolve := range map[string]any{
		"abort":     AbortReq{Txn: "c1.t1"},
		"committop": CommitTopReq{Txn: "c1.t1", Subs: []TxnID{"c1.t1/0"}},
	} {
		t.Run(name, func(t *testing.T) {
			s := newDMState("dm0", specs)
			if resp, _ := s.apply(ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockWrite, Seq: 1}); !resp.(ReadResp).OK {
				t.Fatalf("first grant refused: %#v", resp)
			}
			s.apply(resolve)
			resp, mutated := s.apply(ReleaseReq{Txn: "c1.t1/0", Item: "x", Seq: 1})
			if resp != (Ack{OK: true}) || mutated {
				t.Fatalf("late release answered (%#v, logged %v), want (Ack OK, not logged)", resp, mutated)
			}
			check := func(s *dmServer) {
				t.Helper()
				if len(s.touched) != 0 || len(s.Replicas["x"].Released) != 0 {
					t.Fatalf("late release left state: touched %v, released %v", s.touched, s.Replicas["x"].Released)
				}
				if resp, mutated := s.apply(ReadReq{Txn: "c1.t1/0", Item: "x", Lock: LockWrite, Seq: 1}); resp.(ReadResp).OK || mutated {
					t.Fatalf("late ReadReq copy was granted: %#v", resp)
				}
				if resp, mutated := s.apply(WriteReq{Txn: "c1.t1/0", Item: "x", VN: 9, Val: 9, Seq: 1}); resp.(WriteResp).OK || mutated {
					t.Fatalf("late WriteReq copy was granted: %#v", resp)
				}
			}
			check(s)
			snap, err := encodeSnapshot(s)
			if err != nil {
				t.Fatal(err)
			}
			restored := newDMState("dm0", specs)
			if err := restoreSnapshot(restored, snap); err != nil {
				t.Fatal(err)
			}
			check(restored)
		})
	}
}

// TestResolutionCostIndependentOfHostedItems: committing a transaction that
// touched one item costs the same on a replica server hosting 8192 items
// as on one hosting 64 (it was ~100× dearer when every resolution visited
// every replica). The bound of 3× leaves room for cache effects of the
// larger replica map.
func TestResolutionCostIndependentOfHostedItems(t *testing.T) {
	cfg := quorum.Majority([]string{"dm0", "dm1", "dm2"})
	mean := func(hosted int) time.Duration {
		var specs []ItemSpec
		for i := 0; i < hosted; i++ {
			specs = append(specs, ItemSpec{Name: fmt.Sprintf("k%d", i), Initial: 0, Config: cfg})
		}
		s := newDMState("dm0", specs)
		const txns = 2000
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ { // the quietest round: other tenants share the cores
			var spent time.Duration
			for i := 0; i < txns; i++ {
				txn := TxnID(fmt.Sprintf("c1.t%d-%d", round, i))
				item := fmt.Sprintf("k%d", i%hosted)
				if resp, _ := s.apply(WriteReq{Txn: txn, Item: item, VN: round*txns + i + 1, Val: i, Seq: 1}); !resp.(WriteResp).OK {
					t.Fatalf("write refused: %+v", resp)
				}
				commit := CommitTopReq{Txn: txn}
				t0 := time.Now()
				resp := serve(s, commit)
				spent += time.Since(t0)
				if !resp.(Ack).OK {
					t.Fatal("commit refused")
				}
			}
			if spent < best {
				best = spent
			}
		}
		return best / txns
	}
	small, large := mean(64), mean(8192)
	t.Logf("one-item CommitTopReq: %v hosting 64 items, %v hosting 8192", small, large)
	if large > 3*small {
		t.Fatalf("CommitTopReq costs %v on a server hosting 8192 items, %v on one hosting 64: more than 3×", large, small)
	}
}
