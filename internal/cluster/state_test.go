package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// streamedState drives the first steps requests of the shared
// resolutionStream into a fresh state machine that also holds an adopted
// placeholder and two undecided Paxos instances (one whose cohort leaves dm1
// out), so every table of the hard state is populated.
func streamedState(t *testing.T, seed int64, steps int) *dmServer {
	t.Helper()
	specs, next := resolutionStream(seed)
	s := newDMState("dm0", specs)
	s.clock = transport.NewManualClock(time.Unix(1700000000, 0))
	for _, req := range []any{
		AdoptItemReq{Item: "gone", Initial: 0},
		PaxosAcceptReq{Txn: "c9.t1", Commit: true, Subs: []TxnID{"c9.t1/0"}, Cohort: []string{"dm0", "dm1", "dm2"}},
		PaxosPrepareReq{Txn: "c9.t2", Ballot: 3, Cohort: []string{"dm0", "dm2"}},
	} {
		if _, mutated := s.apply(req); !mutated {
			t.Fatalf("%#v changed nothing", req)
		}
	}
	for step := 0; step < steps; step++ {
		req, _ := next(step)
		s.apply(req)
	}
	return s
}

// inFlight counts the locks with a phase record, the release tombstones and
// the intentions a state machine holds.
func inFlight(s *dmServer) (phased, tombstones, intents int) {
	for _, r := range s.Replicas {
		for _, l := range r.Locks {
			if l.Born != 0 && l.Last != 0 {
				phased++
			}
		}
		tombstones += len(r.Released)
		intents += len(r.Intents)
	}
	return
}

// TestSnapshotIsTheStateFixedPoint: a snapshot is the gob of the state
// machine's own hard state, so restoring one into a fresh machine must give
// back that state exactly — every table, every lock's phase record, every
// tombstone and intention — and the index derived from it; and a snapshot
// of the restored machine must restore to the same thing again. The stream
// is cut at several points so the state holds work in flight.
func TestSnapshotIsTheStateFixedPoint(t *testing.T) {
	roundTrip := func(t *testing.T, from *dmServer) *dmServer {
		snap, err := encodeSnapshot(from)
		if err != nil {
			t.Fatal(err)
		}
		to := newDMState("dm0", nil)
		if err := restoreSnapshot(to, snap); err != nil {
			t.Fatal(err)
		}
		return to
	}
	var phased, tombstones, intents int
	for seed := int64(1); seed <= 4; seed++ {
		for _, steps := range []int{40, 333, 901, resolutionSteps} {
			t.Run(fmt.Sprintf("seed%d/%dsteps", seed, steps), func(t *testing.T) {
				live := streamedState(t, seed, steps)
				p, r, i := inFlight(live)
				phased, tombstones, intents = phased+p, tombstones+r, intents+i
				if len(live.Acceptors) != 2 || len(live.Resolved) == 0 {
					t.Fatalf("the streamed state leaves a table empty: %d acceptors, %d resolved",
						len(live.Acceptors), len(live.Resolved))
				}

				first := roundTrip(t, live)
				if !reflect.DeepEqual(first.dmState, live.dmState) {
					for name, r := range live.Replicas {
						if !reflect.DeepEqual(first.Replicas[name], r) {
							t.Errorf("replica %s restored as\n %#v\nfrom\n %#v", name, first.Replicas[name], r)
						}
					}
					t.Fatalf("restored hard state differs from the live one:\n %#v\n %#v", first.dmState, live.dmState)
				}
				// The restored index lists exactly the items on which a
				// transaction holds state. The live one may list more — an
				// aborted subtransaction can leave its tree nothing on an item
				// the entry stays for until the top-level resolves — but never
				// less.
				checkIndex(t, first)
				for top, items := range first.touched {
					for item := range items {
						if _, ok := live.touched[top][item]; !ok {
							t.Fatalf("restored index lists %s on %s, the live one does not", top, item)
						}
					}
				}

				second := roundTrip(t, first)
				if !reflect.DeepEqual(second.dmState, first.dmState) {
					t.Fatalf("a second round trip changed the hard state:\n %#v\n %#v", second.dmState, first.dmState)
				}
				if !reflect.DeepEqual(second.touched, first.touched) {
					t.Fatalf("a second round trip changed the index:\n %v\n %v", second.touched, first.touched)
				}
			})
		}
	}
	if phased == 0 || tombstones == 0 || intents == 0 {
		t.Fatalf("the cuts caught no work in flight: %d phased locks, %d tombstones, %d intentions", phased, tombstones, intents)
	}
}

// TestPullAnswerIsTheStateMinusWhatIsInFlight: the answer to a rebuild pull
// is built from the same state, in the same types — the committed value of
// every hosted item, every resolution record, the acceptors whose cohort
// names the rebuilding DM — and carries no lock, tombstone or intention.
func TestPullAnswerIsTheStateMinusWhatIsInFlight(t *testing.T) {
	s := streamedState(t, 1, 40)
	if p, r, i := inFlight(s); p == 0 || r == 0 || i == 0 {
		t.Fatalf("nothing in flight to leave out: %d phased locks, %d tombstones, %d intentions", p, r, i)
	}
	raw, handled := s.coordinate(RebuildPullReq{For: "dm1"})
	ans, ok := raw.(RebuildPullResp)
	if !handled || !ok || !ans.OK || ans.From != "dm0" {
		t.Fatalf("pull answered %#v (handled %v)", raw, handled)
	}
	if len(ans.Replicas) != len(s.Replicas) {
		t.Fatalf("answer carries %d replicas, the state hosts %d", len(ans.Replicas), len(s.Replicas))
	}
	for name, r := range s.Replicas {
		want := replica{VN: r.VN, Val: r.Val, Gen: r.Gen, Cfg: r.Cfg}
		if got := ans.Replicas[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("replica %s travels as %#v, want the committed state alone %#v", name, got, want)
		}
	}
	if len(ans.Resolved) != len(s.Resolved) {
		t.Fatalf("answer carries %d resolutions, the state holds %d", len(ans.Resolved), len(s.Resolved))
	}
	for txn, res := range s.Resolved {
		if !reflect.DeepEqual(ans.Resolved[txn], *res) {
			t.Errorf("resolution of %s travels as %#v, want %#v", txn, ans.Resolved[txn], *res)
		}
	}
	// c9.t2's cohort is {dm0, dm2}: its acceptor state is not dm1's to adopt.
	if len(ans.Acceptors) != 1 || !reflect.DeepEqual(ans.Acceptors["c9.t1"], *s.Acceptors["c9.t1"]) {
		t.Errorf("acceptors: %#v, want c9.t1's alone (%#v)", ans.Acceptors, *s.Acceptors["c9.t1"])
	}
	// And it crosses a socket as it is: the wire plan sees the state types.
	frame, err := wire.Append(nil, ans)
	if err != nil {
		t.Fatal(err)
	}
	if back, _, err := wire.Decode(frame); err != nil || !reflect.DeepEqual(back, raw) {
		t.Fatalf("the answer came off the wire as %#v (%v)", back, err)
	}
}

// TestEveryResolutionSenderKeepsTheFirstVerdict: a top-level outcome can
// arrive four ways — the client's CommitTopReq, its top-level AbortReq, a
// reap, a Paxos decision — and all four go through the one resolve. Against
// an unresolved transaction each installs its verdict; against a resolved
// one each leaves the first verdict and the committed value standing, is
// not logged again, and acks OK only when its own verdict is the standing
// one.
func TestEveryResolutionSenderKeepsTheFirstVerdict(t *testing.T) {
	const txn = TxnID("c1.t1")
	senders := []struct {
		name   string
		commit bool
		req    any
	}{
		{"CommitTopReq", true, CommitTopReq{Txn: txn, Subs: []TxnID{txn + "/0"}}},
		{"AbortReq", false, AbortReq{Txn: txn}},
		{"reap/commit", true, DecisionReq{Txn: txn + "/0", Commit: true, Subs: []TxnID{txn + "/0"}}},
		{"reap/abort", false, DecisionReq{Txn: txn + "/0"}},
		{"paxos/commit", true, DecisionReq{Txn: txn, Commit: true, Subs: []TxnID{txn + "/0"}}},
		{"paxos/abort", false, DecisionReq{Txn: txn}},
	}
	priors := []struct {
		name     string
		resolved bool
		commit   bool
	}{{"unresolved", false, false}, {"committed", true, true}, {"aborted", true, false}}
	for _, snd := range senders {
		for _, prior := range priors {
			t.Run(snd.name+"/"+prior.name, func(t *testing.T) {
				s := bareDM()
				if resp, _ := s.apply(WriteReq{Txn: txn + "/0", Item: "x", VN: 2, Val: "new", Seq: 1}); !resp.(WriteResp).OK {
					t.Fatalf("write refused: %#v", resp)
				}
				first := snd.commit
				if prior.resolved {
					first = prior.commit
					var req any = AbortReq{Txn: txn}
					if prior.commit {
						req = CommitTopReq{Txn: txn, Subs: []TxnID{txn + "/0"}}
					}
					if resp, mutated := s.apply(req); resp != (Ack{OK: true}) || !mutated {
						t.Fatalf("prior %#v answered (%#v, logged %v)", req, resp, mutated)
					}
				}
				resp, mutated := s.apply(snd.req)
				if want := (Ack{OK: snd.commit == first}); resp != want {
					t.Errorf("answered %#v, want %#v", resp, want)
				}
				if mutated != !prior.resolved {
					t.Errorf("logged = %v against a transaction resolved = %v", mutated, prior.resolved)
				}
				if res := s.Resolved[txn]; res == nil || res.Committed != first {
					t.Errorf("resolution record %+v, want the first verdict (commit %v)", res, first)
				}
				r := s.Replicas["x"]
				wantVN, wantVal := 0, any("init")
				if first {
					wantVN, wantVal = 2, "new"
				}
				if r.VN != wantVN || r.Val != wantVal {
					t.Errorf("committed value (%d, %v), want (%d, %v)", r.VN, r.Val, wantVN, wantVal)
				}
				if len(r.Locks) != 0 || len(r.Intents) != 0 || len(s.touched) != 0 {
					t.Errorf("state left behind: locks %v, intents %v, index %v", r.Locks, r.Intents, s.touched)
				}
			})
		}
	}
}
