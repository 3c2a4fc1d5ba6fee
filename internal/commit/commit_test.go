package commit

import (
	"reflect"
	"testing"
)

func TestProtocolRoundTrip(t *testing.T) {
	for _, p := range []Protocol{TwoPhase, PaxosCommit} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParseProtocol(""); err != nil || p != TwoPhase {
		t.Fatalf("empty spelling should default to 2pc, got %v, %v", p, err)
	}
	if _, err := ParseProtocol("3pc"); err == nil {
		t.Fatal("unknown protocol must error")
	}
}

// TestAcceptorOrdering is the table-driven core of the acceptor contract:
// promises and accepts are granted exactly when the ballot is no lower
// than the promise watermark, and every grant moves the watermark.
func TestAcceptorOrdering(t *testing.T) {
	commit := Decision{Commit: true, Subs: []string{"s1"}}
	abort := Decision{Commit: false}
	type step struct {
		prepare bool // else accept
		bal     int
		val     Decision
		wantOK  bool
		wantMut bool
	}
	cases := []struct {
		name  string
		steps []step
		// final expected hard state
		promised, accBal int
		accCommit        bool
	}{
		{
			name: "coordinator fast path: bare accept at ballot 0",
			steps: []step{
				{prepare: false, bal: 0, val: commit, wantOK: true, wantMut: true},
			},
			promised: 0, accBal: 0, accCommit: true,
		},
		{
			name: "recovery prepare blocks stale coordinator accept",
			steps: []step{
				{prepare: true, bal: 2, wantOK: true, wantMut: true},
				{prepare: false, bal: 0, val: commit, wantOK: false, wantMut: false},
				{prepare: false, bal: 2, val: abort, wantOK: true, wantMut: true},
			},
			promised: 2, accBal: 2, accCommit: false,
		},
		{
			name: "higher ballot overrides accepted value",
			steps: []step{
				{prepare: false, bal: 0, val: commit, wantOK: true, wantMut: true},
				{prepare: true, bal: 3, wantOK: true, wantMut: true},
				{prepare: false, bal: 3, val: commit, wantOK: true, wantMut: true},
			},
			promised: 3, accBal: 3, accCommit: true,
		},
		{
			name: "duplicate prepare re-acks without mutation",
			steps: []step{
				{prepare: true, bal: 4, wantOK: true, wantMut: true},
				{prepare: true, bal: 4, wantOK: true, wantMut: false},
				{prepare: true, bal: 1, wantOK: false, wantMut: false},
			},
			promised: 4, accBal: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAcceptor([]string{"dm0", "dm1", "dm2"})
			for i, s := range tc.steps {
				var ok, mut bool
				if s.prepare {
					ok, mut = a.Prepare(s.bal, "p")
				} else {
					ok, mut = a.Accept(s.bal, s.val)
				}
				if ok != s.wantOK || mut != s.wantMut {
					t.Fatalf("step %d: got ok=%v mut=%v, want ok=%v mut=%v", i, ok, mut, s.wantOK, s.wantMut)
				}
			}
			if a.Promised != tc.promised || a.AccBal != tc.accBal {
				t.Fatalf("final state promised=%d accBal=%d, want %d/%d", a.Promised, a.AccBal, tc.promised, tc.accBal)
			}
			if tc.accBal >= 0 && a.AccVal.Commit != tc.accCommit {
				t.Fatalf("accepted commit=%v, want %v", a.AccVal.Commit, tc.accCommit)
			}
		})
	}
}

func TestChoose(t *testing.T) {
	commit := Decision{Commit: true, Subs: []string{"s1"}}
	cases := []struct {
		name     string
		promises []Promise
		want     bool
	}{
		{"no accepted value defaults to abort", []Promise{{OK: true, AccBal: -1}, {OK: true, AccBal: -1}}, false},
		{"single accepted value adopted", []Promise{{OK: true, AccBal: 0, AccVal: commit}, {OK: true, AccBal: -1}}, true},
		{"highest ballot wins", []Promise{
			{OK: true, AccBal: 0, AccVal: commit},
			{OK: true, AccBal: 2, AccVal: Decision{Commit: false}},
		}, false},
		{"rejected promises ignored", []Promise{{OK: false, AccBal: 5, AccVal: commit}, {OK: true, AccBal: -1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Choose(tc.promises); got.Commit != tc.want {
				t.Fatalf("Choose = %+v, want commit=%v", got, tc.want)
			}
		})
	}
}

func TestChooseAdoptsValueWhole(t *testing.T) {
	val := Decision{Commit: true, Subs: []string{"a", "b"}}
	got := Choose([]Promise{{OK: true, AccBal: 3, AccVal: val}})
	if !reflect.DeepEqual(got, val) {
		t.Fatalf("Choose must adopt the accepted value unchanged: got %+v", got)
	}
}

func TestQuorumAndBallots(t *testing.T) {
	for n, want := range map[int]int{1: 1, 3: 2, 5: 3, 7: 4} {
		if got := Quorum(n); got != want {
			t.Fatalf("Quorum(%d) = %d, want %d", n, got, want)
		}
	}
	// Proposers pick ballots without coordinating, so two may pick the same
	// one. Whatever order their Phase-1a messages reach three acceptors in,
	// at most one of them gathers a majority of promises for it.
	type msg struct {
		acc int
		who string
	}
	msgs := []msg{{0, "A"}, {1, "A"}, {2, "A"}, {0, "B"}, {1, "B"}, {2, "B"}}
	var orders int
	var permute func(k int)
	permute = func(k int) {
		if k < len(msgs) {
			for i := k; i < len(msgs); i++ {
				msgs[k], msgs[i] = msgs[i], msgs[k]
				permute(k + 1)
				msgs[k], msgs[i] = msgs[i], msgs[k]
			}
			return
		}
		orders++
		accs := []*Acceptor{NewAcceptor(nil), NewAcceptor(nil), NewAcceptor(nil)}
		promises := map[string]int{}
		for _, m := range msgs {
			if ok, _ := accs[m.acc].Prepare(1, m.who); ok {
				promises[m.who]++
			}
		}
		if promises["A"] >= Quorum(3) && promises["B"] >= Quorum(3) {
			t.Fatalf("order %v: both proposers hold a majority of promises for ballot 1: %v", msgs, promises)
		}
		if promises["A"]+promises["B"] != 3 {
			t.Fatalf("order %v: %v — every acceptor promises the ballot exactly once", msgs, promises)
		}
	}
	permute(0)
	if orders != 720 {
		t.Fatalf("walked %d orders, want 6!", orders)
	}
}

// TestPrepareRetryAndStaleCoordinator: the proposer a ballot was promised to
// may ask again (a retried call) and changes nothing by it; anybody else is
// refused that ballot, also after a bare accept took it; and the
// coordinator's ballot 0 is dead once any ballot >= 1 is promised.
func TestPrepareRetryAndStaleCoordinator(t *testing.T) {
	a := NewAcceptor([]string{"dm0", "dm1", "dm2"})
	if ok, mut := a.Prepare(1, "A"); !ok || !mut {
		t.Fatalf("first prepare: ok=%v mutated=%v", ok, mut)
	}
	if ok, mut := a.Prepare(1, "A"); !ok || mut {
		t.Fatalf("same proposer's retry: ok=%v mutated=%v, want granted and unchanged", ok, mut)
	}
	if ok, mut := a.Prepare(1, "B"); ok || mut {
		t.Fatalf("another proposer at the promised ballot: ok=%v mutated=%v, want refused", ok, mut)
	}
	if ok, _ := a.Accept(0, Decision{Commit: true}); ok {
		t.Fatal("ballot 0 accepted after ballot 1 was promised")
	}
	if a.Promised != 1 || a.PromisedTo != "A" || a.AccBal != -1 {
		t.Fatalf("refusals moved the acceptor: %+v", a)
	}
	// A Phase 2a that overtakes its own Phase 1 takes the ballot for nobody.
	if ok, _ := a.Accept(2, Decision{}); !ok {
		t.Fatal("accept above the watermark refused")
	}
	for _, who := range []string{"A", "B"} {
		if ok, _ := a.Prepare(2, who); ok {
			t.Fatalf("%s was promised ballot 2 after a value was accepted at it", who)
		}
	}
	if ok, mut := a.Prepare(3, "B"); !ok || !mut || a.PromisedTo != "B" {
		t.Fatalf("a higher ballot must be promised to its proposer: ok=%v mutated=%v %+v", ok, mut, a)
	}
}
