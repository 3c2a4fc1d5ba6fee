package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/transport/tcp"
)

// gobOnlyVal is a user value type the wire codec has no native kind for: it
// travels as a gob blob inside the frame, so it is gob-registered, as a
// user's own type must be.
type gobOnlyVal struct {
	Name  string
	Score float64
}

func init() { gob.Register(gobOnlyVal{}) }

// TestWireRoundTrip round-trips every registered protocol type through both
// codecs that carry it in an interface field: gob, the exact shape the
// WAL's walRecord uses, and tcp.EncodeFrame/DecodeFrame, the TCP
// transport's frames. A type that encodes in-process over the sim backend
// but is missing from the wireTypes table fails here, not on the first
// real socket or log replay. Values use non-zero fields throughout so a
// silently dropped field cannot hide behind its zero value.
func TestWireRoundTrip(t *testing.T) {
	cfg := quorum.Config{
		R: []quorum.Set{quorum.NewSet("dm0", "dm1")},
		W: []quorum.Set{quorum.NewSet("dm1", "dm2")},
	}
	ring, err := shard.New(7, 4, []shard.Group{{Name: "g0", DMs: []string{"dm0", "dm1"}}, {Name: "g1", DMs: []string{"dm2"}}})
	if err != nil {
		t.Fatal(err)
	}
	ring.MoveKey("x", "g1")
	ring.Lookup("x") // builds the unexported derived points, which must not travel
	bare := *ring.Clone()
	acc := commit.Acceptor{
		Promised: 1, PromisedTo: "c2", AccBal: 1,
		AccVal: commit.Decision{Commit: true, Subs: []string{"t2/0"}},
		Cohort: []string{"dm0", "dm1"},
	}
	msgs := []any{
		// Requests, in wireTypes order.
		ReadReq{Txn: "t1/0", Item: "x", Lock: LockWrite, Seq: 3, Gen: 2, Inherit: []TxnID{"t1/1", "t1/1/0"}},
		WriteReq{Txn: "t1", Item: "x", VN: 7, Val: 42, Seq: 4, Inherit: []TxnID{"t1/0"}},
		ConfigWriteReq{Txn: "t2", Item: "y", Gen: 2, Cfg: cfg, Seq: 1, Inherit: []TxnID{"t2/0", "t2/1"}},
		ReleaseReq{Txn: "t3", Item: "x", Seq: 2},
		ReadReq{Txn: "t1", Item: "x", Lock: LockRead, Seq: 1}, // a flat transaction's access: no list (this was retired tag 5's slot)
		AbortReq{Txn: "t4"},
		CommitTopReq{Txn: "t1", Subs: []TxnID{"t1/0", "t1/1"}, Final: map[string]int{"x": 8}},
		InspectReq{Item: "x"}, // retired tag 8's slot (later subtest numbers stay put)
		PingReq{Seq: 11},
		InspectReq{Item: "z"},
		RenewLeaseReq{Txn: "t5"},
		// Retired tags 12 and 13's slots (later subtest numbers stay put): the
		// presumed abort, and a refusal that names an orphan.
		DecisionReq{Txn: "t6", Presumed: true},
		ReadResp{Busy: true, Orphans: []TxnID{"t6", "t9"}},
		// Retired tags 14–16's slots: a commit as a client sends it (no
		// Final), a re-served commit record, and a proposed abort.
		CommitTopReq{Txn: "t7", Subs: []TxnID{"t7/0"}},
		DecisionReq{Txn: "t8", Commit: true},
		PaxosAcceptReq{Txn: "t8", Cohort: []string{"dm0", "dm1", "dm2"}},
		AdoptItemReq{Item: "x", Initial: "seed"},
		RetireItemReq{Item: "x", Epoch: 2, Group: "g1", DMs: []string{"dm3", "dm4"}, Gen: 3, Cfg: cfg},
		RingReq{},
		RingUpdateReq{Ring: *ring},
		PaxosAcceptReq{Txn: "t10", Ballot: 1, Commit: true, Subs: []TxnID{"t10/0"}, Cohort: []string{"dm0", "dm1"}},
		PaxosPrepareReq{Txn: "t10", Ballot: 2, Cohort: []string{"dm0", "dm1"}, Proposer: "c2"},
		DecisionReq{Txn: "t10", Commit: true, Subs: []TxnID{"t10/0"}},
		// Retired tags 25–28's slots: Phase 1b in its three forms, and a
		// refused fence.
		PaxosPrepareResp{OK: true, Promised: 2, AccBal: 1, AccCommit: true, AccSubs: []TxnID{"t10/0"}},
		PaxosPrepareResp{Promised: 3, AccBal: -1},
		PaxosPrepareResp{Decided: true, DecCommit: true, DecSubs: []TxnID{"t10/1"}},
		WriteResp{Busy: true, Orphans: []TxnID{"t6"}},
		ResolutionProbeReq{Txn: "t11"},
		RebuildPullReq{For: "dm1", Items: []string{"x", "y"}},
		// Responses.
		ReadResp{OK: true, Held: true, VN: 6, Val: 13, Gen: 1, Cfg: cfg},
		WriteResp{OK: true, Held: true},
		Ack{OK: true},
		OverloadedResp{DM: "dm2", Expired: true},
		InspectResp{OK: true, VN: 4, Val: 8, Gen: 1, Cfg: cfg, Locks: 2, Intents: 1, Orphans: []TxnID{"t6"}},
		ReadResp{OK: true, VN: 6, Val: 13, Gen: 1}, // retired tag 36's slot: a read with no configuration news
		WrongShardResp{DM: "dm0", Item: "y", Epoch: 2, Group: "g1", DMs: []string{"dm3"}, Gen: 3, Cfg: cfg},
		RingResp{OK: true, Ring: *ring},
		PaxosAcceptResp{OK: true, Promised: 3, Decided: true, DecCommit: true, DecSubs: []TxnID{"t10/0"}},
		ResolutionProbeResp{
			Known: true, Committed: true, Subs: []TxnID{"t11/0"}, Holds: true, Active: true,
			Promised: -2, AccBal: -1, AccCommit: true, Cohort: []string{"dm0", "dm1"},
		},
		QuarantinedResp{DM: "dm1", Reason: "wal: segment corrupt"},
		RebuildPullResp{
			OK: true, From: "dm0",
			Replicas:  map[string]replica{"x": {VN: 5, Val: 9, Gen: 1, Cfg: cfg}},
			Moved:     map[string]WrongShardResp{"y": {DM: "dm0", Item: "y", Epoch: 2, Group: "g1", DMs: []string{"dm3"}, Gen: 3, Cfg: cfg}},
			Resolved:  map[TxnID]resolution{"t1": {Committed: true, Subs: []TxnID{"t1/0"}}},
			Acceptors: map[TxnID]commit.Acceptor{"t2": acc, "t1": {Promised: 0, AccBal: -1}},
		},
	}
	// A stored value of every kind the wire carries natively, one that rides
	// as a gob blob, and none at all.
	for _, val := range []any{nil, true, -42, int64(1) << 40, uint64(1) << 63, 2.5, "sixteen bytes ok", []byte{0, 1, 2}, gobOnlyVal{Name: "n", Score: 0.5}} {
		msgs = append(msgs, WriteReq{Txn: "t1", Item: "x", VN: 7, Val: val, Seq: 4})
	}
	// A top-level transaction's lockless first read: Lock is the zero mode,
	// which a replica of wire version 4 would have recorded as a lock.
	msgs = append(msgs, ReadReq{Txn: "t1", Item: "x", Lock: lockNone, Seq: 1, Gen: 2})
	// Every registered type must be in msgs: a new message cannot join the
	// table without a round trip here.
	sampled := map[reflect.Type]bool{}
	for _, m := range msgs {
		sampled[reflect.TypeOf(m)] = true
	}
	for _, wt := range wireTypes {
		if !sampled[reflect.TypeOf(wt.proto)] {
			t.Errorf("registered type %T (tag %d) has no sample in this test", wt.proto, wt.tag)
		}
	}
	// want is what must come back: the message itself, except that a ring's
	// unexported derived points do not travel (both codecs skip them).
	want := func(m any) any {
		switch v := m.(type) {
		case RingUpdateReq:
			v.Ring = bare
			return v
		case RingResp:
			v.Ring = bare
			return v
		}
		return m
	}
	type envelope struct{ Msg any }
	for i, m := range msgs {
		t.Run(fmt.Sprintf("%d-%T", i, m), func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(envelope{Msg: m}); err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			var out envelope
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			if !reflect.DeepEqual(out.Msg, want(m)) {
				t.Fatalf("gob round trip changed the value:\n sent %#v\n got  %#v", m, out.Msg)
			}
			if got := frameRoundTrip(t, m); !reflect.DeepEqual(got, want(m)) {
				t.Fatalf("frame round trip changed the value:\n sent %#v\n got  %#v", m, got)
			}
		})
	}
	// Empty slices and maps arrive nil, under the frame codec as under gob.
	empty := CommitTopReq{Txn: "t1", Subs: []TxnID{}, Final: map[string]int{}}
	if got := frameRoundTrip(t, empty); !reflect.DeepEqual(got, CommitTopReq{Txn: "t1"}) {
		t.Fatalf("empty slice and map decoded as %#v, want nil fields", got)
	}
	flat := WriteReq{Txn: "t1", Item: "x", VN: 7, Val: 42, Seq: 4, Inherit: []TxnID{}}
	if got := frameRoundTrip(t, flat); !reflect.DeepEqual(got, WriteReq{Txn: "t1", Item: "x", VN: 7, Val: 42, Seq: 4}) {
		t.Fatalf("empty inherit list decoded as %#v, want a nil field", got)
	}
	emptySets := ReadResp{OK: true, Cfg: quorum.Config{R: []quorum.Set{{}}, W: []quorum.Set{}}, Orphans: []TxnID{}}
	if got := frameRoundTrip(t, emptySets); !reflect.DeepEqual(got, ReadResp{OK: true, Cfg: quorum.Config{R: []quorum.Set{nil}}}) {
		t.Fatalf("empty sets and orphan list decoded as %#v", got)
	}
}

// Frame kinds, as internal/transport/tcp numbers them.
const (
	frameCall  = 1
	frameReply = 3
)

// frameRoundTrip sends m through the TCP frame codec both ways it can
// travel — the request of a call, the response of a reply — and returns
// what arrived (the two must agree).
func frameRoundTrip(t *testing.T, m any) any {
	t.Helper()
	call := tcp.Frame{Kind: frameCall, ID: 7, From: "c", Req: m, Deadline: time.Unix(1700000000, 5)}
	reply := tcp.Frame{Kind: frameReply, ID: 7, Resp: m}
	var got [2]any
	for i, f := range []tcp.Frame{call, reply} {
		body, err := tcp.EncodeFrame(f)
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		back, err := tcp.DecodeFrame(body)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if back.Kind != f.Kind || back.ID != f.ID || back.From != f.From || !back.Deadline.Equal(f.Deadline) {
			t.Fatalf("frame header changed: sent %+v, got %+v", f, back)
		}
		got[i] = back.Req
		if f.Kind == frameReply {
			got[i] = back.Resp
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("a call carried %#v, a reply %#v", got[0], got[1])
	}
	return got[0]
}

// TestFrameAllocBudget holds the four frames the benchmark's codec probe
// times (bench/probes.go builds the same shapes) to 16 allocations per
// encode+decode round trip; the per-frame gob codec took 237–302.
func TestFrameAllocBudget(t *testing.T) {
	txn := TxnID("c1.t123456/1")
	filler := strings.Repeat("v", 1024)
	deadline := time.Unix(1700000000, 0)
	frames := map[string]tcp.Frame{
		"readreq": {Kind: frameCall, ID: 7, From: "client-c1-1", Deadline: deadline,
			Req: ReadReq{Txn: txn, Item: "k512", Lock: LockRead, Seq: 3}},
		"readresp": {Kind: frameReply, ID: 7,
			Resp: ReadResp{OK: true, VN: 41, Val: filler[:16], Gen: 0}},
		"writereq1k": {Kind: frameCall, ID: 8, From: "client-c1-1", Deadline: deadline,
			Req: WriteReq{Txn: txn, Item: "k512", VN: 42, Val: filler, Seq: 4}},
		"committop": {Kind: frameCall, ID: 9, From: "client-c1-1", Deadline: deadline,
			Req: CommitTopReq{Txn: txn.Top(), Subs: []TxnID{txn, txn.Top() + "/2"}, Final: map[string]int{"k512": 42, "k77": 9}}},
	}
	for name, f := range frames {
		allocs := testing.AllocsPerRun(200, func() {
			body, err := tcp.EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tcp.DecodeFrame(body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per round trip", name, allocs)
		if allocs > 16 {
			t.Errorf("%s: %.0f allocs per encode+decode, budget 16", name, allocs)
		}
	}
}
