package main

import (
	"testing"

	"repro/internal/cluster"
)

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 70}}, 60},
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested inside another child", []interval{{10, 50}, {25, 28}}, 60},
		{"overlapping, nested and out of order", []interval{{25, 28}, {20, 50}, {10, 30}}, 60},
		{"clipped at both ends", []interval{{-20, 10}, {90, 130}}, 80},
		{"wholly outside", []interval{{-30, -10}, {100, 140}}, 100},
		{"covers everything", []interval{{-5, 105}}, 0},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// mkSpans numbers the spans the way the tracer does.
func mkSpans(spans ...span) []span {
	for i := range spans {
		spans[i].ID = int32(i)
		if spans[i].Name != "txn" {
			spans[i].Parent = -1
		}
	}
	return spans
}

func TestMatchHandlesPairsHedgedCopiesByTime(t *testing.T) {
	rpc := func(start, end int64, failed bool) span {
		return span{Name: "rpc", Kind: "ReadReq", Node: "client", Peer: "dm0", Txn: "c1.t1", Seq: 1, Root: 0, Start: start, End: end, Failed: failed}
	}
	handle := func(start, end int64) span {
		return span{Name: "dm.handle", Kind: "ReadReq", Node: "dm0", Peer: "client", Txn: "c1.t1", Seq: 1, Root: -1, Start: start, End: end}
	}
	spans := mkSpans(
		span{Name: "txn", Parent: -1, Root: 0, Start: 0, End: 1000},
		rpc(10, 900, true), // first copy: never answered
		rpc(500, 700, false),
		handle(550, 560), // must pair with the copy sent at 500, the latest one before it
		span{Name: "dm.handle", Kind: "AbortReq", Node: "dm1", Peer: "client", Txn: "c9.t9", Root: -1, Start: 20, End: 30}, // no sender recorded
	)
	unmatched := matchHandles(spans)
	if spans[3].Parent != 2 || spans[3].Root != 0 {
		t.Errorf("handle paired with span %d (root %d), want the rpc sent at 500 (span 2, root 0)", spans[3].Parent, spans[3].Root)
	}
	if spans[4].Parent != -1 {
		t.Errorf("handler without a sender got parent %d", spans[4].Parent)
	}
	if unmatched != 1 {
		t.Errorf("unmatched = %d, want 1 (the senderless handler; the failed rpc expects no handler)", unmatched)
	}
}

func TestAttachWALPicksLongestWaitingHandle(t *testing.T) {
	spans := mkSpans(
		span{Name: "dm.handle", Node: "dm0", Root: 7, Start: 100, End: 400},
		span{Name: "dm.handle", Node: "dm0", Root: 8, Start: 150, End: 420},
		span{Name: "dm.handle", Node: "dm1", Root: 9, Start: 100, End: 400},
		span{Name: "wal.sync", Node: "dm0", Root: -1, Start: 200, End: 390},
		span{Name: "wal.write", Node: "dm0", Root: -1, Start: 500, End: 510}, // after every handler: no parent
	)
	attachWAL(spans)
	if spans[3].Parent != 0 || spans[3].Root != 7 {
		t.Errorf("wal.sync parent %d root %d, want the handler that started first on dm0 (0, 7)", spans[3].Parent, spans[3].Root)
	}
	if spans[4].Parent != -1 {
		t.Errorf("wal.write outside every handler got parent %d", spans[4].Parent)
	}
}

func TestRequestMeta(t *testing.T) {
	kind, txn, seq := requestMeta(cluster.WriteReq{Txn: "c1.t5/2/1", Item: "k1", Seq: 4})
	if kind != "WriteReq" || txn != "c1.t5/2/1" || seq != 4 {
		t.Errorf("WriteReq meta = %q %q %d", kind, txn, seq)
	}
	if txn.Top() != "c1.t5" {
		t.Errorf("top-level id of %q = %q, want c1.t5", txn, txn.Top())
	}
	kind, txn, seq = requestMeta(cluster.RepairReq{Item: "k1", VN: 3})
	if kind != "RepairReq" || txn != "" || seq != 0 {
		t.Errorf("RepairReq meta = %q %q %d, want no txn and no seq", kind, txn, seq)
	}
}

// The tracer names parents from the client's stack of open spans and from
// the transaction id a request carries.
func TestTracerParents(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("txn", ""); id != -1 {
		t.Fatalf("recording is off, begin returned %d", id)
	}
	tr.on.Store(true)
	txn := tr.begin("txn", "")
	tr.bindTxn(txn, "c1.t1")
	op := tr.begin("op", "read")
	inOp := tr.beginSend("rpc", "client", "dm0", cluster.ReadReq{Txn: "c1.t1", Item: "k", Seq: 1}, true)
	tr.end(inOp, false)
	tr.end(op, false)
	commit := tr.beginSend("rpc", "client", "dm0", cluster.CommitTopReq{Txn: "c1.t1"}, true)
	tr.end(commit, false)
	tr.end(txn, false)
	sweep := tr.beginSend("rpc", "client", "dm1", cluster.CommitTopReq{Txn: "c1.t1"}, true) // detached, after the txn returned
	tr.end(sweep, false)
	stray := tr.beginSend("notify", "client", "dm1", cluster.RepairReq{Item: "k"}, false)
	tr.end(stray, false)

	spans := tr.snapshot()
	want := map[int32][2]int32{ // span -> {parent, root}
		op: {txn, txn}, inOp: {op, txn}, commit: {txn, txn}, sweep: {txn, txn}, stray: {-1, -1},
	}
	for id, pr := range want {
		if s := spans[id]; s.Parent != pr[0] || s.Root != pr[1] {
			t.Errorf("span %d (%s %s): parent %d root %d, want %d %d", id, s.Name, s.Kind, s.Parent, s.Root, pr[0], pr[1])
		}
	}
}
