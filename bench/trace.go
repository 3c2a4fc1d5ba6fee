package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The traced pass records a span at every layer boundary the benchmark can
// reach from outside the program: the client's call (txn, sub, op), the
// transport seam (rpc and notify on the caller, dm.handle on the replica)
// and the filesystem seam under the WAL (wal.write, wal.sync,
// wal.snapshot). Nothing inside internal/ is touched; spans live in memory
// until the pass ends.

// span is one timed interval. Root is the id of the txn span it belongs
// to — the identifier every span of one transaction shares — and Parent
// the span that caused it; -1 where unknown.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Root   int32  `json:"root"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // read/write for op, request type for rpc, notify and dm.handle
	Node   string `json:"node,omitempty"` // where it ran: the client endpoint or the replica
	Peer   string `json:"peer,omitempty"` // the other end of an rpc, notify or dm.handle
	Txn    string `json:"txn,omitempty"`  // transaction id: top-level on client spans, the request's own on the rest
	Seq    int    `json:"seq,omitempty"`  // the request's quorum-phase number
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"`

	req, resp   any  // kept to size the wire frames after the pass
	hasDeadline bool // the call carried a context deadline onto the wire
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. Every method is safe on a nil tracer and does
// nothing while recording is off, so the executor calls it
// unconditionally. The traced pass runs one client, which is what lets a
// single stack of open client spans name the parent of each new one.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	stack []int32                 // the client's open txn/sub/op spans, innermost last
	txnOf map[cluster.TxnID]int32 // top-level attempt id -> txn span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), txnOf: map[cluster.TxnID]int32{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a client-side span (txn, sub or op) under the innermost open
// one.
func (t *tracer) begin(name, kind string) int32 {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: int32(len(t.spans)), Parent: -1, Root: -1, Name: name, Kind: kind, Node: "client"}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1]
		s.Root = t.stack[0]
		s.Txn = t.spans[t.stack[0]].Txn
	} else {
		s.Root = s.ID
	}
	s.Start = t.now()
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s.ID)
	return s.ID
}

// bindTxn tells the tracer which transaction id the current attempt of a
// txn span runs under, so requests carrying that id find their span.
func (t *tracer) bindTxn(id int32, txn cluster.TxnID) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Txn = string(txn)
	t.txnOf[txn] = id
	t.mu.Unlock()
}

// end closes a span opened by begin, beginSend or beginHandle.
func (t *tracer) end(id int32, failed bool) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Failed = failed
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// beginSend opens an rpc or notify span on the caller's side. Its parent
// is the client's innermost open span when that belongs to the request's
// transaction (the op that issued the call), else the transaction's txn
// span (commit rounds and detached sweeps run outside any op).
func (t *tracer) beginSend(name, node, peer string, req any, hasDeadline bool) int32 {
	if !t.enabled() {
		return -1
	}
	kind, txn, seq := requestMeta(req)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{
		ID: int32(len(t.spans)), Parent: -1, Root: -1, Name: name, Kind: kind,
		Node: node, Peer: peer, Txn: string(txn), Seq: seq, req: req, hasDeadline: hasDeadline,
	}
	if root, ok := t.txnOf[txn.Top()]; ok && txn != "" {
		s.Root, s.Parent = root, root
		if n := len(t.stack); n > 0 && t.stack[0] == root {
			s.Parent = t.stack[n-1]
		}
	}
	s.Start = t.now()
	t.spans = append(t.spans, s)
	return s.ID
}

// setResp attaches the reply to an rpc span, for frame sizing.
func (t *tracer) setResp(id int32, resp any) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].resp = resp
	t.mu.Unlock()
}

// beginHandle opens a dm.handle span on a replica. Its parent — the rpc
// that carried the request — is found after the pass, by matching.
func (t *tracer) beginHandle(dm, from string, req any) int32 {
	if !t.enabled() {
		return -1
	}
	kind, txn, seq := requestMeta(req)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{
		ID: int32(len(t.spans)), Parent: -1, Root: -1, Name: "dm.handle", Kind: kind,
		Node: dm, Peer: from, Txn: string(txn), Seq: seq,
	}
	s.Start = t.now()
	t.spans = append(t.spans, s)
	return s.ID
}

// record adds a finished span (the filesystem decorator times its own
// calls).
func (t *tracer) record(name, node string, start, end time.Time, bytes int) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans)), Parent: -1, Root: -1, Name: name, Node: node, Bytes: bytes,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far. Spans still open (End 0) are
// dropped: a request in flight when the pass stopped has no duration.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the spans to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestMeta reads a protocol request's type name and, where it has
// them, its exported `Txn cluster.TxnID` and `Seq int` fields. Reflection
// keeps this independent of the set of message types: a new request type
// with the same field names is traced without a change here.
func requestMeta(req any) (kind string, txn cluster.TxnID, seq int) {
	v := reflect.ValueOf(req)
	if !v.IsValid() {
		return "nil", "", 0
	}
	kind = v.Type().Name()
	if v.Kind() != reflect.Struct {
		return kind, "", 0
	}
	if f := v.FieldByName("Txn"); f.IsValid() && f.Type() == reflect.TypeOf(cluster.TxnID("")) {
		txn = cluster.TxnID(f.String())
	}
	if f := v.FieldByName("Seq"); f.IsValid() && f.Kind() == reflect.Int {
		seq = int(f.Int())
	}
	return kind, txn, seq
}

// tracedTransport decorates a transport.Transport: calls leaving a client
// become rpc spans, requests reaching a replica dm.handle spans.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
}

func (tt *tracedTransport) Serve(id string, h transport.Handler, opts ...transport.ServeOption) (transport.Server, error) {
	wrapped := func(from string, req any, reply func(resp any)) {
		sp := tt.t.beginHandle(id, from, req)
		h(from, req, func(resp any) {
			tt.t.end(sp, false)
			reply(resp)
		})
	}
	return tt.inner.Serve(id, wrapped, opts...)
}

func (tt *tracedTransport) Client(id string) (transport.Client, error) {
	c, err := tt.inner.Client(id)
	if err != nil {
		return nil, err
	}
	return &tracedClient{Client: c, t: tt.t}, nil
}

func (tt *tracedTransport) Quiesce() { tt.inner.Quiesce() }

type tracedClient struct {
	transport.Client
	t *tracer
}

func (c *tracedClient) Call(ctx context.Context, to string, req any) (any, error) {
	_, hasDeadline := ctx.Deadline()
	sp := c.t.beginSend("rpc", c.ID(), to, req, hasDeadline)
	resp, err := c.Client.Call(ctx, to, req)
	c.t.end(sp, err != nil)
	if err == nil {
		c.t.setResp(sp, resp)
	}
	return resp, err
}

func (c *tracedClient) Notify(to string, req any) {
	sp := c.t.beginSend("notify", c.ID(), to, req, false)
	c.Client.Notify(to, req)
	c.t.end(sp, false)
}

// tracedFS decorates the WAL's filesystem seam: every segment write and
// fsync and every snapshot file becomes a span on the replica whose
// directory it touches.
type tracedFS struct {
	wal.FS
	t *tracer

	mu       sync.Mutex
	snapshot map[string]pendingSnapshot // temp path -> the WriteFile that began it
}

type pendingSnapshot struct {
	start time.Time
	bytes int
}

// replicaOf names the replica a WAL path belongs to: logs live in
// <walDir>/<dm>/<file>.
func replicaOf(path string) string { return filepath.Base(filepath.Dir(path)) }

func (f *tracedFS) OpenAppend(path string) (wal.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, dm: replicaOf(path), t: f.t}, nil
}

// A snapshot is a temp file written whole, synced, and renamed into place;
// the span runs from the write to the rename that publishes it.
func (f *tracedFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	if f.snapshot == nil {
		f.snapshot = map[string]pendingSnapshot{}
	}
	f.snapshot[path] = pendingSnapshot{start: time.Now(), bytes: len(data)}
	f.mu.Unlock()
	return f.FS.WriteFile(path, data, perm)
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	f.mu.Lock()
	p, ok := f.snapshot[oldpath]
	delete(f.snapshot, oldpath)
	f.mu.Unlock()
	if ok {
		f.t.record("wal.snapshot", replicaOf(newpath), p.start, time.Now(), p.bytes)
	}
	return err
}

type tracedFile struct {
	wal.File
	dm string
	t  *tracer
}

func (f *tracedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.t.record("wal.write", f.dm, start, time.Now(), n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.record("wal.sync", f.dm, start, time.Now(), 0)
	return err
}
