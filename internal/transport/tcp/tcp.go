// Package tcp implements the transport seam over real sockets: every served
// name is a TCP listener, every Call one length-prefixed binary frame
// (frame.go; payloads by package wire) and its reply on a pooled
// connection. It is the backend that turns a quorum cluster into N ordinary
// OS processes — same protocol code, same envelope semantics as the
// deterministic sim network:
//
//   - Deadlines propagate on the wire (Frame.Deadline), so an
//     overload-protected replica discards requests whose caller gave up.
//   - No-answer failures are the shared typed sentinels: a passed deadline
//     or an ended Call context is transport.ErrTimeout; a refused dial, an
//     unknown peer, or a severed connection is transport.ErrLost. Raw net
//     errors never escape.
//   - Connection loss is the fate feedback this backend supports: every
//     call pending on a broken connection fails with ErrLost the moment the
//     reader sees the break, instead of burning its timeout.
//   - Handlers keep the actor discipline: each server serves on a single
//     goroutine (its dispatch loop, or its admission queue's service
//     goroutine), whatever the connection fan-in.
//   - Every connection has one writer (frameWriter, frame.go): frames queued
//     on a link within one scheduler turn leave in one Write.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Compile-time interface conformance.
var (
	_ transport.Transport       = (*Transport)(nil)
	_ transport.Client          = (*Client)(nil)
	_ transport.AsyncClient     = (*Client)(nil)
	_ transport.Server          = (*Server)(nil)
	_ transport.OverloadHarness = (*Server)(nil)
)

// Transport is one process's view of a TCP cluster: a static peer address
// map (other processes' replicas), plus the listeners this process opened
// itself. Names resolve locally first, so a single-process loopback cluster
// needs no peer map at all — Serve on :0 and every Client finds it.
type Transport struct {
	dialTimeout time.Duration
	links       linkCounters // summed over every link this transport writes

	// dial connects to a peer; a seam for tests that need a dial to hang.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	mu      sync.Mutex
	peers   map[string]string // static name → host:port
	local   map[string]string // names served by this transport → bound addr
	servers map[string]*Server
	callers map[*Client]struct{}
	closed  bool
}

// An Option configures a Transport.
type Option func(*Transport)

// WithPeers installs the static name → "host:port" map. A Serve of a
// mapped name listens on exactly that address; calls to a mapped name not
// served locally dial it. This is how N processes agree on who is where.
func WithPeers(peers map[string]string) Option {
	return func(t *Transport) {
		for id, addr := range peers {
			t.peers[id] = addr
		}
	}
}

// WithDialTimeout bounds connection establishment (default 2s). A Call's
// context deadline still applies on top.
func WithDialTimeout(d time.Duration) Option {
	return func(t *Transport) {
		if d > 0 {
			t.dialTimeout = d
		}
	}
}

// New builds a TCP transport.
func New(opts ...Option) *Transport {
	t := &Transport{
		dialTimeout: 2 * time.Second,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		peers:   map[string]string{},
		local:   map[string]string{},
		servers: map[string]*Server{},
		callers: map[*Client]struct{}{},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// resolve maps a served name to a dialable address: local listeners first,
// then the static peer map.
func (t *Transport) resolve(to string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr, ok := t.local[to]; ok {
		return addr, true
	}
	addr, ok := t.peers[to]
	return addr, ok
}

// Addr returns the bound address of a name served by this transport, or ""
// if it is not served here. Useful when serving on :0 and advertising the
// picked port.
func (t *Transport) Addr(id string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.local[id]
}

// Serve binds id to h on this transport: it listens on the peer-mapped
// address for id, or on a kernel-assigned loopback port when the map has no
// entry. Serving the same id again after its server closed works — that is
// how a recovered replica rejoins under its old name.
func (t *Transport) Serve(id string, h transport.Handler, opts ...transport.ServeOption) (transport.Server, error) {
	cfg := transport.ResolveServeOptions(opts)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: transport closed")
	}
	if _, dup := t.servers[id]; dup {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: %q is already served", id)
	}
	addr, mapped := t.peers[id]
	t.mu.Unlock()
	if !mapped {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: serve %q: %w", id, err)
	}
	s := &Server{
		tr:      t,
		id:      id,
		ln:      ln,
		handler: h,
		reqs:    make(chan serverReq, serverBacklog),
		conns:   map[net.Conn]*frameWriter{},
		routes:  map[routeKey]*frameWriter{},
		done:    make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	if cfg.Admission != nil {
		s.adm = transport.NewQueue(*cfg.Admission, s.serveQueued, s.sendRejection)
	}
	t.mu.Lock()
	t.servers[id] = s
	t.local[id] = ln.Addr().String()
	t.mu.Unlock()
	go s.acceptLoop()
	go s.dispatchLoop()
	return s, nil
}

// Client returns a caller endpoint named id. Connections are dialed lazily,
// one per destination, and redialed after loss.
func (t *Transport) Client(id string) (transport.Client, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("tcp: transport closed")
	}
	c := &Client{caller: newCaller(t, id)}
	t.callers[c] = struct{}{}
	return c, nil
}

// Stats is what a transport's links handed to their sockets so far: whole
// frames, the Writes that carried them, and their bytes. DroppedNotifies
// counts the notifies that never reached a socket: refused by a broken or
// closed link, or lost with a link whose dial or Write failed.
type Stats struct {
	Frames, Writes, Bytes, DroppedNotifies uint64
}

// Stats sums the link counters of every connection this transport wrote to,
// as a caller or as a server. Frames/Writes is the coalescing ratio.
func (t *Transport) Stats() Stats {
	return Stats{Frames: t.links.frames.Load(), Writes: t.links.writes.Load(), Bytes: t.links.bytes.Load(),
		DroppedNotifies: t.links.dropped.Load()}
}

// Quiesce waits until everything this transport's endpoints have sent so
// far has been read by its peer — every link, a dialing one included, is
// flushed and answered a barrier (see caller.barrier), all within one
// closeGrace — and then until every request this transport's
// servers have read off their connections has been served. Work a handler
// starts while Quiesce waits is not chased, so this is still weaker than the
// sim network's drain: the caller must have stopped issuing new work first
// (an orderly Store close has).
func (t *Transport) Quiesce() {
	t.mu.Lock()
	servers := make([]*Server, 0, len(t.servers))
	callers := make([]*caller, 0, len(t.callers))
	for c := range t.callers {
		callers = append(callers, c.caller)
	}
	for _, s := range t.servers {
		servers = append(servers, s)
	}
	t.mu.Unlock()
	for _, c := range callers {
		c.barrier()
	}
	for _, s := range servers {
		s.waitIdle()
	}
}

// Close shuts down every server and caller endpoint. Not part of the
// transport interface — a process-level teardown convenience.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	servers := make([]*Server, 0, len(t.servers))
	for _, s := range t.servers {
		servers = append(servers, s)
	}
	callers := make([]*Client, 0, len(t.callers))
	for c := range t.callers {
		callers = append(callers, c)
	}
	t.mu.Unlock()
	for _, c := range callers {
		c.Close()
	}
	for _, s := range servers {
		s.Close()
	}
}

// dropServer unregisters a closed server. Its resolved address stays in
// t.local: callers that race the shutdown get a refused dial — ErrLost, a
// dead peer — rather than a confusing "unknown peer".
func (t *Transport) dropServer(s *Server) {
	t.mu.Lock()
	if t.servers[s.id] == s {
		delete(t.servers, s.id)
	}
	t.mu.Unlock()
}

// serverBacklog bounds the dispatch channel of a server without admission
// control. A full backlog blocks the connection readers, which is exactly
// TCP's native backpressure.
const serverBacklog = 1024

// caller owns this endpoint's outbound connections: at most one per
// destination, dialed lazily, evicted and redialed after loss. Every Client
// endpoint has one.
type caller struct {
	tr *Transport
	id string
	// calls are the calls awaiting a reply, on every link; each is owned by
	// the clientConn it was sent on, which fails it when the link breaks.
	calls transport.Calls

	mu     sync.Mutex
	conns  map[string]*clientConn
	closed bool
}

func newCaller(t *Transport, id string) *caller {
	return &caller{tr: t, id: id, conns: map[string]*clientConn{}}
}

// closeGrace bounds how long an endpoint that is closing or quiescing waits
// on one link — for its queue to reach the kernel, for its barrier to come
// back — so a peer that stopped reading cannot hold a Close hostage.
const closeGrace = 2 * time.Second

// linkConn is what a pooled outbound link needs of its socket.
type linkConn interface {
	io.ReadWriteCloser
	SetWriteDeadline(time.Time) error
}

// dialingConn is an outbound socket whose dial runs in the background. The
// link is pooled the moment the dial starts, so no sender waits on it: frames
// queue in the link's buffer and leave in order once it connects, or fail
// with it. Read and Write wait for the dial and fail as it did; Close
// abandons a dial still running.
type dialingConn struct {
	ready  chan struct{} // closed when the dial has finished
	cancel context.CancelFunc

	mu       sync.Mutex
	conn     net.Conn  // set before ready closes; nil if the dial failed
	deadline time.Time // a write deadline set while dialing, for conn
}

// dialAsync starts dialing addr, bounded by the dial timeout.
func (t *Transport) dialAsync(addr string) *dialingConn {
	ctx, cancel := context.WithTimeout(context.Background(), t.dialTimeout)
	d := &dialingConn{ready: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(d.ready)
		conn, err := t.dial(ctx, addr)
		cancel()
		if err != nil {
			return
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		if !d.deadline.IsZero() {
			conn.SetWriteDeadline(d.deadline)
		}
		d.conn = conn
	}()
	return d
}

// wait returns the dialed socket; a refused or unreachable dial is a dead
// peer, the lost fate.
func (d *dialingConn) wait() (net.Conn, error) {
	<-d.ready
	if d.conn == nil {
		return nil, transport.ErrLost
	}
	return d.conn, nil
}

func (d *dialingConn) Read(p []byte) (int, error) {
	c, err := d.wait()
	if err != nil {
		return 0, err
	}
	return c.Read(p)
}

func (d *dialingConn) Write(p []byte) (int, error) {
	c, err := d.wait()
	if err != nil {
		return 0, err
	}
	return c.Write(p)
}

func (d *dialingConn) Close() error {
	d.cancel()
	if c, err := d.wait(); err == nil {
		return c.Close()
	}
	return nil
}

// SetWriteDeadline bounds the dial as well as the writes after it, and waits
// for neither: a dial still running at t is abandoned then.
func (d *dialingConn) SetWriteDeadline(t time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.conn != nil {
		return d.conn.SetWriteDeadline(t)
	}
	d.deadline = t
	time.AfterFunc(time.Until(t), d.cancel)
	return nil
}

// clientConn is one pooled outbound connection. The calls pending on it
// are its caller's calls it owns.
type clientConn struct {
	c     linkConn
	fw    *frameWriter
	calls *transport.Calls

	mu   sync.Mutex
	dead bool
}

// fail marks the connection dead and delivers the lost fate to every
// pending call — the moment the break is known, not a timeout later.
func (cc *clientConn) fail() {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.mu.Unlock()
	cc.c.Close()
	cc.fw.close() // the connection is gone: this only reaps the writer
	cc.calls.Fail(cc, transport.ErrLost)
}

// get returns the pooled connection to `to`, pooling one that starts dialing
// in the background if there is none: nobody waits on a dial here. A dial
// that fails fails the link, and every call queued on it, with the lost fate.
func (c *caller) get(to string) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("tcp: endpoint %q closed", c.id)
	}
	if cc := c.conns[to]; cc != nil {
		return cc, nil
	}
	addr, ok := c.tr.resolve(to)
	if !ok {
		return nil, fmt.Errorf("tcp: unknown peer %q", to)
	}
	return c.adopt(to, c.tr.dialAsync(addr)), nil
}

// adopt pools conn as the connection to `to` and starts its writer and its
// reader. The caller holds c.mu.
func (c *caller) adopt(to string, conn linkConn) *clientConn {
	cc := &clientConn{c: conn, fw: newFrameWriter(conn, &c.tr.links), calls: &c.calls}
	c.conns[to] = cc
	go c.readLoop(to, cc)
	return cc
}

// evict removes a dead connection from the pool so the next call redials —
// which is how callers ride out a replica restart.
func (c *caller) evict(to string, cc *clientConn) {
	c.mu.Lock()
	if c.conns[to] == cc {
		delete(c.conns, to)
	}
	c.mu.Unlock()
}

// readLoop delivers replies arriving on one connection and turns any read
// failure into the lost fate for every call pending on it.
func (c *caller) readLoop(to string, cc *clientConn) {
	fr := newFrameReader(cc.c)
	for {
		f, err := fr.readFrame()
		if err != nil {
			c.evict(to, cc)
			cc.fail()
			return
		}
		if f.Kind != kindReply {
			continue // a confused peer; replies are all a caller accepts
		}
		c.calls.Finish(f.ID, f.Resp, nil)
	}
}

// goCall implements Go for Client (and would for any other caller role),
// returning the call's ID: 0 when nothing was sent.
func (c *caller) goCall(deadline time.Time, to string, req any, tag int, done chan<- transport.Reply) uint64 {
	cc, err := c.get(to)
	if err != nil {
		done <- transport.Reply{Tag: tag, Err: err}
		return 0
	}
	return c.callOn(deadline, to, cc, req, tag, done)
}

// callOn sends one call frame on cc; its reply, or its failure, arrives on
// done under tag. The frame carries the deadline, so the receiver's
// admission queue can discard the request at dequeue once this caller gave
// up instead of doing work nobody will read.
func (c *caller) callOn(deadline time.Time, to string, cc *clientConn, req any, tag int, done chan<- transport.Reply) uint64 {
	id := c.calls.Add(deadline, tag, done, cc)
	if id == 0 {
		return 0
	}
	if err := c.send(to, cc, Frame{Kind: kindCall, ID: id, From: c.id, Req: req, Deadline: deadline}); err != nil {
		c.calls.Finish(id, nil, err)
	}
	return id
}

// send queues one frame on the link, mapping a broken link to the lost fate
// and keeping encode failures (unregistered payload types — a programming
// error) distinct and loud. A link that breaks after send returned fails the
// call through the read loop, like any other connection loss.
func (c *caller) send(to string, cc *clientConn, f Frame) error {
	err := cc.fw.writeFrame(f)
	if err != nil && !errors.Is(err, errUnencodable) {
		c.evict(to, cc)
		cc.fail()
		return transport.ErrLost
	}
	return err
}

// notify queues one fire-and-forget frame and returns. It never waits on a
// dial (get pools a dialing link); like a call, it waits for room on a full
// link, because a notify may be the only release a lock will get. A notify
// that is not queued, or is lost with its link, is counted in
// Stats.DroppedNotifies.
func (c *caller) notify(to string, req any) {
	cc, err := c.get(to)
	if err == nil {
		err = c.send(to, cc, Frame{Kind: kindNotify, From: c.id, Req: req})
	}
	if err != nil {
		c.tr.links.dropped.Add(1)
	}
}

// barrier flushes every pooled link and waits until its peer has read what was
// sent on it: a call that carries no request is the transport's own barrier,
// answered by the peer's reader once every frame before it on the connection
// has been dispatched. Every link's barrier leaves at once, a link still
// dialing included, and the answers come back on one channel. A link that
// breaks or stays silent for closeGrace has nothing left to wait for.
func (c *caller) barrier() {
	c.mu.Lock()
	conns := make(map[string]*clientConn, len(c.conns))
	for to, cc := range c.conns {
		conns[to] = cc
	}
	c.mu.Unlock()
	deadline := time.Now().Add(closeGrace)
	done := make(chan transport.Reply, len(conns))
	for to, cc := range conns {
		c.callOn(deadline, to, cc, nil, 0, done)
	}
	for range conns {
		<-done // any failure ends the wait just as well
	}
}

// close delivers what the links still hold — an orderly close loses no
// fire-and-forget message it was handed, on a link still dialing either —
// then closes them; calls still pending fail with ErrLost. Every link gets
// the same deadline before any is waited on, so the whole close takes at
// most one closeGrace.
func (c *caller) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := c.conns
	c.conns = map[string]*clientConn{}
	c.mu.Unlock()
	deadline := time.Now().Add(closeGrace)
	for _, cc := range conns {
		cc.c.SetWriteDeadline(deadline)
	}
	for _, cc := range conns {
		cc.fw.close()
		cc.fail()
	}
	c.calls.Close(transport.ErrLost)
}

// Client is a TCP caller endpoint.
type Client struct {
	*caller
}

// ID returns the endpoint's name, which receivers see as `from`.
func (c *Client) ID() string { return c.caller.id }

// Go sends req to the named server and returns at once; the reply or the
// call's failure arrives on done under tag (transport.AsyncClient).
func (c *Client) Go(deadline time.Time, to string, req any, tag int, done chan<- transport.Reply) {
	c.caller.goCall(deadline, to, req, tag, done)
}

// Call sends req to the named server and waits for its reply or ctx expiry.
// A context already done sends nothing.
func (c *Client) Call(ctx context.Context, to string, req any) (any, error) {
	if ctx.Err() != nil {
		return nil, transport.ErrTimeout
	}
	deadline, _ := ctx.Deadline()
	done := make(chan transport.Reply, 1)
	return c.caller.calls.Wait(ctx, c.caller.goCall(deadline, to, req, 0, done), done)
}

// Pending is the number of this endpoint's calls still awaiting a reply.
func (c *Client) Pending() int { return c.caller.calls.Len() }

// Notify sends req without waiting for — or ever receiving — a reply.
func (c *Client) Notify(to string, req any) { c.caller.notify(to, req) }

// Close releases the endpoint; pending calls fail with ErrLost.
func (c *Client) Close() {
	c.caller.close()
	c.caller.tr.mu.Lock()
	delete(c.caller.tr.callers, c)
	c.caller.tr.mu.Unlock()
}

// routeKey addresses the connection owed one reply: caller name + call ID.
type routeKey struct {
	from string
	id   uint64
}

// serverReq is one delivered request on its way to the dispatch loop. sc is
// the write side of the connection it arrived on; synchronous and late
// (async-handler) replies queue on it in any order.
type serverReq struct {
	f  Frame
	sc *frameWriter
}

// Server is one served name: a listener, its accepted connections, and a
// single service goroutine (the dispatch loop, or the admission queue's).
type Server struct {
	tr      *Transport
	id      string
	ln      net.Listener
	handler transport.Handler
	adm     *transport.Queue
	reqs    chan serverReq

	mu       sync.Mutex
	idle     *sync.Cond
	conns    map[net.Conn]*frameWriter
	routes   map[routeKey]*frameWriter
	inflight int // read-off-the-wire but not yet served (non-admission path)
	closed   bool

	readers   sync.WaitGroup
	closeOnce sync.Once
	done      chan struct{}

	dropped atomic.Uint64
}

// ID returns the served name.
func (s *Server) ID() string { return s.id }

// DroppedReplies counts replies the handler produced that could not be
// encoded (a payload type nobody registered with package wire) and were
// therefore never sent.
func (s *Server) DroppedReplies() uint64 { return s.dropped.Load() }

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		sc := newFrameWriter(conn, &s.tr.links)
		s.conns[conn] = sc
		s.mu.Unlock()
		s.readers.Add(1)
		go s.readLoop(conn, sc)
	}
}

// readLoop turns one connection's frames into dispatched requests. Any read
// error — clean close, reset, or a malformed frame — retires the
// connection; the protocol state it carried (pending reply routes) dies
// with it, exactly like a crashed peer.
func (s *Server) readLoop(conn net.Conn, sc *frameWriter) {
	defer s.readers.Done()
	fr := newFrameReader(conn)
	for {
		f, err := fr.readFrame()
		if err != nil {
			s.retire(conn, sc)
			return
		}
		if f.Kind != kindCall && f.Kind != kindNotify {
			continue
		}
		if f.Req == nil {
			// The peer's barrier (caller.barrier): everything it sent before
			// is dispatched by now.
			if f.Kind == kindCall {
				s.sendReply(sc, f.ID, nil)
			}
			continue
		}
		if s.adm != nil {
			if f.ID != 0 {
				s.addRoute(f.From, f.ID, sc)
			}
			s.adm.Offer(transport.Queued{From: f.From, ID: f.ID, Req: f.Req, Deadline: f.Deadline})
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.retire(conn, sc)
			return
		}
		s.inflight++
		s.mu.Unlock()
		s.reqs <- serverReq{f: f, sc: sc}
	}
}

func (s *Server) retire(conn net.Conn, sc *frameWriter) {
	conn.Close()
	sc.close() // the connection is gone: this only reaps the writer
	s.mu.Lock()
	delete(s.conns, conn)
	for k, rc := range s.routes {
		if rc == sc {
			delete(s.routes, k)
		}
	}
	s.mu.Unlock()
}

func (s *Server) addRoute(from string, id uint64, sc *frameWriter) {
	s.mu.Lock()
	s.routes[routeKey{from, id}] = sc
	s.mu.Unlock()
}

func (s *Server) takeRoute(from string, id uint64) *frameWriter {
	s.mu.Lock()
	sc := s.routes[routeKey{from, id}]
	delete(s.routes, routeKey{from, id})
	s.mu.Unlock()
	return sc
}

// replier builds the reply function for one request: it answers on the
// connection the request arrived on, and is safe to call later from another
// goroutine (async handlers). Fire-and-forget traffic gets a no-op.
func (s *Server) replier(sc *frameWriter, id uint64) func(any) {
	if id == 0 {
		return func(any) {}
	}
	return func(resp any) { s.sendReply(sc, id, resp) }
}

// sendReply answers call id on sc, best-effort: a broken connection retires
// through its reader, and a reply the codec refuses is counted — its caller
// gets no answer and runs into its own timeout.
func (s *Server) sendReply(sc *frameWriter, id uint64, resp any) {
	err := sc.writeFrame(Frame{Kind: kindReply, ID: id, Resp: resp})
	if errors.Is(err, errUnencodable) {
		s.dropped.Add(1)
	}
}

// dispatchLoop is the non-admission single service goroutine. With
// admission it still runs (the queue's goroutine does the serving) but only
// to drain a possible race remainder at close; reqs stays empty.
func (s *Server) dispatchLoop() {
	defer close(s.done)
	for req := range s.reqs {
		s.handler(req.f.From, req.f.Req, s.replier(req.sc, req.f.ID))
		s.mu.Lock()
		s.inflight--
		if s.inflight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}

// serveQueued runs one admitted request through the handler — the admission
// queue's single service goroutine calling in.
func (s *Server) serveQueued(q transport.Queued) {
	reply := func(any) {}
	if q.ID != 0 {
		if sc := s.takeRoute(q.From, q.ID); sc != nil {
			reply = s.replier(sc, q.ID)
		}
	}
	s.handler(q.From, q.Req, reply)
}

// sendRejection transmits an explicit admission rejection to the caller.
func (s *Server) sendRejection(q transport.Queued, resp any) {
	if sc := s.takeRoute(q.From, q.ID); sc != nil {
		s.sendReply(sc, q.ID, resp)
	}
}

// waitIdle blocks until every request already read off a connection has
// been served.
func (s *Server) waitIdle() {
	if s.adm != nil {
		s.adm.WaitIdle()
		return
	}
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close stops serving: the listener closes, connections retire once the
// replies already queued on them are written, and the service goroutine
// drains every request already dispatched before exiting — an orderly
// departure, not a crash, so a durable replica's log never misses a request
// the transport had already delivered. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		conns := make(map[net.Conn]*frameWriter, len(s.conns))
		for c, sc := range s.conns {
			conns[c] = sc
		}
		s.mu.Unlock()
		s.ln.Close()
		for c, sc := range conns {
			c.SetWriteDeadline(time.Now().Add(closeGrace))
			sc.close()
			c.Close()
		}
		s.readers.Wait() // no goroutine will send on reqs past this point
		close(s.reqs)
		if s.adm != nil {
			s.adm.Close()
		}
		s.tr.dropServer(s)
	})
	<-s.done
}

// Overload returns the admission counters (zero without admission).
func (s *Server) Overload() transport.OverloadStats {
	if s.adm == nil {
		return transport.OverloadStats{}
	}
	return s.adm.Stats()
}

// HoldService pauses the admission service loop; no-op without admission.
func (s *Server) HoldService() {
	if s.adm != nil {
		s.adm.Hold()
	}
}

// ResumeService undoes HoldService.
func (s *Server) ResumeService() {
	if s.adm != nil {
		s.adm.Resume()
	}
}

// WaitServiceIdle blocks until the admission queue is drained.
func (s *Server) WaitServiceIdle() {
	if s.adm != nil {
		s.adm.WaitIdle()
	}
}

// Inject offers a request straight to the admission queue, bypassing the
// sockets — the deterministic burst-harness device. False without
// admission.
func (s *Server) Inject(from string, req any, deadline time.Time) bool {
	if s.adm == nil {
		return false
	}
	return s.adm.Offer(transport.Queued{From: from, ID: 0, Req: req, Deadline: deadline})
}
