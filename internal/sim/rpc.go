package sim

import (
	"context"
	"errors"
	"time"

	"repro/internal/transport"
)

// ErrRPCTimeout is returned by Call when the context expires before a reply
// arrives (lost request, lost reply, crashed server, or slow link — the
// caller cannot tell, exactly as in a real network). It is the shared
// transport.ErrTimeout sentinel, so callers can match either name.
var ErrRPCTimeout = transport.ErrTimeout

// ErrCallLost is returned by Call under Config.FateFeedback when the
// network reports that the request or its reply was dropped — crashed
// peer, severed link, or sampled loss. It carries the same meaning as
// ErrRPCTimeout (no answer is coming) but arrives the moment the fate is
// decided, so deterministic harnesses never race a timer against the
// scheduler. It is the shared transport.ErrLost sentinel.
var ErrCallLost = transport.ErrLost

// errNodeShutDown fails the calls of a node that was shut down.
var errNodeShutDown = errors.New("node shut down")

// envelope is an RPC request on the wire. Deadline, when non-zero, is the
// caller's absolute give-up time, Go's deadline or a Call context's — the
// transport-level deadline propagation that lets an overload-protected
// receiver discard a request whose caller already gave up instead of
// serving it.
type envelope struct {
	ID       uint64
	Req      any
	Deadline time.Time
}

// reply is an RPC response on the wire.
type reply struct {
	ID   uint64
	Resp any
}

// Handler processes a request on a node and returns the response. Handlers
// run on the node's single loop goroutine, so a node's state needs no
// additional locking — the actor discipline. Handlers must not block.
type Handler func(from string, req any) any

// AsyncHandler processes a request on a node and replies through the given
// function instead of a return value. reply may be called at most once,
// either synchronously or later from another goroutine — the decoupling a
// durable replica needs to keep absorbing requests while earlier acks wait
// on a write-ahead-log flush. For fire-and-forget traffic (Notify), reply
// is a no-op. The handler itself still runs on the node's single loop
// goroutine, so node state keeps the actor discipline; only the reply
// escapes it. It is exactly the transport.Handler shape, so an
// AsyncHandler serves unchanged on any backend.
type AsyncHandler = transport.Handler

// Node is a network participant with an RPC loop: it can serve requests via
// its handler and issue calls to other nodes.
type Node struct {
	id  string
	net *Network

	handler  Handler
	ahandler AsyncHandler

	// calls are the calls this node issued that await a reply.
	calls transport.Calls

	// admCfg holds the admission configuration until start builds the
	// queue; adm, when non-nil, is the bounded priority service queue
	// between the network loop and the handler.
	admCfg *AdmissionConfig
	adm    *transport.Queue

	// drain carries WaitServiceIdle's barrier to the loop: the loop empties
	// the inbox into the admission queue, then closes the channel it got.
	drain chan chan struct{}

	stop chan struct{}
	done chan struct{}
}

// A NodeOption configures a Node at construction.
type NodeOption func(*Node)

// WithAdmission gives the node a bounded, prioritized service queue: see
// AdmissionConfig. Without it (the default) requests are served inline on
// the network loop, unbounded — the pre-overload-protection behavior.
func WithAdmission(cfg AdmissionConfig) NodeOption {
	return func(n *Node) { n.admCfg = &cfg }
}

// NewNode registers id on the network and starts its loop. handler may be
// nil for client-only nodes.
func NewNode(net *Network, id string, handler Handler, opts ...NodeOption) *Node {
	n := &Node{
		id:      id,
		net:     net,
		handler: handler,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	n.start(opts)
	return n
}

// NewAsyncNode registers id on the network and starts its loop with an
// asynchronous handler: the reply is sent whenever the handler invokes its
// reply function, not when the handler returns.
func NewAsyncNode(net *Network, id string, handler AsyncHandler, opts ...NodeOption) *Node {
	n := &Node{
		id:       id,
		net:      net,
		ahandler: handler,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	n.start(opts)
	return n
}

// start applies options, registers the node and launches its goroutines.
func (n *Node) start(opts []NodeOption) {
	for _, o := range opts {
		o(n)
	}
	n.drain = make(chan chan struct{})
	inbox := n.net.Register(n.id)
	n.net.watchDrops(n.id, n.onDrop) // no-op unless Config.FateFeedback
	if n.admCfg != nil {
		n.adm = transport.NewQueue(*n.admCfg, n.serveQueued, n.sendRejection)
	}
	go n.loop(inbox)
}

// serveQueued runs one dequeued admitted request through the handler; it
// is the admission queue's single service goroutine calling in.
func (n *Node) serveQueued(q transport.Queued) {
	n.serve(q.From, envelope{ID: q.ID, Req: q.Req, Deadline: q.Deadline})
}

// sendRejection transmits an explicit admission rejection to the caller.
func (n *Node) sendRejection(q transport.Queued, resp any) {
	n.net.Send(n.id, q.From, reply{ID: q.ID, Resp: resp})
}

// onDrop receives the fate of a lost message that named this node. If the
// message was a request this node sent, or a reply addressed to it, the
// matching pending call fails immediately with ErrCallLost.
func (n *Node) onDrop(m Message) {
	var id uint64
	switch p := m.Payload.(type) {
	case envelope:
		if m.From != n.id {
			return // a request we were meant to serve; nothing pending here
		}
		id = p.ID
	case reply:
		if m.To != n.id {
			return
		}
		id = p.ID
	default:
		return
	}
	if id != 0 { // Notify traffic has no waiter
		n.calls.Finish(id, nil, ErrCallLost)
	}
}

// replier builds the reply function for one request. Notify traffic
// (envelope ID 0) expects no answer, so its replier is a no-op.
func (n *Node) replier(to string, id uint64) func(any) {
	if id == 0 {
		return func(any) {}
	}
	return func(resp any) {
		n.net.Send(n.id, to, reply{ID: id, Resp: resp})
	}
}

// ID returns the node's network identifier.
func (n *Node) ID() string { return n.id }

func (n *Node) loop(inbox <-chan Message) {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			// Drain what the network already delivered: Shutdown is an
			// orderly departure, not a crash (net.Crash models those), so a
			// protocol message that reached this node must not be silently
			// lost — a durable replica's log would otherwise miss a release
			// or commit its sender rightly believes delivered.
			for {
				select {
				case m := <-inbox:
					n.dispatch(m)
				default:
					return
				}
			}
		case ack := <-n.drain:
			for len(inbox) > 0 {
				n.dispatch(<-inbox)
			}
			close(ack)
		case m := <-inbox:
			n.dispatch(m)
		}
	}
}

// dispatch handles one delivered message on the loop goroutine. Requests
// go through admission when the node has one — replies never do: a reply
// completes a call this node is blocked on, and queueing it behind bulk
// traffic (or worse, shedding it) would deadlock the very backpressure
// admission exists to provide.
func (n *Node) dispatch(m Message) {
	switch p := m.Payload.(type) {
	case envelope:
		if n.adm != nil {
			n.adm.Offer(transport.Queued{From: m.From, ID: p.ID, Req: p.Req, Deadline: p.Deadline})
			return
		}
		n.serve(m.From, p)
	case reply:
		n.calls.Finish(p.ID, p.Resp, nil)
	}
}

// serve runs one request through the node's handler and sends the reply
// for call traffic.
func (n *Node) serve(from string, p envelope) {
	if n.ahandler != nil {
		n.ahandler(from, p.Req, n.replier(from, p.ID))
		return
	}
	if n.handler == nil {
		return
	}
	resp := n.handler(from, p.Req)
	if p.ID != 0 {
		n.net.Send(n.id, from, reply{ID: p.ID, Resp: resp})
	}
}

// Go sends req to the node named to and returns at once; the reply, the
// lost fate (under Config.FateFeedback) or ErrRPCTimeout once deadline
// passes arrives on done under tag (transport.AsyncClient).
func (n *Node) Go(deadline time.Time, to string, req any, tag int, done chan<- transport.Reply) {
	n.send(deadline, to, req, tag, done)
}

// send registers one call and sends its envelope, returning the call's ID:
// 0 when nothing was sent. The envelope carries the deadline, so an
// admission queue can discard the request at dequeue once its caller gave
// up instead of doing work nobody will read.
func (n *Node) send(deadline time.Time, to string, req any, tag int, done chan<- transport.Reply) uint64 {
	id := n.calls.Add(deadline, tag, done, nil)
	if id != 0 {
		n.net.Send(n.id, to, envelope{ID: id, Req: req, Deadline: deadline})
	}
	return id
}

// Call sends req to the node named to and waits for its reply or ctx
// expiry. Lost messages surface as ErrRPCTimeout via the context. A context
// already done sends nothing.
func (n *Node) Call(ctx context.Context, to string, req any) (any, error) {
	if ctx.Err() != nil {
		return nil, ErrRPCTimeout
	}
	deadline, _ := ctx.Deadline()
	done := make(chan transport.Reply, 1)
	return n.calls.Wait(ctx, n.send(deadline, to, req, 0, done), done)
}

// Pending is the number of this node's calls still awaiting a reply.
func (n *Node) Pending() int { return n.calls.Len() }

// Notify sends req to the node named to without waiting for — or ever
// receiving — a reply: the envelope carries ID 0, which the receiver's
// loop handles but does not answer. Use it for fire-and-forget protocol
// messages (lock releases, commit cleanup) where the sender cannot act on
// the outcome anyway and a lost message is harmless.
func (n *Node) Notify(to string, req any) {
	n.net.Send(n.id, to, envelope{ID: 0, Req: req})
}

// Shutdown stops the node's loop and waits for it to exit. With admission,
// the service goroutine drains whatever the loop enqueued before exiting —
// the same orderly-departure contract as the inbox drain. Idempotent.
func (n *Node) Shutdown() {
	n.net.unwatchDrops(n.id)
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.calls.Close(errNodeShutDown)
	<-n.done
	if n.adm != nil {
		n.adm.Close()
	}
}

// Close is Shutdown under the name the transport interfaces use, so a
// *Node satisfies transport.Client and transport.Server directly.
func (n *Node) Close() { n.Shutdown() }
