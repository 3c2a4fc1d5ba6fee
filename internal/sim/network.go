// Package sim provides the simulated distributed substrate the systems-
// layer experiments run on: named nodes connected by a message-passing
// network with configurable latency, loss, duplication, reordering,
// partitions and crash/restart, plus a small request/reply (RPC) layer.
// Everything runs in one process with goroutines standing in for
// machines, per the reproduction plan.
//
// Replayability: every random choice the network makes (drop, duplicate,
// reorder, latency jitter) is drawn from a per-link generator seeded
// deterministically from Config.Seed and the order in which links first
// carry traffic — never from a generator shared across links — and, within
// a link, from one generator per kind of message. Concurrent sends on
// different links, and racing sends of different kinds on one link,
// therefore cannot perturb each other's fate streams, which is what lets
// the chaos harness (internal/chaos) replay a whole campaign from a single
// seed. Messages on one directed link are delivered in FIFO order (like a
// TCP connection); reordering is modeled by holding a message back for a
// bounded extra delay so that traffic on other links overtakes it.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"time"
)

// Message is a network datagram.
type Message struct {
	From    string
	To      string
	Payload any
}

// Config parameterizes the network.
type Config struct {
	// MinLatency and MaxLatency bound the uniformly sampled one-way
	// delivery delay. Zero values deliver with only scheduling delay.
	MinLatency time.Duration
	MaxLatency time.Duration
	// DropProb is the probability a message is silently lost.
	DropProb float64
	// DupProb is the probability a message is delivered twice, back to
	// back, exercising the receivers' idempotency paths.
	DupProb float64
	// ReorderProb is the probability a message is held back for
	// ReorderDelay before delivery, letting messages on other links
	// overtake it (bounded reordering; links themselves stay FIFO).
	ReorderProb float64
	// ReorderDelay is the extra hold-back applied to reordered messages.
	ReorderDelay time.Duration
	// Seed makes latency, loss, duplication and reordering reproducible.
	Seed int64
	// InboxSize bounds each node's receive buffer and each link's transit
	// queue; messages arriving at a full buffer are dropped, modeling
	// receiver overload. Default 1024.
	InboxSize int
	// FateFeedback has the network report each lost message back to the
	// RPC layer the moment its fate is decided — the simulation analogue
	// of a TCP reset — so a call whose request or reply was dropped fails
	// immediately instead of waiting out a wall-clock timeout. Every fate
	// is drawn from per-lane generators, so with feedback on, failure
	// detection is a pure function of the seed rather than a race between
	// a timer and the scheduler. Deterministic harnesses rely on this.
	FateFeedback bool
}

// Stats is a snapshot of network counters. Sent counts Send calls;
// Delivered and Dropped count delivery outcomes, so a duplicated message
// can contribute two deliveries to a single send. ByType splits Sent by the
// payload's type and, for the RPC layer's wrappers, the type of the request
// or response inside ("sim.envelope/cluster.ReadReq"), so two runs that
// diverge say in which kind of message.
type Stats struct {
	Sent       int64
	Delivered  int64
	Dropped    int64
	Duplicated int64
	Reordered  int64
	ByType     map[string]int64
}

// latencyRange is a per-node delivery delay override.
type latencyRange struct {
	min, max time.Duration
}

// laneMsg is a message in transit on one directed link.
type laneMsg struct {
	msg       Message
	deliverAt time.Time
}

// lane is one directed link's transit queue. Messages enter in Send order
// and a dedicated goroutine delivers them FIFO at their stamped times. Fates
// come from generators private to the lane, one per kind of message, so
// neither concurrent traffic on other lanes nor a different kind of message
// on this one can shift a stream: when a node's loop and a reply flush (or
// two protocol rounds) race to send on the same link, which of them goes
// first does not decide which of them is lost or duplicated.
type lane struct {
	seed  int64
	fates map[fateKind]*rand.Rand
	ch    chan laneMsg
}

// fateKind names one kind of message — a fate stream of a lane, a row of
// Stats.ByType: the payload's type and, for the RPC layer's wrappers, the
// type of the request or response inside.
type fateKind struct{ outer, inner reflect.Type }

func kindOf(payload any) fateKind {
	k := fateKind{outer: reflect.TypeOf(payload)}
	switch p := payload.(type) {
	case envelope:
		k.inner = reflect.TypeOf(p.Req)
	case reply:
		k.inner = reflect.TypeOf(p.Resp)
	}
	return k
}

func (k fateKind) String() string {
	if k.inner == nil {
		return fmt.Sprint(k.outer)
	}
	return fmt.Sprint(k.outer, "/", k.inner)
}

// fate returns the generator that decides the fate of k's messages on the
// lane, creating it on first use. Its seed derives from the lane's seed and
// the kind's type names, not from creation order, so the stream is the same
// whichever kind happens to travel first.
func (l *lane) fate(k fateKind) *rand.Rand {
	if rng, ok := l.fates[k]; ok {
		return rng
	}
	h := fnv.New64a()
	fmt.Fprint(h, k.outer, "/", k.inner)
	rng := rand.New(rand.NewSource(mix64(l.seed, int64(h.Sum64()))))
	l.fates[k] = rng
	return rng
}

// Network connects nodes. All methods are safe for concurrent use.
type Network struct {
	cfg Config

	mu          sync.Mutex
	inboxes     map[string]chan Message
	crashed     map[string]bool
	cut         map[string]bool // "a|b" with a<b: link severed
	nodeLat     map[string]latencyRange
	lanes       map[[2]string]*lane // by {from, to}: no key string per send
	dropProb    float64
	dupProb     float64
	reorderProb float64
	reorderDel  time.Duration
	watchers    map[string]func(Message)
	closed      bool
	sent        int64
	delivered   int64
	dropped     int64
	duplicated  int64
	reordered   int64
	byType      map[fateKind]int64

	stop chan struct{}

	// inflight counts messages accepted into lanes but not yet delivered
	// or dropped; idle (on mu) is broadcast when it reaches zero. A
	// counter+condvar rather than a WaitGroup because durable replicas
	// reply from their WAL flush goroutine, so a straggling send may race
	// a Quiesce — legal here (Quiesce only promises that earlier sends
	// have settled), but a WaitGroup forbids Add during a Wait at zero.
	inflight int
	idle     *sync.Cond
}

// NewNetwork returns a network with the given configuration.
func NewNetwork(cfg Config) *Network {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 1024
	}
	n := &Network{
		cfg:         cfg,
		inboxes:     map[string]chan Message{},
		crashed:     map[string]bool{},
		cut:         map[string]bool{},
		nodeLat:     map[string]latencyRange{},
		lanes:       map[[2]string]*lane{},
		dropProb:    cfg.DropProb,
		dupProb:     cfg.DupProb,
		reorderProb: cfg.ReorderProb,
		reorderDel:  cfg.ReorderDelay,
		watchers:    map[string]func(Message){},
		byType:      map[fateKind]int64{},
		stop:        make(chan struct{}),
	}
	n.idle = sync.NewCond(&n.mu)
	return n
}

// Register creates (or returns) the inbox for a node id.
func (n *Network) Register(id string) <-chan Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ch, ok := n.inboxes[id]; ok {
		return ch
	}
	ch := make(chan Message, n.cfg.InboxSize)
	n.inboxes[id] = ch
	return ch
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// mix64 is a splitmix64 finalization round: it spreads (seed, k) into an
// independent-looking lane seed.
func mix64(seed, k int64) int64 {
	z := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// lane returns the transit queue for the directed link from→to, creating
// it (and its delivery goroutine) on first use. Lane seeds derive from the
// network seed and the lane's creation order, not the node names, so runs
// that name nodes differently (e.g. fresh per-process client counters)
// still draw identical fate streams. Caller holds n.mu.
func (n *Network) lane(from, to string) *lane {
	key := [2]string{from, to}
	if l, ok := n.lanes[key]; ok {
		return l
	}
	l := &lane{
		seed:  mix64(n.cfg.Seed, int64(len(n.lanes))),
		fates: map[fateKind]*rand.Rand{},
		ch:    make(chan laneMsg, n.cfg.InboxSize),
	}
	n.lanes[key] = l
	go n.laneLoop(l)
	return l
}

// PrimeLane pre-creates the directed delivery lane from→to. Lane fate
// streams are seeded by creation order, so harnesses that need identical
// streams across runs prime every lane they will use in a fixed order
// before any concurrent traffic can race lanes into existence.
func (n *Network) PrimeLane(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.lane(from, to)
}

// laneLoop delivers one lane's messages in FIFO order at their stamped
// delivery times.
func (n *Network) laneLoop(l *lane) {
	for {
		select {
		case <-n.stop:
			return
		case m := <-l.ch:
			if d := time.Until(m.deliverAt); d > 0 {
				time.Sleep(d)
			}
			n.deliver(m.msg)
			n.mu.Lock()
			n.settleLocked()
			n.mu.Unlock()
		}
	}
}

// deliver hands a message that reached its delivery time to the recipient,
// applying crash/partition/overload checks at delivery — exactly when a
// real network would discover them.
func (n *Network) deliver(m Message) {
	n.mu.Lock()
	ch, ok := n.inboxes[m.To]
	blocked := n.crashed[m.To] || n.cut[linkKey(m.From, m.To)] || n.closed
	n.mu.Unlock()
	if !ok || blocked {
		n.note(&n.dropped)
		if n.cfg.FateFeedback {
			n.notifyDrop(m)
		}
		return
	}
	select {
	case ch <- m:
		n.note(&n.delivered)
	default:
		n.note(&n.dropped) // receiver overloaded
		if n.cfg.FateFeedback {
			n.notifyDrop(m)
		}
	}
}

// Send queues a message for asynchronous FIFO delivery on its link after a
// sampled latency. Messages to or from crashed nodes, across severed
// links, or sampled as lost are silently dropped — exactly how the
// algorithms under test experience failures. Sampled duplication delivers
// a second copy back to back; sampled reordering holds the message for a
// bounded extra delay so other links' traffic overtakes it.
func (n *Network) Send(from, to string, payload any) {
	m := Message{From: from, To: to, Payload: payload}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.sent++
	kind := kindOf(payload)
	n.byType[kind]++
	if n.crashed[from] {
		n.dropped++
		n.mu.Unlock()
		if n.cfg.FateFeedback {
			n.notifyDrop(m)
		}
		return
	}
	l := n.lane(from, to)
	var rng *rand.Rand
	if n.dropProb > 0 || n.dupProb > 0 || n.reorderProb > 0 || n.cfg.MaxLatency > n.cfg.MinLatency || len(n.nodeLat) > 0 {
		rng = l.fate(kind) // a network that samples nothing never builds one
	}
	if n.dropProb > 0 && rng.Float64() < n.dropProb {
		n.dropped++
		n.mu.Unlock()
		if n.cfg.FateFeedback {
			n.notifyDrop(m)
		}
		return
	}
	copies := 1
	if n.dupProb > 0 && rng.Float64() < n.dupProb {
		copies = 2
		n.duplicated++
	}
	lo, hi := n.cfg.MinLatency, n.cfg.MaxLatency
	// A per-node override applies to messages the node sends or receives;
	// when both endpoints have one, the slower range wins — a message is
	// only as fast as its slowest endpoint.
	for _, id := range [2]string{from, to} {
		if lr, ok := n.nodeLat[id]; ok && lr.min >= lo {
			lo, hi = lr.min, lr.max
		}
	}
	delay := lo
	if span := hi - lo; span > 0 {
		delay += time.Duration(rng.Int63n(int64(span)))
	}
	if n.reorderProb > 0 && rng.Float64() < n.reorderProb {
		delay += n.reorderDel
		n.reordered++
	}
	deliverAt := time.Now().Add(delay)
	congested := 0
	for i := 0; i < copies; i++ {
		n.inflight++
		select {
		case l.ch <- laneMsg{msg: m, deliverAt: deliverAt}:
		default:
			n.settleLocked()
			n.dropped++ // link congested
			congested++
		}
	}
	n.mu.Unlock()
	if n.cfg.FateFeedback && congested == copies && congested > 0 {
		// Only report congestion loss when no copy made it into transit:
		// if one survives, its own delivery (or drop) settles the call.
		n.notifyDrop(m)
	}
}

func (n *Network) note(counter *int64) {
	n.mu.Lock()
	*counter++
	n.mu.Unlock()
}

// watchDrops registers fn to be told about every lost message that names id
// as sender or recipient. Only active under Config.FateFeedback; the RPC
// layer uses it to fail pending calls the moment their traffic is lost.
func (n *Network) watchDrops(id string, fn func(Message)) {
	if !n.cfg.FateFeedback {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.watchers[id] = fn
}

// unwatchDrops removes id's drop watcher.
func (n *Network) unwatchDrops(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.watchers, id)
}

// notifyDrop tells the watchers at both endpoints that m was lost. Called
// without n.mu held: watchers complete pending calls, and must never be
// invoked from under the network lock.
func (n *Network) notifyDrop(m Message) {
	n.mu.Lock()
	from, to := n.watchers[m.From], n.watchers[m.To]
	n.mu.Unlock()
	if from != nil {
		from(m)
	}
	if to != nil && m.To != m.From {
		to(m)
	}
}

// Crash makes a node unreachable (its state is preserved; restart with
// Restart). In-flight messages to it are lost.
func (n *Network) Crash(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restart brings a crashed node back.
func (n *Network) Restart(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether a node is currently crashed.
func (n *Network) Crashed(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Disconnect severs the bidirectional link between a and b.
func (n *Network) Disconnect(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey(a, b)] = true
}

// Reconnect restores the link between a and b.
func (n *Network) Reconnect(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, linkKey(a, b))
}

// SetNodeLatency overrides the delivery delay for messages to or from one
// node, modeling a straggler (overloaded or distant) machine on an
// otherwise fast network. Zero min and max clear the override.
func (n *Network) SetNodeLatency(id string, min, max time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if min == 0 && max == 0 {
		delete(n.nodeLat, id)
		return
	}
	if max < min {
		max = min
	}
	n.nodeLat[id] = latencyRange{min: min, max: max}
}

// SetDropProb changes the message loss probability at runtime; the fault
// scheduler uses it to open and close loss episodes mid-run.
func (n *Network) SetDropProb(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropProb = p
}

// SetDupProb changes the message duplication probability at runtime.
func (n *Network) SetDupProb(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dupProb = p
}

// SetReorder changes the reordering probability and hold-back delay at
// runtime. Zero probability disables reordering.
func (n *Network) SetReorder(p float64, delay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reorderProb = p
	n.reorderDel = delay
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	byType := make(map[string]int64, len(n.byType))
	for k, v := range n.byType {
		byType[k.String()] = v
	}
	return Stats{
		Sent: n.sent, Delivered: n.delivered, Dropped: n.dropped,
		Duplicated: n.duplicated, Reordered: n.reordered, ByType: byType,
	}
}

// Quiesce blocks until every message accepted so far has been delivered or
// dropped. It is a barrier for callers that have stopped sending — the
// chaos harness uses it so fault transitions never race in-flight traffic
// (which would make replays diverge); with senders still active it only
// guarantees the messages sent before the call have settled.
func (n *Network) Quiesce() {
	n.mu.Lock()
	for n.inflight > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
}

// settleLocked records one message leaving transit. Caller holds mu.
func (n *Network) settleLocked() {
	n.inflight--
	if n.inflight == 0 {
		n.idle.Broadcast()
	}
}

// Close stops accepting sends, waits for in-flight deliveries to drain,
// and stops the lane delivery goroutines.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for n.inflight > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
	close(n.stop)
}
