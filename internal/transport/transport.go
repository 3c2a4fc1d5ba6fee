// Package transport defines the RPC seam between the cluster layer and
// whatever carries its messages. The cluster's protocol code (quorum
// fan-out, commit/abort control rounds, orphan resolution) speaks only to the
// three small interfaces here; internal/sim implements them over the
// deterministic in-process network, internal/transport/tcp over real
// sockets. The envelope semantics every backend must carry:
//
//   - Request/reply matching: a Call is answered by exactly one reply (or
//     an error); Notify is fire-and-forget and never answered.
//   - Deadline propagation: a Call stamps its context deadline onto the
//     wire so an overload-protected receiver can discard requests whose
//     caller already gave up (expired-on-arrival).
//   - Typed errors: a Call that gets no answer fails with ErrTimeout (the
//     context expired — the caller cannot tell a lost request from a slow
//     peer) or ErrLost (the backend knows no answer is coming: a severed
//     connection, a crashed peer, a sampled drop under fate feedback).
//     Raw backend errors (net.OpError and friends) never escape.
//   - Fate feedback where supported: a backend that learns a message's
//     fate early fails the pending call with ErrLost the moment the fate
//     is decided instead of burning the caller's timeout. The sim network
//     does this under Config.FateFeedback; TCP does it on connection loss.
package transport

import (
	"context"
	"errors"
	"time"
)

// ErrTimeout is returned by Call when the context expires before a reply
// arrives — lost request, lost reply, crashed server, or slow link; the
// caller cannot tell, exactly as in a real network.
var ErrTimeout = errors.New("rpc timeout")

// ErrLost is returned by Call when the backend knows no answer is coming —
// a severed connection, a refused dial, a crashed peer, or (under the sim
// network's fate feedback) a sampled drop. It means the same as ErrTimeout
// but arrives the moment the fate is decided.
var ErrLost = errors.New("rpc call lost")

// Handler processes one request addressed to a served name and answers
// through reply, which may be invoked at most once — synchronously or
// later from another goroutine (the decoupling a durable replica needs to
// keep absorbing requests while earlier acks wait on a log flush). For
// fire-and-forget traffic reply is a no-op. Backends invoke the handler on
// a single goroutine per served name, so handler state needs no locking —
// the actor discipline.
type Handler func(from string, req any, reply func(resp any))

// Client is a caller endpoint: it can address any served name on the
// transport. Implementations are safe for concurrent use.
type Client interface {
	// ID is the endpoint's own name, which receivers see as `from`.
	ID() string
	// Call sends req to the named server and waits for its reply or ctx
	// expiry. The context deadline, when present, is propagated on the
	// wire. No-answer failures are ErrTimeout or ErrLost (matched with
	// errors.Is); backend-specific errors never escape unwrapped.
	Call(ctx context.Context, to string, req any) (any, error)
	// Notify sends req without waiting for — or ever receiving — a reply.
	// Best-effort: a lost notify is silent and must be harmless to the
	// protocol (releases and cleanup notifies are).
	Notify(to string, req any)
	// Close releases the endpoint. Pending calls fail.
	Close()
}

// Server is a serving endpoint returned by Transport.Serve. It only
// answers: a replica originates no traffic.
type Server interface {
	// ID is the served name.
	ID() string
	// Close stops serving: an orderly departure, not a crash. Requests the
	// backend already delivered are served before the handler goes away,
	// so a durable replica's log never misses a release or commit its
	// sender rightly believes delivered. Idempotent.
	Close()
}

// Transport binds names to handlers and hands out caller endpoints. One
// Transport instance is one view of the cluster: the sim network routes by
// registered inbox, the TCP transport by a peer address map plus the
// listeners it opened itself.
type Transport interface {
	// Serve binds id to h and starts serving. The returned Server's Close
	// unbinds it; a later Serve of the same id on the same transport must
	// work (recovery restarts a replica under its old name).
	Serve(id string, h Handler, opts ...ServeOption) (Server, error)
	// Client returns a caller endpoint named id.
	Client(id string) (Client, error)
	// Quiesce blocks until traffic the transport has already accepted has
	// settled, as far as the backend can know: the sim network drains its
	// in-flight messages; TCP flushes its links, waits until each peer has
	// read what was sent, then until its own servers have served what they
	// read — traffic a handler starts meanwhile is not chased. An orderly
	// Store close calls this before closing replica logs.
	Quiesce()
}

// ServeConfig is the resolved per-server configuration.
type ServeConfig struct {
	// Admission, when non-nil, gives the server a bounded prioritized
	// service queue (see AdmissionConfig) instead of unbounded inline
	// service.
	Admission *AdmissionConfig
}

// A ServeOption configures one Serve call.
type ServeOption func(*ServeConfig)

// WithAdmission bounds and prioritizes the server's service queue.
func WithAdmission(cfg AdmissionConfig) ServeOption {
	return func(c *ServeConfig) { c.Admission = &cfg }
}

// ResolveServeOptions folds opts over the zero ServeConfig; backends call
// it at the top of Serve.
func ResolveServeOptions(opts []ServeOption) ServeConfig {
	var c ServeConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// OverloadHarness is the optional capability interface of servers whose
// admission queue exposes the deterministic harness hooks: hold the
// service loop, inject a seeded burst straight into the queue, resume, and
// read the counters. Both backends' servers implement it when admission is
// armed; harness code type-asserts and degrades gracefully when absent.
type OverloadHarness interface {
	// Overload returns the admission counters (zero without admission).
	Overload() OverloadStats
	// HoldService pauses the service loop: requests keep being admitted
	// (or shed) but none are served until ResumeService.
	HoldService()
	// ResumeService undoes HoldService.
	ResumeService()
	// WaitServiceIdle blocks until the queue is empty and no request is
	// being served. Callers must not hold the service.
	WaitServiceIdle()
	// Inject offers a request straight to the admission queue, bypassing
	// the network, as if it had arrived from `from` with the given
	// deadline. Fire-and-forget: no reply is sent. Reports admission.
	Inject(from string, req any, deadline time.Time) bool
}
