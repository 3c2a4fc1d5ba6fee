package transport

import (
	"context"
	"sync"
	"time"
)

// Reply is the outcome of one asynchronous call, under the tag its caller
// gave it: the answer in Resp, or the no-answer error in Err (ErrTimeout,
// ErrLost, or the send failure a backend reports for Call too).
type Reply struct {
	Tag  int
	Resp any
	Err  error
}

// AsyncClient is the optional capability of a Client that issues a call
// without a goroutine blocked on it, so a caller that fans one request out to
// many servers collects every answer on a goroutine it already runs. Both
// backends' clients have it; a Client wrapper that embeds Client does not
// inherit it, so its Call override keeps seeing every call (see Go).
type AsyncClient interface {
	// Go sends req to the named server and returns without waiting. Exactly
	// one Reply carrying tag is delivered on done: the answer, ErrLost when
	// the backend knows none is coming, or ErrTimeout once deadline passes.
	// The deadline is propagated on the wire as a Call's is; a zero deadline
	// never expires. There is no cancelling a call: a caller that gives up
	// early stops reading done, which it sizes so that no delivery blocks.
	Go(deadline time.Time, to string, req any, tag int, done chan<- Reply)
}

// Go issues one call through c's Go when c is an AsyncClient, and otherwise
// on one goroutine that waits in c.Call and delivers its result on done: the
// same contract either way.
func Go(c Client, deadline time.Time, to string, req any, tag int, done chan<- Reply) {
	if a, ok := c.(AsyncClient); ok {
		a.Go(deadline, to, req, tag, done)
		return
	}
	go callUntil(c, deadline, to, req, tag, done)
}

// callUntil is Go's fallback for a Client without Go: one Call under a
// context that ends at deadline. It is kept out of Go so the deadline
// context does not escape to the heap on every AsyncClient call: a closure
// inside Go that reassigns ctx moves that variable to the heap.
func callUntil(c Client, deadline time.Time, to string, req any, tag int, done chan<- Reply) {
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	resp, err := c.Call(ctx, to, req)
	done <- Reply{Tag: tag, Resp: resp, Err: err}
}

// Calls is a backend's table of the calls awaiting a reply. It hands out
// the call IDs that go on the wire and completes each call exactly once:
// with its answer or a failure the backend learns of (Finish, Fail, Close),
// or with ErrTimeout once its deadline passes. One timer per table, armed
// at the earliest deadline the table knows, times out every call past due
// and re-arms at the next deadline, so a call costs the table no timer or
// callback of its own. The zero value is ready to use.
type Calls struct {
	mu    sync.Mutex
	next  uint64
	calls map[uint64]pendingCall
	timer *time.Timer
	// armed is when timer fires; zero while it is not armed.
	armed  time.Time
	closed error
}

type pendingCall struct {
	tag      int
	done     chan<- Reply
	deadline time.Time
	owner    any
}

// Add registers a call that will be completed on done under tag, and returns
// its ID. owner is whatever the backend fails calls by (Fail); nil for none.
// A call whose deadline has already passed, or added after Close, is
// completed at once and gets ID 0: the caller sends nothing.
func (c *Calls) Add(deadline time.Time, tag int, done chan<- Reply, owner any) uint64 {
	c.mu.Lock()
	err := c.closed
	if err == nil && !deadline.IsZero() && !time.Now().Before(deadline) {
		err = ErrTimeout
	}
	if err != nil {
		c.mu.Unlock()
		done <- Reply{Tag: tag, Err: err}
		return 0
	}
	if c.calls == nil {
		c.calls = map[uint64]pendingCall{}
	}
	c.next++
	id := c.next
	c.calls[id] = pendingCall{tag: tag, done: done, deadline: deadline, owner: owner}
	if !deadline.IsZero() {
		c.arm(deadline)
	}
	c.mu.Unlock()
	return id
}

// arm makes the timer fire at at, unless it already fires no later. Caller
// holds c.mu.
func (c *Calls) arm(at time.Time) {
	if !c.armed.IsZero() && !at.Before(c.armed) {
		return
	}
	c.armed = at
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Until(at), c.expire)
		return
	}
	c.timer.Reset(time.Until(at))
}

// expire is the timer's callback: every call past its deadline times out,
// and the timer re-arms at the earliest deadline left. A callback that
// raced a re-arm finds nothing due and only re-arms.
func (c *Calls) expire() {
	var out []pendingCall
	var next time.Time
	c.mu.Lock()
	now := time.Now()
	c.armed = time.Time{}
	for id, e := range c.calls {
		switch {
		case e.deadline.IsZero():
		case !now.Before(e.deadline):
			delete(c.calls, id)
			out = append(out, e)
		case next.IsZero() || e.deadline.Before(next):
			next = e.deadline
		}
	}
	if !next.IsZero() {
		c.arm(next)
	}
	c.mu.Unlock()
	for _, e := range out {
		e.done <- Reply{Tag: e.tag, Err: ErrTimeout}
	}
}

// Finish completes call id with an answer or an error, and reports whether
// the call was still pending: a late or duplicated reply finds nothing.
func (c *Calls) Finish(id uint64, resp any, err error) bool {
	c.mu.Lock()
	e, ok := c.calls[id]
	delete(c.calls, id)
	c.mu.Unlock()
	if ok {
		e.done <- Reply{Tag: e.tag, Resp: resp, Err: err}
	}
	return ok
}

// Wait is the waiting half of a Call: it returns call id's reply from done,
// and when ctx ends first it times the call out itself, so a Call returns
// the moment its context does. done carries exactly one reply for id, as
// Add delivers it (an ID of 0 already has its reply).
func (c *Calls) Wait(ctx context.Context, id uint64, done <-chan Reply) (any, error) {
	select {
	case r := <-done:
		return r.Resp, r.Err
	case <-ctx.Done():
		c.Finish(id, nil, ErrTimeout)
	}
	r := <-done
	return r.Resp, r.Err
}

// Fail completes every pending call of owner with err.
func (c *Calls) Fail(owner any, err error) {
	c.failWhere(func(e pendingCall) bool { return e.owner == owner }, err)
}

// Close completes every pending call with err, and every call added later
// at once with the same error. Idempotent; the first error sticks.
func (c *Calls) Close(err error) {
	c.mu.Lock()
	if c.closed == nil {
		c.closed = err
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
	c.failWhere(func(pendingCall) bool { return true }, err)
}

// Len is the number of calls still pending.
func (c *Calls) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

func (c *Calls) failWhere(match func(pendingCall) bool, err error) {
	var out []pendingCall
	c.mu.Lock()
	for id, e := range c.calls {
		if match(e) {
			delete(c.calls, id)
			out = append(out, e)
		}
	}
	c.mu.Unlock()
	for _, e := range out {
		e.done <- Reply{Tag: e.tag, Err: err}
	}
}
