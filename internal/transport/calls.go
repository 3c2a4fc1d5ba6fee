package transport

import (
	"context"
	"sync"
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
	// the backend knows none is coming, or ErrTimeout once ctx is done. The
	// context deadline is propagated on the wire as for Call. The caller
	// sizes done so that no delivery blocks.
	Go(ctx context.Context, to string, req any, tag int, done chan<- Reply)
}

// Go issues one call through c's Go when c is an AsyncClient, and otherwise
// on one goroutine that waits in c.Call and delivers its result on done: the
// same contract either way.
func Go(c Client, ctx context.Context, to string, req any, tag int, done chan<- Reply) {
	if a, ok := c.(AsyncClient); ok {
		a.Go(ctx, to, req, tag, done)
		return
	}
	go func() {
		resp, err := c.Call(ctx, to, req)
		done <- Reply{Tag: tag, Resp: resp, Err: err}
	}()
}

// Calls is a backend's table of the calls awaiting a reply. It hands out
// the call IDs that go on the wire and completes each call exactly once:
// with its answer or a failure the backend learns of (Finish, Fail, Close),
// or with ErrTimeout when its context ends. The calls issued under one
// context share one watch on it, so a quorum round's copies register a
// single context callback between them, and the watch is stopped as soon as
// its last call completes. The zero value is ready to use.
type Calls struct {
	mu      sync.Mutex
	next    uint64
	calls   map[uint64]pendingCall
	watches map[<-chan struct{}]*watch
	closed  error
}

type pendingCall struct {
	tag   int
	done  chan<- Reply
	w     *watch
	owner any
}

// watch is the one context callback shared by the live calls of a context.
type watch struct {
	done <-chan struct{}
	stop func() bool
	live int
}

// Add registers a call that will be completed on done under tag, and returns
// its ID. owner is whatever the backend fails calls by (Fail); nil for none.
// A call whose context is already done, or added after Close, is completed
// at once and gets ID 0: the caller sends nothing.
func (c *Calls) Add(ctx context.Context, tag int, done chan<- Reply, owner any) uint64 {
	if ctx.Err() != nil {
		done <- Reply{Tag: tag, Err: ErrTimeout}
		return 0
	}
	c.mu.Lock()
	if err := c.closed; err != nil {
		c.mu.Unlock()
		done <- Reply{Tag: tag, Err: err}
		return 0
	}
	if c.calls == nil {
		c.calls = map[uint64]pendingCall{}
		c.watches = map[<-chan struct{}]*watch{}
	}
	c.next++
	id := c.next
	e := pendingCall{tag: tag, done: done, owner: owner}
	if d := ctx.Done(); d != nil {
		w := c.watches[d]
		if w == nil {
			w = &watch{done: d}
			c.watches[d] = w
			// The callback runs on a goroutine of its own, never inline, so
			// registering it under c.mu cannot deadlock.
			w.stop = context.AfterFunc(ctx, func() { c.expire(w) })
		}
		w.live++
		e.w = w
	}
	c.calls[id] = e
	c.mu.Unlock()
	return id
}

// Finish completes call id with an answer or an error, and reports whether
// the call was still pending: a late or duplicated reply finds nothing.
func (c *Calls) Finish(id uint64, resp any, err error) bool {
	c.mu.Lock()
	e, ok := c.calls[id]
	if !ok {
		c.mu.Unlock()
		return false
	}
	delete(c.calls, id)
	stop := c.release(e.w)
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
	e.done <- Reply{Tag: e.tag, Resp: resp, Err: err}
	return true
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
	c.mu.Unlock()
	c.failWhere(func(pendingCall) bool { return true }, err)
}

// Len is the number of calls still pending.
func (c *Calls) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

// release drops one live call from w, and hands back the stop of a watch
// that has none left. Caller holds c.mu.
func (c *Calls) release(w *watch) func() bool {
	if w == nil {
		return nil
	}
	w.live--
	if w.live > 0 {
		return nil
	}
	if c.watches[w.done] == w {
		delete(c.watches, w.done)
	}
	return w.stop
}

// expire is w's context callback: every call of w still pending times out.
func (c *Calls) expire(w *watch) {
	c.mu.Lock()
	if c.watches[w.done] == w {
		delete(c.watches, w.done)
	}
	var out []pendingCall
	for id, e := range c.calls {
		if e.w == w {
			delete(c.calls, id)
			out = append(out, e)
		}
	}
	w.live = 0
	c.mu.Unlock()
	for _, e := range out {
		e.done <- Reply{Tag: e.tag, Err: ErrTimeout}
	}
}

func (c *Calls) failWhere(match func(pendingCall) bool, err error) {
	var out []pendingCall
	var stops []func() bool
	c.mu.Lock()
	for id, e := range c.calls {
		if match(e) {
			delete(c.calls, id)
			out = append(out, e)
			if stop := c.release(e.w); stop != nil {
				stops = append(stops, stop)
			}
		}
	}
	c.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	for _, e := range out {
		e.done <- Reply{Tag: e.tag, Err: err}
	}
}
