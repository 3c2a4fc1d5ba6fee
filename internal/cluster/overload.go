package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// hopAllowance is the deadline budget every outbound call or fan-out phase
// reserves for the hop itself: callBudget refuses a call the caller's
// remaining deadline cannot cover by this much.
const hopAllowance = time.Millisecond

// callBudget computes the timeout for one outbound call or fan-out phase:
// the configured call timeout, clamped to the caller's remaining context
// budget minus hopAllowance. When the remaining budget cannot even cover
// the allowance the call is refused before it is sent — a
// request that cannot finish in time must be dropped at the earliest
// possible hop, not forwarded to die in a replica queue; so is a call whose
// caller's context is already done, with the timeout its Call would give.
// This is also the hedge clamp: every hedged copy of a phase carries the
// phase deadline this budget bounds, so a hedge can never outlive the
// caller's deadline on the strength of a fresh full call timeout.
func (s *Store) callBudget(ctx context.Context) (time.Duration, error) {
	if ctx.Err() != nil {
		return 0, transport.ErrTimeout
	}
	d := s.opts.callTimeout
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl) - hopAllowance
		if rem <= 0 {
			return 0, errNoBudget
		}
		if rem < d {
			d = rem
		}
	}
	return d, nil
}

// errNoBudget is callBudget's refusal: the call was never sent.
var errNoBudget = fmt.Errorf("cluster: caller's deadline cannot cover another hop: %w", context.DeadlineExceeded)

// callDM is the one way the coordinator talks to a single replica outside
// a quorum fan-out: one request, bounded by callBudget, its outcome fed to
// the failure detector. A cancelled caller proves nothing about the other
// end, so only a genuine non-answer blames the replica.
func (s *Store) callDM(ctx context.Context, dm string, req any) (any, error) {
	budget, err := s.callBudget(ctx)
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	raw, err := s.client.Call(cctx, dm, req)
	if err == nil {
		s.health.observe(dm, true)
	} else if ctx.Err() == nil {
		s.health.observe(dm, false)
	}
	return raw, err
}

// round is one request to a set of replicas, each asked until its answer
// will do.
type round struct {
	dms     []string
	req     any
	retries int
	// until tells an answer that ends a DM's round from one that is retried;
	// nil takes any answer. No answer at all is always retried.
	until func(any) bool
	// then, when set, runs once the first copies are out, while they travel
	// (and when none could go, all the same).
	then func()
}

// isAck is the until of a round that needs every DM's Ack{OK: true}.
func isAck(raw any) bool {
	ack, ok := raw.(Ack)
	return ok && ack.OK
}

// call sends r.req to every one of r.dms at once, under one round deadline,
// and collects the answers on this goroutine from one channel. A DM whose
// answer does not end its round gets its own attempt-scaled, jittered
// backoff and is asked again, under a call budget of its own, up to
// r.retries times. It returns each DM's last answer by position, nil where
// none came, and the number of DMs a copy may have reached: a call refused
// before it left this process (no deadline budget) reached nobody. Every
// outcome feeds the failure detector as callDM's does. A dead context ends
// the round at once; the copies still out stay pending until their answer,
// loss or deadline, and land unread in the round's channel.
func (s *Store) call(ctx context.Context, r round) (answers []any, sent int) {
	answers = make([]any, len(r.dms))
	attempts := make([]int, len(r.dms))
	// One copy per DM is in flight or backing off at a time, so neither
	// channel ever holds more than one entry for each.
	replies := make(chan transport.Reply, len(r.dms))
	again := make(chan int, len(r.dms))
	// issue asks r.dms[from:to] under one deadline bounded by callBudget, and
	// returns how many it asked: none once the caller's context is dead.
	issue := func(from, to int) int {
		budget, err := s.callBudget(ctx)
		if err != nil {
			return 0
		}
		deadline := time.Now().Add(budget)
		for i := from; i < to; i++ {
			transport.Go(s.client, deadline, r.dms[i], r.req, i, replies)
		}
		return to - from
	}
	sent = issue(0, len(r.dms))
	if r.then != nil {
		r.then()
	}
	for live := sent; live > 0; {
		select {
		case rep := <-replies:
			i := rep.Tag
			if rep.Err == nil {
				s.health.observe(r.dms[i], true)
				answers[i] = rep.Resp
			} else if ctx.Err() == nil {
				s.health.observe(r.dms[i], false)
			}
			if rep.Err == nil && (r.until == nil || r.until(rep.Resp)) || attempts[i] == r.retries || ctx.Err() != nil {
				live--
				continue
			}
			time.AfterFunc(s.backoffDelay(attempts[i]), func() { again <- i })
			attempts[i]++
		case i := <-again:
			live += issue(i, i+1) - 1
		case <-ctx.Done():
			return answers, sent
		}
	}
	return answers, sent
}

// aimdLimiter bounds in-flight top-level transactions with an
// additive-increase / multiplicative-decrease ceiling: successes grow the
// limit by ~1 per limit-many successes, overload signals halve it. The
// classic TCP-shaped probe keeps offered concurrency near what the
// replicas can actually serve without an explicit capacity oracle.
type aimdLimiter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	limit    float64
	max      float64
	inflight int
}

func newAIMDLimiter(max int) *aimdLimiter {
	if max <= 0 {
		return nil
	}
	l := &aimdLimiter{limit: float64(max), max: float64(max)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// ceilLocked is the current integer ceiling, never below 1 so the limiter
// can shed load but not wedge the store.
func (l *aimdLimiter) ceilLocked() int {
	c := int(l.limit)
	if c < 1 {
		c = 1
	}
	return c
}

// acquire blocks until an in-flight slot frees up or ctx dies.
func (l *aimdLimiter) acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.inflight < l.ceilLocked() {
		l.inflight++
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	// Slow path: ctx expiry becomes a wakeup. It takes the mutex before
	// broadcasting so the wakeup cannot land between our ctx.Err check and
	// cond.Wait.
	defer context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.inflight >= l.ceilLocked() {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.cond.Wait()
	}
	l.inflight++
	return nil
}

// release frees an in-flight slot.
func (l *aimdLimiter) release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.inflight--
	l.cond.Broadcast()
	l.mu.Unlock()
}

// onSuccess grows the ceiling additively (+1 after limit-many successes).
func (l *aimdLimiter) onSuccess() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.limit += 1 / l.limit
	if l.limit > l.max {
		l.limit = l.max
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// onOverload halves the ceiling (floor 1).
func (l *aimdLimiter) onOverload() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.limit /= 2
	if l.limit < 1 {
		l.limit = 1
	}
	l.mu.Unlock()
}

// ceiling returns the current integer in-flight limit.
func (l *aimdLimiter) ceiling() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ceilLocked()
}

// noteTxnOutcome feeds one top-level transaction's result to the AIMD
// limiter: successes regrow the in-flight ceiling, overload and
// unavailability signals halve it.
func (s *Store) noteTxnOutcome(err error) {
	if s.limiter == nil {
		return
	}
	switch {
	case err == nil:
		s.limiter.onSuccess()
	case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrUnavailable):
		s.limiter.onOverload()
	}
	s.Stats.InflightLimit.Set(int64(s.limiter.ceiling()))
}

// BurstReport summarizes one injected admission burst at a DM.
type BurstReport struct {
	// Offered is the number of requests injected.
	Offered int
	// Admitted, Shed and Expired are the admission verdicts: queued,
	// rejected queue-full, and discarded expired-on-arrival at dequeue.
	Admitted int
	Shed     int
	Expired  int
}

// Burst offers total inert PingReqs straight to dm's admission queue while
// its service loop is held, then resumes service and waits for the queue
// to drain. The first preExpired requests carry an already-passed deadline
// (one nanosecond before the store clock's now), so they are deterministic
// expired-on-arrival discards at dequeue. Injection bypasses the network —
// no lanes, no drops, no scheduler — which makes the report a pure
// function of the burst: seeded chaos campaigns rely on that for
// bit-for-bit replayable shed counters. Zero report when dm does not exist
// or has no admission queue.
func (s *Store) Burst(dm string, total, preExpired int) BurstReport {
	h := s.host(dm)
	if h == nil || total <= 0 {
		return BurstReport{}
	}
	oh := h.harness()
	if oh == nil {
		return BurstReport{}
	}
	preExpired = min(preExpired, total)
	// Start from an empty queue: a request the transport delivered but the
	// replica has not yet admitted or served (a duplicated copy whose caller
	// moved on) would occupy a slot and shift the verdict counts.
	oh.WaitServiceIdle()
	before := oh.Overload()
	oh.HoldService()
	expired := s.now().Add(-time.Nanosecond)
	for i := 0; i < total; i++ {
		var dl time.Time
		if i < preExpired {
			dl = expired
		}
		oh.Inject("burst", PingReq{Seq: i}, dl)
	}
	oh.ResumeService()
	oh.WaitServiceIdle()
	after := oh.Overload()
	return BurstReport{
		Offered:  total,
		Admitted: int(after.Admitted - before.Admitted),
		Shed:     int(after.Shed - before.Shed),
		Expired:  int(after.ExpiredDropped - before.ExpiredDropped),
	}
}

// OverloadTotals sums the admission counters of every DM this store
// spawned.
func (s *Store) OverloadTotals() transport.OverloadStats {
	var out transport.OverloadStats
	for _, h := range s.hosts() {
		oh := h.harness()
		if oh == nil {
			continue
		}
		st := oh.Overload()
		out.Admitted += st.Admitted
		out.Shed += st.Shed
		out.ExpiredDropped += st.ExpiredDropped
		out.ServedExpired += st.ServedExpired
	}
	return out
}
