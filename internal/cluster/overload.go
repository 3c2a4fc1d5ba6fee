package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// callBudget computes the timeout for one outbound call or fan-out phase:
// the configured call timeout, clamped to the caller's remaining context
// budget minus the per-hop allowance. When the remaining budget cannot
// even cover the allowance the call is refused before it is sent — a
// request that cannot finish in time must be dropped at the earliest
// possible hop, not forwarded to die in a replica queue. This is also the
// hedge clamp: every hedged copy of a phase derives from the phase context
// this budget bounds, so a hedge can never outlive the caller's deadline
// on the strength of a fresh full call timeout.
func (s *Store) callBudget(ctx context.Context) (time.Duration, error) {
	d := s.opts.callTimeout
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl) - s.opts.hopAllowance
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

// callAcked sends req to dm until it answers Ack{OK: true}, backing off
// between tries, and reports whether it did. A dead context or an exhausted
// deadline budget ends the round at once: every further try would fail
// without being sent, so grinding through the retries would only burn
// backoffs.
func (s *Store) callAcked(ctx context.Context, dm string, req any, retries int) bool {
	for attempt := 0; attempt <= retries && ctx.Err() == nil; attempt++ {
		raw, err := s.callDM(ctx, dm, req)
		if ack, ok := raw.(Ack); err == nil && ok && ack.OK {
			return true
		}
		if errors.Is(err, errNoBudget) {
			return false
		}
		s.backoff(ctx, attempt)
	}
	return false
}

// callEach sends req to every one of dms at once and returns their answers
// by position, nil where none came. A call that gets no answer is retried
// after the ordinary backoff, up to retries times; whatever a DM does answer
// — a refusal included — ends its round. sent counts the DMs a copy may have
// reached: a call refused before it left this process (no deadline budget)
// reached nobody.
func (s *Store) callEach(ctx context.Context, dms []string, req any, retries int) (answers []any, sent int) {
	answers = make([]any, len(dms))
	left := make([]bool, len(dms))
	var wg sync.WaitGroup
	for i, dm := range dms {
		wg.Add(1)
		go func(i int, dm string) {
			defer wg.Done()
			for attempt := 0; attempt <= retries && ctx.Err() == nil; attempt++ {
				raw, err := s.callDM(ctx, dm, req)
				if errors.Is(err, errNoBudget) {
					return
				}
				// A failed call may still have been delivered and logged —
				// only the answer is missing.
				left[i] = true
				if err == nil {
					answers[i] = raw
					return
				}
				s.backoff(ctx, attempt)
			}
		}(i, dm)
	}
	wg.Wait()
	for _, l := range left {
		if l {
			sent++
		}
	}
	return answers, sent
}

// retryBudget is the SRE-style token bucket that bounds retry traffic to a
// fraction of first-attempt traffic. Every first attempt of a quorum phase
// deposits ratio tokens; every retry withdraws one. Under healthy load the
// bucket sits full and retries are free; under sustained overload the
// bucket drains and the sustainable retry rate converges to ratio times
// the first-attempt rate — retries can amplify load only by that factor,
// never into a retry storm. A nil *retryBudget (budget disabled) admits
// every retry.
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64
	tokens float64
	max    float64
}

// retryBudgetMax caps the bucket so a long quiet period cannot bank an
// unbounded burst of retries.
const retryBudgetMax = 16

func newRetryBudget(ratio float64) *retryBudget {
	if ratio <= 0 {
		return nil
	}
	// Start full: the budget exists to stop sustained retry storms, not to
	// make a cold store fail its first conflict.
	return &retryBudget{ratio: ratio, tokens: retryBudgetMax, max: retryBudgetMax}
}

// deposit credits one first attempt.
func (b *retryBudget) deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// allow withdraws one retry token, reporting whether the retry may run.
func (b *retryBudget) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
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
	// Slow path: a watcher turns ctx expiry into a wakeup. It takes the
	// mutex before broadcasting so the wakeup cannot land between our
	// ctx.Err check and cond.Wait.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		case <-stop:
		}
	}()
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
