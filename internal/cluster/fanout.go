package cluster

import (
	"context"
	"math/bits"
	"sort"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
)

// member is one target's row in a phase's books: the request copies sent
// to it, the copies it answered and the copies that came back as a failed
// call, and its first grant's payload.
type member struct {
	issued, replied, failed int
	resp                    ReadResp
}

// collector is the pure state machine of one quorum phase's fan-out: it
// tracks which replicas were asked, which answered how, and whether the
// responses received so far cover any quorum. Its books are flat and indexed
// by target position: m holds one row per target, and each set of targets is
// a bitmask with bit i for targets[i], so the quorum test is one AND per
// quorum. It has no concurrency of its own — runPhase drives it from a
// single goroutine — which keeps it directly unit-testable.
type collector struct {
	targets []string // sorted
	masks   []uint64 // the quorums, over targets

	m       []member
	granted uint64
	held    uint64  // grant reported a pre-existing lock
	busy    uint64  // refused for a lock conflict at least once
	shed    uint64  // rejected at admission (overloaded)
	quar    uint64  // answered quarantined (serving nothing)
	dups    int     // responses beyond the first, per target, summed
	expired bool    // at least one shed was expired-on-arrival
	orphans []TxnID // expired-lease holders the Busy refusals named
}

func newCollector(targets []string, masks []uint64) *collector {
	return &collector{targets: targets, masks: masks, m: make([]member, len(targets))}
}

// issue records that one request copy was sent to targets[i].
func (c *collector) issue(i int) { c.m[i].issued++ }

// fail records that a copy to targets[i] came back as a failed call.
func (c *collector) fail(i int) { c.m[i].failed++ }

// answer counts one response from targets[i], and it as a duplicate past
// the first.
func (c *collector) answer(i int) {
	if c.m[i].replied++; c.m[i].replied > 1 {
		c.dups++
	}
}

// reply folds one response in. A grant always registers even if an earlier
// copy was refused: the DM holds a lock for us now, and forgetting that
// would leak it. The first grant's payload wins — its Held bit is the one
// that reflects the lock's true provenance.
func (c *collector) reply(i int, granted, busy, held bool, resp ReadResp) {
	c.answer(i)
	bit := uint64(1) << i
	if busy {
		c.busy |= bit
		c.orphans = append(c.orphans, resp.Orphans...)
	}
	if granted && c.granted&bit == 0 {
		c.granted |= bit
		if held {
			c.held |= bit
		}
		c.m[i].resp = resp
	}
}

// done reports whether the grants so far cover some quorum.
func (c *collector) done() bool {
	_, ok := c.winner()
	return ok
}

// winner returns the smallest quorum fully covered by grants, the first of
// equally small ones, if any.
func (c *collector) winner() (uint64, bool) {
	var best uint64
	for _, q := range c.masks {
		if q&c.granted == q && (best == 0 || bits.OnesCount64(q) < bits.OnesCount64(best)) {
			best = q
		}
	}
	return best, best != 0
}

// outstanding reports whether targets[i] has request copies in flight (or
// lost): more issued than answered.
func (c *collector) outstanding(i int) bool { return c.m[i].issued > c.m[i].replied }

// inflight is how many copies to targets[i] have come back neither as an
// answer nor as a failed call.
func (c *collector) inflight(i int) int { return c.m[i].issued - c.m[i].replied - c.m[i].failed }

// hedgeable returns the targets of among worth re-asking: no response yet
// and fewer than max copies issued. Busy or refusing DMs have answered —
// re-sending within the phase would just spin on the conflict.
func (c *collector) hedgeable(among uint64, max int) uint64 {
	var out uint64
	for m := among; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.m[i].replied == 0 && c.m[i].issued < max {
			out |= 1 << i
		}
	}
	return out
}

// noteShed folds in an explicit admission rejection. The DM answered — it
// is alive, just refusing load — so it counts as replied: hedging it would
// only add to the overload, and it is not "missing" for error reporting.
func (c *collector) noteShed(i int, expired bool) {
	c.answer(i)
	c.shed |= 1 << i
	c.expired = c.expired || expired
}

// noteQuarantined folds in a storage-fault refusal. Like a shed, the DM
// answered — it is alive but its log is untrusted, so it grants nothing
// until a peer rebuild. Counting it as replied keeps hedges off it (every
// copy would get the same refusal) and the phase fails over to quorums
// that avoid it.
func (c *collector) noteQuarantined(i int) {
	c.answer(i)
	c.quar |= 1 << i
}

// sawBusy reports whether any DM refused for a lock conflict.
func (c *collector) sawBusy() bool { return c.busy != 0 }

// sawShed reports whether any DM rejected the phase at admission.
func (c *collector) sawShed() bool { return c.shed != 0 }

// names returns the targets for which keep holds, sorted.
func (c *collector) names(keep func(i int) bool) []string {
	var out []string
	for i, dm := range c.targets {
		if keep(i) {
			out = append(out, dm)
		}
	}
	return out
}

// shedDMs returns every DM that rejected at admission, sorted.
func (c *collector) shedDMs() []string {
	return c.names(func(i int) bool { return c.shed&(1<<i) != 0 })
}

// respondedDMs returns every DM that answered at least once, sorted.
func (c *collector) respondedDMs() []string {
	return c.names(func(i int) bool { return c.m[i].replied > 0 })
}

// missingDMs returns the targets that never answered, sorted.
func (c *collector) missingDMs() []string {
	return c.names(func(i int) bool { return c.m[i].replied == 0 })
}

// phaseSpec describes one quorum phase to fan out.
type phaseSpec struct {
	item    string
	targets []string // every replica the phase may ask, sorted
	masks   []uint64 // the quorums any of which completes the phase, over targets
	req     any      // the request, Seq already stamped
	seq     int      // the phase's sequence number
	isWrite bool     // write phases never release extra locks (intents need them)
	// lockless phases (ReadReq with lockNone) leave nothing at any replica,
	// late copies included: there is nothing to touch or release.
	lockless bool
}

// parseGrant normalizes a DM response. Read payloads are preserved; write
// acks carry no state but the orphans a refusal names.
func parseGrant(raw any) (granted, busy, held bool, resp ReadResp) {
	switch v := raw.(type) {
	case ReadResp:
		return v.OK, v.Busy, v.Held, v
	case WriteResp:
		return v.OK, v.Busy, v.Held, ReadResp{Orphans: v.Orphans}
	}
	return false, false, false, ReadResp{}
}

// runPhase asks one quorum first and returns as soon as the grants cover
// any quorum of spec.masks ("first to quorum wins"), every copy sent has been
// answered without covering one, the phase deadline passes or the caller's
// context ends. The board's plan picks the first quorum — the one with no
// suspect member that adds the fewest replicas to those the transaction's
// tree already holds — and any half-open probe due. The phase widens to
// every other target the plan may dial, once, the moment an asked member
// answers with anything but a grant (Busy, a shed, quarantined, no replica),
// a call fails, or the hedge timer first fires. That first tick also charges
// each first-quorum member still silent one failure, so a steady straggler
// turns suspect and leaves the first quorums. Later ticks hedge: they
// re-issue the request to targets that have not answered at all, up to
// hedgeMax copies each, so one slow replica cannot stall the phase. One
// timer fires at each hedge tick and, last, at the phase deadline. Every
// copy leaves through transport.Go under that deadline and answers on one
// channel this goroutine reads, which also feeds the failure detector: an
// answer is a success, a failed call a failure, and so is each copy still
// silent when the deadline passes. A copy the phase abandons is not
// cancelled: it stays pending until its answer, its loss or its deadline,
// and whatever comes back lands unread in the channel, sized for every copy.
// An abandoned copy proves nothing about its replica; settlePhase squares
// it with the DMs.
func (t *Txn) runPhase(ctx context.Context, spec phaseSpec) *collector {
	st := t.store.opts
	col := newCollector(spec.targets, spec.masks)
	// Deadline arithmetic: the phase budget is the call timeout clamped to
	// the caller's remaining deadline minus the hop allowance, so hedged
	// copies — which all carry the phase deadline — can never run on a
	// fresh full call timeout after the caller's own deadline has nearly
	// elapsed. A caller without budget left, or whose context is done, gets
	// an empty collector without a single send.
	budget, err := t.store.callBudget(ctx)
	if err != nil {
		return col
	}
	deadline := time.Now().Add(budget)

	board := t.store.health
	plan := board.plan(spec.targets, spec.masks, t.held(spec.targets))
	if plan.skipped > 0 {
		t.store.Stats.SuspectSkips.Add(int64(plan.skipped))
	}
	if plan.probes != 0 {
		t.store.Stats.ProbeTrials.Add(int64(bits.OnesCount64(plan.probes)))
	}

	results := make(chan transport.Reply, len(spec.targets)*hedgeMax)
	inflight := 0
	issue := func(among uint64) {
		for m := among; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			col.issue(i)
			inflight++
			transport.Go(t.store.client, deadline, spec.targets[i], spec.req, i, results)
		}
	}
	asked := plan.send
	if plan.first != 0 {
		asked &= plan.first | plan.probes
	}
	issue(asked)
	// A phase with nobody left to ask — a plan that dialed everyone, or a
	// one-quorum sequential plan — has nothing to widen to.
	widened := asked == plan.send
	widen := func() {
		if widened || ctx.Err() != nil || !time.Now().Before(deadline) {
			return
		}
		widened = true
		t.store.Stats.Widenings.Inc()
		issue(plan.send &^ asked)
	}

	// A sequential plan asks one quorum and moves on to the next when a
	// member stays silent; re-asking within the plan is fan-out's remedy,
	// so only a fan-out phase's timer ticks before the deadline.
	hedge := budget
	if st.hedgeDelay > 0 && !st.sequential {
		hedge = st.hedgeDelay
	}
	timer := time.NewTimer(min(hedge, budget))
	defer timer.Stop()

	ticked := false
	for {
		select {
		case r := <-results:
			i := r.Tag
			dm := spec.targets[i]
			inflight--
			if r.Err == nil {
				board.observe(dm, true)
				if o, ok := r.Resp.(OverloadedResp); ok {
					col.noteShed(i, o.Expired)
					if o.Expired {
						t.store.Stats.ExpiredOnArrival.Inc()
					} else {
						t.store.Stats.AdmissionSheds.Inc()
					}
				} else if _, ok := r.Resp.(QuarantinedResp); ok {
					col.noteQuarantined(i)
				} else {
					granted, busy, held, resp := parseGrant(r.Resp)
					if busy {
						t.store.Stats.BusyRetries.Inc()
					}
					col.reply(i, granted, busy, held, resp)
				}
			} else {
				col.fail(i)
				if ctx.Err() == nil {
					// A parent that gave up proves nothing about the replica; a
					// timeout or a network-reported loss does.
					board.observe(dm, false)
				}
			}
			if col.done() {
				return col
			}
			if col.granted&(1<<i) == 0 {
				widen() // a refusal or a failed call
			}
			if inflight == 0 {
				// Every copy resolved without covering a quorum. Hedging
				// cannot help: it only re-asks targets that never answered,
				// and those have no copies left in flight to answer.
				return col
			}
		case <-timer.C:
			left := time.Until(deadline)
			if left <= 0 {
				// The budget ran out: each copy still silent is a timeout.
				for i, dm := range spec.targets {
					for n := col.inflight(i); n > 0; n-- {
						board.observe(dm, false)
					}
				}
				return col
			}
			timer.Reset(min(hedge, left))
			if !ticked {
				ticked = true
				for m := plan.first; m != 0; m &= m - 1 {
					if i := bits.TrailingZeros64(m); col.m[i].replied == 0 {
						board.observe(spec.targets[i], false)
					}
				}
				if !widened {
					widen()
					continue
				}
			}
			// Half-open probes get exactly one copy.
			hedges := col.hedgeable(plan.send&^plan.probes, hedgeMax)
			t.store.Stats.Hedges.Add(int64(bits.OnesCount64(hedges)))
			issue(hedges)
		case <-ctx.Done():
			return col
		}
	}
}

// settlePhase reconciles a finished fan-out with the DMs. Every replica
// that granted — or that might still grant to an abandoned in-flight copy
// — is marked touched so commit/abort control reaches it. Then, if the
// phase found a winning quorum, the grants it does not need are retracted:
// extra fresh read-phase locks are released outright (Moss fairness — a
// lock the transaction never uses should not block others), and abandoned
// copies are tombstoned so a late grant at the DM frees itself. Locks the
// transaction already held from earlier phases, and write locks backing
// buffered intentions, are never released; the DM enforces the same
// guards. A lockless phase has nothing to reconcile.
func (t *Txn) settlePhase(spec phaseSpec, col *collector) {
	if spec.lockless {
		return
	}
	win, won := col.winner()
	for i, dm := range spec.targets {
		switch bit := uint64(1) << i; {
		case col.granted&bit != 0 && spec.isWrite:
			t.touch(dm, touchWritten)
		case col.granted&bit != 0:
			t.touch(dm, touchGranted)
			if won && (win|col.held)&bit == 0 {
				t.store.Stats.ExtraLockReleases.Inc()
				t.store.client.Notify(dm, ReleaseReq{Txn: t.id, Item: spec.item, Seq: spec.seq})
			}
		case col.outstanding(i):
			t.touch(dm, touchMaybe)
			t.store.client.Notify(dm, ReleaseReq{Txn: t.id, Item: spec.item, Seq: spec.seq})
		}
	}
}

// masks returns each quorum of qs as a bitmask over targets (bit i for
// targets[i]), which hold every member.
func masks(qs []quorum.Set, targets []string) []uint64 {
	out := make([]uint64, len(qs))
	for i, q := range qs {
		for j, dm := range targets {
			if q[dm] {
				out[i] |= 1 << j
			}
		}
	}
	return out
}

// union returns the sorted union of the quorums' members — the targets of
// a phase that may be completed by any of them.
func union(qs []quorum.Set) []string {
	set := map[string]bool{}
	for _, q := range qs {
		for n := range q {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
