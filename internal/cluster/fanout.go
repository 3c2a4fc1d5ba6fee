package cluster

import (
	"context"
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
)

// memberResp pairs a replica's answer with its name, so the read phase can
// fold versions and learn generations afterwards.
type memberResp struct {
	dm   string
	resp ReadResp
}

// collector is the pure state machine of one quorum phase's fan-out: it
// tracks which replicas were asked, which answered how, and whether the
// responses received so far cover any quorum. It has no concurrency of its
// own — runPhase drives it from a single goroutine — which keeps it
// directly unit-testable.
type collector struct {
	quorums []quorum.Set

	issued  map[string]int // request copies sent, per DM
	replied map[string]int // responses received, per DM (any kind)
	granted map[string]bool
	held    map[string]bool // grant reported a pre-existing lock
	busy    map[string]bool // DM refused for a lock conflict at least once
	shed    map[string]bool // DM rejected at admission (overloaded)
	resps   map[string]memberResp
	wrong   map[string]WrongShardResp // DM answered "item moved" redirect
	quar    map[string]bool           // DM answered quarantined (serving nothing)
	dups    int                       // responses beyond the first, per DM, summed
	expired bool                      // at least one shed was expired-on-arrival
	orphans []TxnID                   // expired-lease holders the Busy refusals named
}

func newCollector(quorums []quorum.Set) *collector {
	return &collector{
		quorums: quorums,
		issued:  map[string]int{},
		replied: map[string]int{},
		granted: map[string]bool{},
		held:    map[string]bool{},
		busy:    map[string]bool{},
		shed:    map[string]bool{},
		resps:   map[string]memberResp{},
	}
}

// issue records that one request copy was sent to dm.
func (c *collector) issue(dm string) { c.issued[dm]++ }

// reply folds one response in. Responses past the first per DM are counted
// as duplicates, but a grant always registers even if an earlier copy was
// refused: the DM holds a lock for us now, and forgetting that would leak
// it. The first grant's payload wins — its Held bit is the one that
// reflects the lock's true provenance.
func (c *collector) reply(dm string, granted, busy, held bool, m memberResp) {
	c.replied[dm]++
	if c.replied[dm] > 1 {
		c.dups++
	}
	if busy {
		c.busy[dm] = true
		c.orphans = append(c.orphans, m.resp.Orphans...)
	}
	if granted && !c.granted[dm] {
		c.granted[dm] = true
		c.held[dm] = held
		c.resps[dm] = m
	}
}

// done reports whether the grants so far cover some quorum.
func (c *collector) done() bool {
	_, ok := c.winner()
	return ok
}

// winner returns the smallest quorum fully covered by grants, if any. A
// quorum larger than the grant count cannot be covered, so a phase's early
// answers cost no set walk.
func (c *collector) winner() (quorum.Set, bool) {
	var best quorum.Set
	for _, q := range c.quorums {
		if len(q) > len(c.granted) || best != nil && len(q) >= len(best) {
			continue
		}
		if q.SubsetOf(c.granted) {
			best = q
		}
	}
	return best, best != nil
}

// outstanding reports whether dm has request copies in flight (or lost):
// more issued than answered.
func (c *collector) outstanding(dm string) bool {
	return c.issued[dm] > c.replied[dm]
}

// hedgeTargets returns the DMs worth re-asking: no response yet and fewer
// than max copies issued. Busy or refusing DMs have answered — re-sending
// within the phase would just spin on the conflict.
func (c *collector) hedgeTargets(targets []string, max int) []string {
	var out []string
	for _, dm := range targets {
		if c.replied[dm] == 0 && c.issued[dm] < max {
			out = append(out, dm)
		}
	}
	return out
}

// noteShed folds in an explicit admission rejection. The DM answered — it
// is alive, just refusing load — so it counts as replied: hedging it would
// only add to the overload, and it is not "missing" for error reporting.
func (c *collector) noteShed(dm string, expired bool) {
	c.replied[dm]++
	if c.replied[dm] > 1 {
		c.dups++
	}
	c.shed[dm] = true
	if expired {
		c.expired = true
	}
}

// noteQuarantined folds in a storage-fault refusal. Like a shed, the DM
// answered — it is alive but its log is untrusted, so it grants nothing
// until a peer rebuild. Counting it as replied keeps hedges off it (every
// copy would get the same refusal) and the phase fails over to quorums
// that avoid it.
func (c *collector) noteQuarantined(dm string) {
	c.replied[dm]++
	if c.replied[dm] > 1 {
		c.dups++
	}
	if c.quar == nil {
		c.quar = map[string]bool{}
	}
	c.quar[dm] = true
}

// noteWrongShard folds in a migration redirect. Like a shed, the DM
// answered — it just no longer hosts the item — so it counts as replied
// and is never hedged or reported missing.
func (c *collector) noteWrongShard(dm string, w WrongShardResp) {
	c.replied[dm]++
	if c.replied[dm] > 1 {
		c.dups++
	}
	if c.wrong == nil {
		c.wrong = map[string]WrongShardResp{}
	}
	if _, dup := c.wrong[dm]; !dup {
		c.wrong[dm] = w
	}
}

// sawWrongShard returns one redirect from the phase, lowest DM id first so
// the pick is deterministic under seeded replay.
func (c *collector) sawWrongShard() (WrongShardResp, bool) {
	if len(c.wrong) == 0 {
		return WrongShardResp{}, false
	}
	dms := make([]string, 0, len(c.wrong))
	for dm := range c.wrong {
		dms = append(dms, dm)
	}
	sort.Strings(dms)
	return c.wrong[dms[0]], true
}

// sawBusy reports whether any DM refused for a lock conflict.
func (c *collector) sawBusy() bool { return len(c.busy) > 0 }

// sawShed reports whether any DM rejected the phase at admission.
func (c *collector) sawShed() bool { return len(c.shed) > 0 }

// shedDMs returns every DM that rejected at admission, sorted.
func (c *collector) shedDMs() []string {
	out := make([]string, 0, len(c.shed))
	for dm := range c.shed {
		out = append(out, dm)
	}
	sort.Strings(out)
	return out
}

// respondedDMs returns every DM that answered at least once, sorted.
func (c *collector) respondedDMs() []string {
	out := make([]string, 0, len(c.replied))
	for dm := range c.replied {
		out = append(out, dm)
	}
	sort.Strings(out)
	return out
}

// missingDMs returns the targets that never answered, sorted.
func (c *collector) missingDMs(targets []string) []string {
	var out []string
	for _, dm := range targets {
		if c.replied[dm] == 0 {
			out = append(out, dm)
		}
	}
	sort.Strings(out)
	return out
}

// grantedResps returns the payloads of all granting DMs, sorted by name.
func (c *collector) grantedResps() []memberResp {
	out := make([]memberResp, 0, len(c.resps))
	for _, m := range c.resps {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dm < out[j].dm })
	return out
}

// winnerResps returns the payloads of the winning quorum's members only.
// Folding versions over just the winner is sufficient: the winner is a
// read-quorum, and quorum intersection guarantees it contains the highest
// committed version any configuration write-quorum installed.
func (c *collector) winnerResps(win quorum.Set) []memberResp {
	out := make([]memberResp, 0, len(win))
	for dm := range win {
		if m, ok := c.resps[dm]; ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dm < out[j].dm })
	return out
}

// phaseSpec describes one quorum phase to fan out.
type phaseSpec struct {
	item    string
	targets []string     // every replica the phase may ask
	quorums []quorum.Set // the quorums any of which completes the phase
	req     any          // the request, Seq already stamped
	seq     int          // the phase's sequence number
	isWrite bool         // write phases never release extra locks (intents need them)
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
// any of spec.quorums ("first to quorum wins"), every copy sent has been
// answered without covering one, or the phase times out. The board's plan
// picks the first quorum — the one with no suspect member that adds the
// fewest replicas to those the transaction's tree already holds — and any
// half-open probe due. The phase widens to every other target the plan may
// dial, once, the moment an asked member answers with anything but a grant
// (Busy, a shed, quarantined, a redirect), a call fails, or the hedge timer
// first fires. That first tick also charges each first-quorum member still
// silent one failure, so a steady straggler turns suspect and leaves the
// first quorums. Later ticks hedge: they re-issue the request to targets
// that have not answered at all, up to hedgeMax copies each, so one slow
// replica cannot stall the phase. Every copy leaves through transport.Go and
// answers on one channel this goroutine reads, which also feeds the failure
// detector: an answer is a success, a failed call a failure, and so is each
// copy still silent when the phase budget runs out. Returning cancels the
// phase context, abandoning in-flight copies, which proves nothing about
// their replicas; settlePhase squares that with the DMs.
func (t *Txn) runPhase(ctx context.Context, spec phaseSpec) *collector {
	st := t.store.opts
	col := newCollector(spec.quorums)
	// Deadline arithmetic: the phase budget is the call timeout clamped to
	// the caller's remaining deadline minus the hop allowance, so hedged
	// copies — which all derive from pctx — can never run on a fresh full
	// call timeout after the caller's own deadline has nearly elapsed. A
	// caller without budget left gets an empty collector without a single
	// send.
	budget, err := t.store.callBudget(ctx)
	if err != nil {
		return col
	}
	pctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	board := t.store.health
	plan := board.plan(spec.targets, spec.quorums, t.held(spec.targets))
	if plan.skipped > 0 {
		t.store.Stats.SuspectSkips.Add(int64(plan.skipped))
	}
	if len(plan.probes) > 0 {
		t.store.Stats.ProbeTrials.Add(int64(len(plan.probes)))
	}

	results := make(chan transport.Reply, len(spec.targets)*hedgeMax)
	copies := make([]int, len(spec.targets)) // in flight, per target
	inflight := 0
	issue := func(dm string) {
		i := slices.Index(spec.targets, dm)
		col.issue(dm)
		copies[i]++
		inflight++
		transport.Go(t.store.client, pctx, dm, spec.req, i, results)
	}
	for _, dm := range plan.send {
		if plan.first == nil || plan.first[dm] || plan.probes[dm] {
			issue(dm)
		}
	}
	// A phase with nobody left to ask — a plan that dialed everyone, or a
	// one-quorum sequential plan — has nothing to widen to.
	widened := inflight == len(plan.send)
	widen := func() {
		if widened || pctx.Err() != nil {
			return
		}
		widened = true
		t.store.Stats.Widenings.Inc()
		for _, dm := range plan.send {
			if col.issued[dm] == 0 {
				issue(dm)
			}
		}
	}

	// A sequential plan asks one quorum and moves on to the next when a
	// member stays silent; re-asking within the plan is fan-out's remedy.
	var hedgeC <-chan time.Time
	if st.hedgeDelay > 0 && !st.sequential {
		tick := time.NewTicker(st.hedgeDelay)
		defer tick.Stop()
		hedgeC = tick.C
	}

	ticked := false
	for {
		select {
		case r := <-results:
			dm := spec.targets[r.Tag]
			copies[r.Tag]--
			inflight--
			if r.Err == nil {
				board.observe(dm, true)
				if o, ok := r.Resp.(OverloadedResp); ok {
					col.noteShed(dm, o.Expired)
					if o.Expired {
						t.store.Stats.ExpiredOnArrival.Inc()
					} else {
						t.store.Stats.AdmissionSheds.Inc()
					}
				} else if w, ok := r.Resp.(WrongShardResp); ok {
					col.noteWrongShard(dm, w)
				} else if _, ok := r.Resp.(QuarantinedResp); ok {
					col.noteQuarantined(dm)
				} else {
					granted, busy, held, resp := parseGrant(r.Resp)
					if busy {
						t.store.Stats.BusyRetries.Inc()
					}
					col.reply(dm, granted, busy, held, memberResp{dm: dm, resp: resp})
				}
			} else if !errors.Is(pctx.Err(), context.Canceled) {
				// A parent that gave up proves nothing about the replica; a
				// timeout or a network-reported loss does.
				board.observe(dm, false)
			}
			if col.done() {
				return col
			}
			if !col.granted[dm] {
				widen() // a refusal or a failed call
			}
			if inflight == 0 {
				// Every copy resolved without covering a quorum. Hedging
				// cannot help: it only re-asks targets that never answered,
				// and those have no copies left in flight to answer.
				return col
			}
		case <-hedgeC:
			if !ticked {
				ticked = true
				for dm := range plan.first {
					if col.replied[dm] == 0 {
						board.observe(dm, false)
					}
				}
				if !widened {
					widen()
					continue
				}
			}
			for _, dm := range col.hedgeTargets(plan.send, hedgeMax) {
				if plan.probes[dm] {
					continue // half-open probes get exactly one copy
				}
				t.store.Stats.Hedges.Inc()
				issue(dm)
			}
		case <-pctx.Done():
			if errors.Is(pctx.Err(), context.DeadlineExceeded) {
				// The budget ran out: each copy still silent is a timeout.
				for i, n := range copies {
					for ; n > 0; n-- {
						board.observe(spec.targets[i], false)
					}
				}
			}
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
	for _, dm := range spec.targets {
		switch {
		case col.granted[dm]:
			if spec.isWrite {
				t.touchWrite(dm)
			} else {
				t.touch(dm)
			}
			if won && !spec.isWrite && !win.Contains(dm) && !col.held[dm] {
				t.store.Stats.ExtraLockReleases.Inc()
				t.store.client.Notify(dm, ReleaseReq{Txn: t.id, Item: spec.item, Seq: spec.seq})
			}
		case col.outstanding(dm):
			t.touchTentative(dm)
			t.store.client.Notify(dm, ReleaseReq{Txn: t.id, Item: spec.item, Seq: spec.seq})
		}
	}
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
