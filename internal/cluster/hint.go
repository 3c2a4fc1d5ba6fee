package cluster

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// Freshness hints: the read-dominant fast lane (DESIGN.md §9).
//
// A replica holds a per-item hint asserting that its committed (vn, gen)
// is the cluster maximum. While the hint is live — unexpired, still
// matching the replica's committed state, no writer in flight — the
// replica may serve a read alone, without a read quorum. The quorum
// intersection a single-replica read bypasses is restored by the write
// fence: before its commit point, a writer revokes the hint at every
// replica of each written item, and a fence that finds another
// transaction's lock (a hinted reader mid-transaction) is refused until
// that reader resolves — exactly the conflict the read quorum would have
// surfaced.
//
// Hints are soft state on both sides. DMs never log or snapshot them:
// after amnesia a replica proves freshness again (a commit it applies, or
// the sweeper's unanimous inspection) before serving alone. Clients cache
// at most one target replica per item and treat every miss as a free
// fallback to the quorum path.

// itemHint is one replica-side freshness bound.
type itemHint struct {
	vn     int
	gen    int
	expiry time.Time
}

// hintFence records the revocation a writer stamped on an item: who fenced
// and when. While the stamp is fresher than one hint TTL, grants are
// refused — except the fencing transaction's own commit, which IS the
// event the fence was protecting and may re-prove freshness immediately.
// The owner matters: a commit that arrives late, after a DIFFERENT writer
// fenced the item, must not re-grant (that writer is about to install a
// newer version at replicas this one may not be part of).
type hintFence struct {
	txn TxnID
	at  time.Time
}

// grantHint installs a freshness hint for item at the replica's current
// committed state — called at commit-apply, for each replica whose
// committed (vn, gen) the commit advanced: such a replica holds the newest
// committed version, the cluster maximum by write-lock serialization. A
// fresh fence stamped by a different transaction refuses the grant: this
// commit arrived late, after a newer writer already fenced, and the state
// it installed is about to be superseded at replicas it cannot see.
func (s *dmServer) grantHint(item string, r *replica, by TxnID) {
	if s.hintTTL <= 0 {
		return
	}
	now := s.clock.Now()
	if f, ok := s.hintFences[item]; ok && f.txn != by.Top() && now.Sub(f.at) < s.hintTTL {
		return
	}
	delete(s.hintFences, item)
	s.hints[item] = itemHint{vn: r.VN, gen: r.Gen, expiry: now.Add(s.hintTTL)}
}

// fenceHintLocal revokes item's hint and stamps the fence window for the
// writing transaction. Called from apply when a write lock is granted (the
// write-quorum members' fence rides the lock grant itself) and from the
// explicit HintFenceReq the writer sends to the remaining replicas. The
// stamp is soft state: a replay rebuilds an empty hint table, which is
// strictly safer.
func (s *dmServer) fenceHintLocal(item string, by TxnID) {
	if s.hintTTL <= 0 {
		return
	}
	delete(s.hints, item)
	s.hintFences[item] = hintFence{txn: by.Top(), at: s.clock.Now()}
}

// hintMiss is the one hint-validity walk: why the replica may not serve item
// alone right now, or "" while its hint is live — armed, present, unexpired,
// still matching the committed (vn, gen), and no writer in flight (read
// locks are compatible: they cannot change the value). A hint found expired
// or stale is dropped on the way. The reason is diagnostic only.
func (s *dmServer) hintMiss(item string, r *replica) string {
	if s.hintTTL <= 0 {
		return "disabled"
	}
	h, ok := s.hints[item]
	switch {
	case !ok:
		return "none"
	case s.clock.Now().After(h.expiry):
		delete(s.hints, item)
		return "expired"
	case h.vn != r.VN || h.gen != r.Gen:
		delete(s.hints, item)
		return "stale"
	case r.writerInFlight():
		return "writer"
	}
	return ""
}

// hintCheck validates a HintReadReq: the request's own two refusals — the
// item moved away (or was never hosted), the client believes another
// configuration generation — around the shared walk. On success it returns
// the equivalent ReadReq — the caller feeds it through the ordinary apply
// path, so the fast lane grants a real read lock, stamps a real lease, and
// logs a real WAL record; a replay never consults hint state. On failure it
// returns the HintMissResp to answer with.
func (s *dmServer) hintCheck(q HintReadReq) (ReadReq, *HintMissResp) {
	var reason string
	r := s.Replicas[q.Item]
	if _, moved := s.Moved[q.Item]; moved {
		// Retired after a migration: the quorum path the miss forces will
		// hit the moved marker and absorb the WrongShard redirect.
		reason = "moved"
	} else if r == nil {
		reason = "unknown-item"
	} else if reason = s.hintMiss(q.Item, r); reason == "" && q.Gen != r.Gen {
		reason = "gen"
	}
	if reason != "" {
		return ReadReq{}, &HintMissResp{DM: s.id, Reason: reason}
	}
	return ReadReq{Txn: q.Txn, Item: q.Item, Lock: LockRead, Seq: q.Seq, Gen: q.Gen}, nil
}

// coordinateHints handles the hint-maintenance messages that never touch
// the replicated state machine: sweeper grants and write fences. Both are
// soft state, so like lease coordination they are never logged or
// replayed.
func (s *dmServer) coordinateHints(req any) (resp any, handled bool) {
	switch q := req.(type) {
	case HintGrantReq:
		r := s.Replicas[q.Item]
		if r == nil || s.hintTTL <= 0 {
			return Ack{OK: false}, true
		}
		// Conditional accept: the grant proves (vn, gen) was the unanimous
		// committed state when the sweeper looked; accept only while that is
		// still this replica's state, no transaction holds any lock or
		// intention here, and no write fence is fresh — any of those means a
		// writer moved between inspection and delivery.
		if q.VN != r.VN || q.Gen != r.Gen || len(r.Locks) > 0 || len(r.Intents) > 0 {
			return Ack{OK: false}, true
		}
		now := s.clock.Now()
		if f, ok := s.hintFences[q.Item]; ok && now.Sub(f.at) < s.hintTTL {
			// A writer fenced after the sweeper's inspection: its commit may
			// already be applied elsewhere with a version this replica has not
			// seen, so the inspected unanimity is no longer evidence.
			return Ack{OK: false}, true
		}
		s.hints[q.Item] = itemHint{vn: r.VN, gen: r.Gen, expiry: now.Add(s.hintTTL)}
		return Ack{OK: true}, true
	case HintFenceReq:
		r := s.Replicas[q.Item]
		if r == nil || s.hintTTL <= 0 {
			return WriteResp{OK: true}, true
		}
		// Revoke first, verdict second: even a refused fence stops new
		// hinted reads immediately.
		s.fenceHintLocal(q.Item, q.Txn)
		for holder := range r.Locks {
			if holder.Top() != q.Txn.Top() {
				// Another transaction — possibly a hinted reader that holds
				// only this replica's lock — is still in flight on the item.
				// The writer must wait it out exactly as quorum intersection
				// would have made it; the refusal names expired-lease holders
				// (a crashed reader) for the writer to resolve.
				return WriteResp{Busy: true, Orphans: s.expiredHolders(r, q.Txn)}, true
			}
		}
		return WriteResp{OK: true}, true
	}
	return nil, false
}

// --- client side ---

// hintTarget is the client's cached fast-lane target for one item.
type hintTarget struct {
	dm     string
	gen    int
	expiry time.Time
}

// hintCache is the client-side map of items to hinted replicas. Guarded by
// its own mutex: the fan-out's response folding updates it concurrently.
// epoch is the placement-ring epoch the cache was last valid for; every
// advance clears the cache wholesale (setEpoch).
type hintCache struct {
	mu      sync.Mutex
	epoch   int
	targets map[string]hintTarget
}

// setEpoch invalidates the cache when the placement ring advances: every
// cached target was learned under the old placement, and a hint that
// survives a migration points a single-replica read at a retired replica.
// Clearing wholesale is cheap and total — ring epochs advance only on
// membership changes and cutovers, never on the data path.
func (c *hintCache) setEpoch(e int) {
	c.mu.Lock()
	if e > c.epoch {
		c.epoch = e
		c.targets = nil
	}
	c.mu.Unlock()
}

// note caches dm as item's fast-lane target.
func (c *hintCache) note(item, dm string, gen int, expiry time.Time) {
	c.mu.Lock()
	if c.targets == nil {
		c.targets = map[string]hintTarget{}
	}
	c.targets[item] = hintTarget{dm: dm, gen: gen, expiry: expiry}
	c.mu.Unlock()
}

// get returns the cached target if it is unexpired and was learned under
// the given configuration generation.
func (c *hintCache) get(item string, gen int, now time.Time) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.targets[item]
	if !ok || t.gen != gen || now.After(t.expiry) {
		if ok {
			delete(c.targets, item)
		}
		return "", false
	}
	return t.dm, true
}

// drop forgets item's cached target (after a miss or a transport error).
func (c *hintCache) drop(item string) {
	c.mu.Lock()
	delete(c.targets, item)
	c.mu.Unlock()
}

// noteHintTarget records a fast-lane target learned from a Hinted
// quorum-read reply or a sweeper grant round.
func (s *Store) noteHintTarget(item, dm string, gen int) {
	if s.opts.readLeaseTTL <= 0 {
		return
	}
	s.hintCache.note(item, dm, gen, s.now().Add(s.opts.readLeaseTTL))
}

// HintTarget exposes the cached fast-lane target for harnesses (the chaos
// scheduler partitions exactly the replica the next hinted read would
// use). Second result false when no live target is cached.
func (s *Store) HintTarget(item string) (string, bool) {
	return s.hintCache.get(item, s.config(item).gen, s.now())
}

// tryHintRead attempts the single-replica fast lane: one HintReadReq to
// the cached target. ok=false means fall through to the quorum path — the
// fast lane never surfaces an error, because every failure mode (miss,
// conflict, dead replica, no cache entry) is answered authoritatively by
// a quorum read.
func (t *Txn) tryHintRead(ctx context.Context, item string) (readResult, bool) {
	s := t.store
	believed := s.config(item)
	dm, ok := s.hintCache.get(item, believed.gen, s.now())
	if !ok {
		return readResult{}, false
	}
	if s.health.suspect(dm) {
		// The planner's steering applies to the fast lane too: a suspect
		// target gets no solo read — the quorum fan-out probes it instead.
		return readResult{}, false
	}
	s.Stats.HintReads.Inc()
	seq := t.nextSeq()
	raw, err := s.callDM(ctx, dm, HintReadReq{Txn: t.id, Item: item, Seq: seq, Gen: believed.gen})
	if errors.Is(err, errNoBudget) {
		return readResult{}, false
	}
	if err != nil {
		// The request may have granted before the reply was lost: tombstone
		// the phase (late copies must not re-grant) and keep the DM on the
		// transaction's tentative control list, exactly like an abandoned
		// fan-out copy.
		t.touchTentative(dm)
		s.client.Notify(dm, ReleaseReq{Txn: t.id, Item: item, Seq: seq})
		s.hintCache.drop(item)
		s.Stats.HintMisses.Inc()
		return readResult{}, false
	}
	switch resp := raw.(type) {
	case ReadResp:
		if resp.OK {
			t.touch(dm)
			s.Stats.HintHits.Inc()
			// The replica matched believed.gen, so it sent no configuration.
			return readResult{vn: resp.VN, val: resp.Val, gen: believed.gen, cfg: believed.cfg}, true
		}
		// Busy (a conflicting writer) or refused (resolved/tombstoned):
		// the quorum path owns conflict arbitration and backoff.
		s.Stats.HintMisses.Inc()
		return readResult{}, false
	case HintMissResp:
		s.hintCache.drop(item)
		s.Stats.HintMisses.Inc()
		return readResult{}, false
	case WrongShardResp:
		// The cached target retired the item since the hint was primed.
		// Adopt the redirect (which also drops the stale cache entry) and
		// let the quorum path re-read under the new placement.
		s.Stats.WrongShardRedirects.Inc()
		s.adoptRedirect(resp)
		s.Stats.HintMisses.Inc()
		return readResult{}, false
	default:
		// Overloaded or unexpected: fall back, the quorum path classifies.
		s.Stats.HintMisses.Inc()
		return readResult{}, false
	}
}

// noteWrittenItem records an item this transaction buffered a write for;
// the pre-commit fence must revoke hints at every replica of each one.
func (t *Txn) noteWrittenItem(item string) {
	t.mu.Lock()
	if t.wroteItems == nil {
		t.wroteItems = map[string]bool{}
	}
	t.wroteItems[item] = true
	t.mu.Unlock()
}

// primeHintTargets is the write-through cache note: after its own commit,
// a writer already knows where freshness lives — every write-quorum
// replica that acked the commit applied the final version and
// self-granted a hint (the Final match in CommitTopReq handling). Priming
// the fast-lane cache with one such replica per written item lets the
// writer's next read go hinted immediately instead of relearning the
// target through a full quorum round — exactly the read that would
// otherwise always be a fallback. The note is only a guess (a replica
// holding an earlier version of a multi-write item carries no hint and
// answers with a miss), so a wrong prime costs one fallback, never
// correctness.
func (t *Txn) primeHintTargets(missing []string) {
	s := t.store
	if s.opts.readLeaseTTL <= 0 {
		return
	}
	skip := make(map[string]bool, len(missing))
	for _, dm := range missing {
		skip[dm] = true
	}
	t.mu.Lock()
	items := make([]string, 0, len(t.wroteVNs))
	for item := range t.wroteVNs {
		items = append(items, item)
	}
	touched := make(map[string]touchLevel, len(t.touched))
	for dm, lvl := range t.touched {
		touched[dm] = lvl
	}
	t.mu.Unlock()
	for _, item := range items {
		it, ok := s.itemSpec(item)
		if !ok {
			continue
		}
		for _, dm := range it.DMs {
			if skip[dm] || touched[dm] < touchWritten {
				continue
			}
			s.noteHintTarget(item, dm, s.config(item).gen)
			break
		}
	}
}

// noteWrittenVN records the version number a successful write phase
// installed for item. Writes overwrite monotonically within one
// transaction tree (each picks read-quorum max + 1 under the tree's write
// locks), so the last note is the final version; max keeps the record
// correct even so. Kept separately from wroteItems: wroteItems takes in
// aborted children too (over-fencing is harmless), while finalVNs must
// reflect only writes that reach the commit, so it merges only when a
// child commits (Txn.adopt).
func (t *Txn) noteWrittenVN(item string, vn int) {
	t.mu.Lock()
	if t.wroteVNs == nil {
		t.wroteVNs = map[string]int{}
	}
	if vn > t.wroteVNs[item] {
		t.wroteVNs[item] = vn
	}
	t.mu.Unlock()
}

// finalVNs snapshots the transaction tree's committed final version per
// written item, for the commit broadcast. Nil when nothing was written.
func (t *Txn) finalVNs() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.wroteVNs) == 0 {
		return nil
	}
	out := make(map[string]int, len(t.wroteVNs))
	for item, vn := range t.wroteVNs {
		out[item] = vn
	}
	return out
}

// writtenItems snapshots the transaction's written-item set, sorted.
func (t *Txn) writtenItems() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.wroteItems))
	for item := range t.wroteItems {
		out = append(out, item)
	}
	sort.Strings(out)
	return out
}

// fenceHints is the write fence: after the lease fence and before the
// commit point, revoke the freshness hint at every replica of every item
// this transaction wrote. A replica that refuses (another transaction's
// lock — a hinted reader still mid-flight) is retried and, if it keeps
// refusing, fails the fence as a lock conflict: the writer waits for the
// reader exactly as quorum intersection would have made it — after
// resolving any holder the refusal named as an orphan.
//
// A replica the fence cannot reach at all cannot be revoked, only
// outwaited: under the wall clock the fence blocks until one full hint TTL
// has passed since it started, by which point any hint the unreachable
// replica held has expired. Under a manual clock (deterministic
// harnesses) time cannot pass mid-round, so the miss is counted and the
// commit proceeds — the harness's round-boundary TTL advances expire the
// hint before the partition heals, and the serializability checker gates
// exactly that discipline.
func (t *Txn) fenceHints(ctx context.Context) error {
	s := t.store
	st := s.opts
	if st.readLeaseTTL <= 0 {
		return nil
	}
	items := t.writtenItems()
	if len(items) == 0 {
		return nil
	}
	type target struct{ dm, item string }
	var targets []target
	for _, item := range items {
		it, ok := s.itemSpec(item)
		if !ok {
			continue
		}
		for _, dm := range it.DMs {
			targets = append(targets, target{dm: dm, item: item})
		}
	}
	start := s.now()
	const fenceRetries = 4
	refused := make([]bool, len(targets))
	unreached := make([]bool, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt target) {
			defer wg.Done()
			for attempt := 0; attempt <= fenceRetries; attempt++ {
				raw, err := s.callDM(ctx, tgt.dm, HintFenceReq{Txn: t.id, Item: tgt.item})
				unreached[i] = err != nil
				if err != nil {
					// A transport failure (or a dead caller) is not retried
					// here: the replica is down or partitioned, and the TTL
					// wait below is the only sound revocation for it.
					return
				}
				resp, ok := raw.(WriteResp)
				refused[i] = !ok || !resp.OK
				if !refused[i] {
					return
				}
				s.resolveAll(ctx, resp.Orphans)
				s.backoff(ctx, attempt)
			}
		}(i, tgt)
	}
	wg.Wait()
	misses := 0
	for i := range targets {
		if refused[i] {
			// A live lock refused the fence past the retry budget: surface it
			// as the lock conflict it is, so Run aborts and restarts.
			return &ConflictError{Item: targets[i].item, Txn: t.id, Phase: "hint-fence", Attempts: fenceRetries + 1}
		}
		if unreached[i] {
			misses++
		}
	}
	if misses == 0 {
		s.Stats.HintFences.Inc()
		return nil
	}
	s.Stats.HintFenceMisses.Add(int64(misses))
	if st.clock == transport.Wall {
		// Wait out the unreachable holders' hints: sleep the residual TTL
		// (measured from fence start, so reachable-replica round trips count
		// toward it).
		if remaining := st.readLeaseTTL - s.now().Sub(start); remaining > 0 {
			timer := time.NewTimer(remaining)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		}
	}
	s.Stats.HintFences.Inc()
	return nil
}
