package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestCollectorStateMachine drives the pure fan-out collector through the
// scenarios the concurrent loop produces, table-driven.
func TestCollectorStateMachine(t *testing.T) {
	maj := quorum.Majority([]string{"a", "b", "c", "d", "e"})
	grant := func(dm string) func(c *collector) {
		return func(c *collector) { c.reply(dm, true, false, false, memberResp{dm: dm}) }
	}
	busy := func(dm string) func(c *collector) {
		return func(c *collector) { c.reply(dm, false, true, false, memberResp{dm: dm}) }
	}
	refuse := func(dm string) func(c *collector) {
		return func(c *collector) { c.reply(dm, false, false, false, memberResp{dm: dm}) }
	}
	cases := []struct {
		name     string
		quorums  []quorum.Set
		events   []func(c *collector)
		wantDone bool
		wantBusy bool
		wantDups int
	}{
		{
			name:     "quorum completes with minority stragglers silent",
			quorums:  maj.R,
			events:   []func(c *collector){grant("a"), grant("c"), grant("e")},
			wantDone: true,
		},
		{
			name:     "two grants of five are not a majority",
			quorums:  maj.R,
			events:   []func(c *collector){grant("a"), grant("b")},
			wantDone: false,
		},
		{
			name:     "busy replies never form a quorum",
			quorums:  maj.R,
			events:   []func(c *collector){grant("a"), busy("b"), busy("c"), grant("d")},
			wantDone: false,
			wantBusy: true,
		},
		{
			name:    "hedged duplicate responses are deduplicated",
			quorums: maj.R,
			events: []func(c *collector){
				grant("a"), grant("a"), grant("b"), grant("b"), grant("c"),
			},
			wantDone: true,
			wantDups: 2,
		},
		{
			name:     "grant after busy upgrades the member",
			quorums:  []quorum.Set{quorum.NewSet("a", "b")},
			events:   []func(c *collector){busy("a"), grant("b"), grant("a")},
			wantDone: true,
			wantBusy: true,
			wantDups: 1,
		},
		{
			name:     "outright refusals cover nothing",
			quorums:  []quorum.Set{quorum.NewSet("a")},
			events:   []func(c *collector){refuse("a")},
			wantDone: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCollector(tc.quorums)
			for _, dm := range union(tc.quorums) {
				c.issue(dm)
			}
			for _, ev := range tc.events {
				ev(c)
			}
			if c.done() != tc.wantDone {
				t.Errorf("done() = %v, want %v", c.done(), tc.wantDone)
			}
			if c.sawBusy() != tc.wantBusy {
				t.Errorf("sawBusy() = %v, want %v", c.sawBusy(), tc.wantBusy)
			}
			if c.dups != tc.wantDups {
				t.Errorf("dups = %d, want %d", c.dups, tc.wantDups)
			}
		})
	}
}

func TestCollectorWinnerIsSmallestCoveredQuorum(t *testing.T) {
	small := quorum.NewSet("a", "b")
	large := quorum.NewSet("a", "c", "d")
	c := newCollector([]quorum.Set{large, small})
	for _, dm := range []string{"a", "b", "c", "d"} {
		c.issue(dm)
		c.reply(dm, true, false, false, memberResp{dm: dm})
	}
	win, ok := c.winner()
	if !ok || len(win) != 2 || !win.Contains("a") || !win.Contains("b") {
		t.Errorf("winner = %v, want the 2-member quorum", win)
	}
}

func TestCollectorHedgeTargets(t *testing.T) {
	c := newCollector([]quorum.Set{quorum.NewSet("a", "b", "c")})
	targets := []string{"a", "b", "c"}
	for _, dm := range targets {
		c.issue(dm)
	}
	c.reply("a", true, false, false, memberResp{dm: "a"})
	c.reply("b", false, true, false, memberResp{dm: "b"})
	// Only the silent DM is worth hedging; a and b answered.
	if got := c.hedgeTargets(targets, 3); len(got) != 1 || got[0] != "c" {
		t.Errorf("hedgeTargets = %v, want [c]", got)
	}
	// The per-replica copy cap stops further hedges.
	c.issue("c")
	c.issue("c")
	if got := c.hedgeTargets(targets, 3); len(got) != 0 {
		t.Errorf("hedgeTargets past cap = %v, want none", got)
	}
	if !c.outstanding("c") {
		t.Error("c has unanswered copies and must be outstanding")
	}
	if c.outstanding("a") {
		t.Error("a answered its only copy and must not be outstanding")
	}
}

// strideCluster builds a 5-DM majority cluster with the given options and
// a per-node latency override applied to dm4 — the straggler.
func stragglerCluster(t *testing.T, seed int64, opts ...Option) (*Store, *sim.Network, []string) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: seed})
	net.SetNodeLatency("dm4", 30*time.Millisecond, 40*time.Millisecond)
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, append([]Option{WithSeed(seed), WithCallTimeout(100 * time.Millisecond)}, opts...)...)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	return store, net, dms
}

// TestFanoutCompletesDespiteStraggler: the straggler's latency exceeds the
// fast replicas' by two orders of magnitude. A phase whose first quorum
// holds it waits one hedge delay, widens to the fast replicas and completes
// without it; each such wait charges the straggler one miss, and after
// failThreshold misses in a row it is a suspect no first quorum holds.
func TestFanoutCompletesDespiteStraggler(t *testing.T) {
	store, net, _ := stragglerCluster(t, 41)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 10; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	// The straggler needs ≥ 60ms round trip; a phase that waited for it
	// would have taken that long, not one hedge delay and a fast answer.
	bound := store.opts.hedgeDelay + 25*time.Millisecond
	for phase, h := range map[string]*metrics.Histogram{
		"read": &store.Stats.ReadPhaseLatency, "write": &store.Stats.WritePhaseLatency,
	} {
		if max := h.Snapshot().Max; max > bound {
			t.Errorf("slowest %s phase took %v, want at most %v: it waited for the straggler", phase, max, bound)
		}
	}
	if store.Stats.Widenings.Value() == 0 {
		t.Error("no phase widened past a first quorum holding the straggler")
	}
	var dm4 ReplicaHealth
	for _, h := range store.Health() {
		if h.DM == "dm4" {
			dm4 = h
		}
	}
	if !dm4.Suspect || dm4.Failures < defaultFailThreshold || dm4.Successes != 0 {
		t.Errorf("straggler after 20 phases: %+v, want a suspect charged >= %d misses", dm4, defaultFailThreshold)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err == nil && v != 10 {
			t.Errorf("read %v, want 10", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// quorumCluster opens a 5-replica majority cluster of "x" whose calls are
// counted per request kind. Hedging is off, so no scheduler hiccup can
// widen a phase: a phase asks exactly its first quorum unless a member
// refuses or fails.
func quorumCluster(t *testing.T, seed int64, opts ...Option) (*Store, func(kind string) int64) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: seed})
	var mu sync.Mutex
	calls := map[string]int64{}
	tap := tapTransport{Transport: net, onCall: func(_ string, req any) bool {
		mu.Lock()
		calls[fmt.Sprintf("%T", req)]++
		mu.Unlock()
		return false
	}}
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(tap, items, append([]Option{
		WithSeed(seed), WithCallTimeout(time.Second), WithHedgeDelay(0),
		WithClock(sim.NewManualClock(time.Unix(0, 0))),
	}, opts...)...)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close(); net.Close() })
	return store, func(kind string) int64 {
		mu.Lock()
		defer mu.Unlock()
		return calls["cluster."+kind]
	}
}

// TestPhaseAsksOneQuorum: on a healthy 5-replica cluster a phase asks one
// majority, not all five — a read sends exactly 3 ReadReqs, a write's two
// phases 3 ReadReqs and 3 WriteReqs — so no grant is surplus and no lock is
// released early.
func TestPhaseAsksOneQuorum(t *testing.T) {
	store, calls := quorumCluster(t, 48)
	ctx := context.Background()
	for i := 1; i <= 4; i++ {
		reads, writes := calls("ReadReq"), calls("WriteReq")
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
		if r, w := calls("ReadReq")-reads, calls("WriteReq")-writes; r != 3 || w != 3 {
			t.Fatalf("write %d sent %d ReadReq and %d WriteReq, want 3 and 3", i, r, w)
		}
		reads = calls("ReadReq")
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Sub(ctx, func(sub *Txn) error {
				v, err := sub.Read(ctx, "x")
				if err == nil && v != i {
					t.Errorf("read %v, want %d", v, i)
				}
				return err
			})
		}); err != nil {
			t.Fatal(err)
		}
		if r := calls("ReadReq") - reads; r != 3 {
			t.Fatalf("read %d sent %d ReadReq, want 3", i, r)
		}
	}
	if n := store.Stats.ExtraLockReleases.Value(); n != 0 {
		t.Fatalf("%d surplus read locks released, want none", n)
	}
	if n := store.Stats.Widenings.Value(); n != 0 {
		t.Fatalf("%d phases widened on a healthy cluster, want none", n)
	}
}

// TestBusyWidensWithinThePhase: a foreign write lock at dm0 makes it answer
// Busy whenever a first quorum holds it. The phase widens at once to the
// other replicas, which still cover a majority, and completes on that same
// attempt: every transaction runs exactly one read phase and one write
// phase.
func TestBusyWidensWithinThePhase(t *testing.T) {
	store, _ := quorumCluster(t, 49, WithTxnRetries(0))
	ctx := context.Background()
	raw, err := store.client.Call(ctx, "dm0", WriteReq{Txn: "zz.t1", Item: "x", VN: 999, Val: 0, Seq: 1})
	if wr, ok := raw.(WriteResp); err != nil || !ok || !wr.OK {
		t.Fatalf("plant blocker at dm0: %#v, %v", raw, err)
	}
	const txns = 5
	for i := 1; i <= txns; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatalf("write %d with dm0 locked: %v", i, err)
		}
	}
	if store.Stats.BusyRetries.Value() == 0 || store.Stats.Widenings.Value() == 0 {
		t.Fatalf("busy answers %d, widenings %d: no first quorum held dm0",
			store.Stats.BusyRetries.Value(), store.Stats.Widenings.Value())
	}
	if r, w := store.Stats.ReadPhaseLatency.Count(), store.Stats.WritePhaseLatency.Count(); r != txns || w != txns {
		t.Fatalf("%d read and %d write phases for %d writes: a Busy cost a retry", r, w, txns)
	}
}

// TestHedgingResendsToSilentReplica: with aggressive hedging and every
// fast replica's first copy beaten by the hedge timer, duplicate copies
// are issued and their responses deduplicated without disturbing results.
func TestHedgingResendsToSilentReplica(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	// All replicas answer slower than the hedge delay, so every phase
	// hedges at least once.
	net := sim.NewNetwork(sim.Config{MinLatency: 2 * time.Millisecond, MaxLatency: 3 * time.Millisecond, Seed: 42})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items,
		WithSeed(42),
		WithCallTimeout(200*time.Millisecond),
		WithHedgeDelay(time.Millisecond),
	)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	v := 0
	if err := store.Run(ctx, func(tx *Txn) error {
		got, err := ReadAs[int](ctx, tx, "x")
		v = got
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Errorf("read %d after hedged writes, want 4", v)
	}
	if store.Stats.Hedges.Value() == 0 {
		t.Error("expected hedged request copies under slow uniform latency")
	}
}

// TestExtraReadLocksReleased: a read fan-out over five replicas grants at
// more members than the majority needs; the extras must be released while
// the transaction still runs, observable via Inspect lock counts. The read
// runs in a subtransaction, where it locks: a top-level first read takes no
// lock at all.
func TestExtraReadLocksReleased(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 10 * time.Microsecond, MaxLatency: 100 * time.Microsecond, Seed: 43})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, WithSeed(43), WithCallTimeout(50*time.Millisecond))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	err = store.Run(ctx, func(tx *Txn) error {
		return tx.Sub(ctx, func(sub *Txn) error {
			if _, err := sub.Read(ctx, "x"); err != nil {
				return err
			}
			// The fan-out returns at the third grant; the other two replicas
			// are either extras (released) or outstanding (tombstoned), so
			// once the dust settles exactly the winning majority holds locks.
			deadline := time.Now().Add(2 * time.Second)
			for {
				total := 0
				for _, dm := range dms {
					resp, err := store.Inspect(ctx, dm, "x")
					if err != nil {
						return err
					}
					total += resp.Locks
				}
				// The winning majority holds exactly 3 locks; extras must be
				// gone while the transaction is still open.
				if total == 3 {
					return nil
				}
				if time.Now().After(deadline) {
					t.Errorf("lock count stuck at %d, want 3 (extras not released)", total)
					return nil
				}
				time.Sleep(time.Millisecond)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanoutCancellationOnContextTimeout: with every replica crashed, a
// read must fail promptly when its context expires rather than sleeping
// through the full retry budget.
func TestFanoutCancellationOnContextTimeout(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 44})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, WithSeed(44))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	for _, dm := range dms {
		net.Crash(dm)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = store.Run(ctx, func(tx *Txn) error {
		_, err := tx.Read(ctx, "x")
		return err
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read of a fully crashed cluster must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want deadline or unavailable", err)
	}
	if elapsed > time.Second {
		t.Errorf("failed after %v; cancellation did not propagate", elapsed)
	}
}

// TestPartitionSurfacesUnavailableError: when no quorum is reachable the
// structured *UnavailableError surfaces with the item, phase, and the
// replicas that did answer.
func TestPartitionSurfacesUnavailableError(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 45})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items,
		WithSeed(45), WithCallTimeout(5*time.Millisecond),
		WithLockRetries(1), WithTxnRetries(0))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	// Cut the client off from a majority.
	for _, dm := range dms[:3] {
		net.Disconnect(store.client.ID(), dm)
	}
	err = store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 9) })
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("errors.Is(ErrUnavailable) must hold, got %v", err)
	}
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnavailableError in chain, got %v", err)
	}
	if ue.Item != "x" || ue.Phase != "read" {
		t.Errorf("UnavailableError = %+v, want item x, phase read", ue)
	}
	if len(ue.Missing) < 3 {
		t.Errorf("Missing = %v, want the three unreachable DMs", ue.Missing)
	}
	for _, dm := range ue.Responded {
		if dm == "dm0" || dm == "dm1" || dm == "dm2" {
			t.Errorf("unreachable DM %s listed as responded", dm)
		}
	}
}

// TestConflictErrorDetail: a held write lock on another client's
// transaction surfaces as *ConflictError with attempt counts.
func TestConflictErrorDetail(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 46})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	a, err := Open(net, items, WithSeed(46), WithCallTimeout(10*time.Millisecond))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	b, err := OpenClient(net, items,
		WithSeed(47), WithCallTimeout(10*time.Millisecond),
		WithLockRetries(2), WithTxnRetries(0))
	if err != nil {
		a.Close()
		net.Close()
		t.Fatal(err)
	}
	defer func() { b.Close(); a.Close(); net.Close() }()
	ctx := context.Background()

	blocked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- a.Run(ctx, func(tx *Txn) error {
			if err := tx.Write(ctx, "x", 1); err != nil {
				return err
			}
			close(blocked) // write locks held at a quorum
			<-release
			return nil
		})
	}()
	<-blocked
	err = b.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 2) })
	close(release)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("errors.Is(ErrConflict) must hold, got %v", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConflictError in chain, got %v", err)
	}
	if ce.Item != "x" || ce.Attempts < 3 {
		t.Errorf("ConflictError = %+v, want item x with >= 3 attempts", ce)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// tapTransport decorates a transport so a test can watch every request a
// client sends and pick requests that land at their DM while the caller
// hears transport.ErrLost — the lost-reply fate a real network deals out —
// or notifies the network eats.
type tapTransport struct {
	transport.Transport
	// onCall, when set, sees each outgoing call before it is sent; returning
	// true loses the reply after the request was served.
	onCall func(to string, req any) (loseReply bool)
	// onNotify, when set, sees each outgoing notify; returning true drops it.
	onNotify func(to string, req any) (drop bool)
}

func (tt tapTransport) Client(id string) (transport.Client, error) {
	c, err := tt.Transport.Client(id)
	return tapClient{Client: c, tap: tt}, err
}

type tapClient struct {
	transport.Client
	tap tapTransport
}

func (c tapClient) Call(ctx context.Context, to string, req any) (any, error) {
	lose := c.tap.onCall != nil && c.tap.onCall(to, req)
	resp, err := c.Client.Call(ctx, to, req)
	if err == nil && lose {
		return nil, transport.ErrLost
	}
	return resp, err
}

func (c tapClient) Notify(to string, req any) {
	if c.tap.onNotify == nil || !c.tap.onNotify(to, req) {
		c.Client.Notify(to, req)
	}
}

// TestSequentialPhaseSweepsLostGrant: a ReadReq lands at its DM and grants,
// but the reply is lost, so the one-quorum-at-a-time plan fails and the
// transaction aborts. The DM the client never heard from may hold a lock:
// it must stay on the transaction's control list so the abort reaches it.
// The read runs in a subtransaction, where it locks.
func TestSequentialPhaseSweepsLostGrant(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 61})
	var lost atomic.Int32
	tap := tapTransport{Transport: net, onCall: func(to string, req any) bool {
		_, isRead := req.(ReadReq)
		return isRead && to == "dm0" && lost.Add(1) == 1
	}}
	// Read-all: the only read quorum needs dm0, whose grant goes unheard.
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.ReadAllWriteOne(dms)}}
	store, err := Open(tap, items, WithSeed(61), WithSequentialPhases(true), WithHedgeDelay(0),
		WithLockRetries(0), WithTxnRetries(0), WithCallTimeout(25*time.Millisecond))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	var id TxnID
	err = store.Run(ctx, func(tx *Txn) error {
		id = tx.ID()
		return tx.Sub(ctx, func(sub *Txn) error {
			_, rerr := sub.Read(ctx, "x")
			return rerr
		})
	})
	if !errors.Is(err, ErrUnavailable) || lost.Load() == 0 {
		t.Fatalf("read with dm0's grant unheard: %v (lost %d replies), want ErrUnavailable", err, lost.Load())
	}
	net.Quiesce()
	for _, dm := range dms {
		probe, perr := store.ResolutionProbe(ctx, dm, id)
		if perr != nil {
			t.Fatal(perr)
		}
		insp, ierr := store.Inspect(ctx, dm, "x")
		if ierr != nil {
			t.Fatal(ierr)
		}
		if probe.Holds || insp.Locks != 0 {
			t.Errorf("%s still holds a lock of aborted %s (probe %+v, %d locks)", dm, id, probe, insp.Locks)
		}
	}
}
