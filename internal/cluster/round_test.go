package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport"
)

// scriptClient is an AsyncClient whose replicas answer from a script: the
// n-th call to dm gets script(dm, n) at once, or nothing when that is nil —
// a silent replica, whose call ends, as the contract says, with ErrTimeout
// once its deadline passes. It counts the calls each replica got and the
// notifies sent.
type scriptClient struct {
	script func(dm string, n int) any

	mu       sync.Mutex
	calls    map[string]int
	notifies int
}

func (c *scriptClient) ID() string { return "script" }
func (c *scriptClient) Close()     {}

func (c *scriptClient) Call(ctx context.Context, to string, req any) (any, error) {
	done := make(chan transport.Reply, 1)
	deadline, _ := ctx.Deadline()
	c.Go(deadline, to, req, 0, done)
	select {
	case r := <-done:
		return r.Resp, r.Err
	case <-ctx.Done():
		return nil, transport.ErrTimeout
	}
}

func (c *scriptClient) Go(deadline time.Time, to string, _ any, tag int, done chan<- transport.Reply) {
	c.mu.Lock()
	n := c.calls[to]
	c.calls[to]++
	c.mu.Unlock()
	if answer := c.script(to, n); answer != nil {
		done <- transport.Reply{Tag: tag, Resp: answer}
		return
	}
	if !deadline.IsZero() {
		time.AfterFunc(time.Until(deadline), func() { done <- transport.Reply{Tag: tag, Err: transport.ErrTimeout} })
	}
}

func (c *scriptClient) Notify(string, any) {
	c.mu.Lock()
	c.notifies++
	c.mu.Unlock()
}

func (c *scriptClient) sent(dm string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[dm]
}

// scriptTransport hands out its one scripted client and serves nothing.
type scriptTransport struct{ c *scriptClient }

func (scriptTransport) Serve(string, transport.Handler, ...transport.ServeOption) (transport.Server, error) {
	return nil, errors.New("a script serves nothing")
}
func (st scriptTransport) Client(string) (transport.Client, error) { return st.c, nil }
func (scriptTransport) Quiesce()                                   {}

// scriptStore is a client of a majority item "x" on dms whose replicas
// answer from script; the hedge timer is off, so a phase widens only on a
// refusal or a failed call.
func scriptStore(t *testing.T, dms []string, script func(dm string, n int) any, opts ...Option) (*Store, *scriptClient) {
	t.Helper()
	c := &scriptClient{script: script, calls: map[string]int{}}
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := OpenClient(scriptTransport{c}, items, append([]Option{
		WithSeed(1), WithHedgeDelay(0), WithClock(sim.NewManualClock(time.Unix(0, 0))),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	return store, c
}

// scriptTxn is a top-level transaction of store holding grants at held, so
// a phase's first quorum is the one made of them.
func scriptTxn(store *Store, held ...string) *Txn {
	tx := &Txn{store: store, id: "script.t1", leaseStamp: store.now()}
	tx.root = tx
	for _, dm := range held {
		tx.touch(dm, touchGranted)
	}
	return tx
}

func (b *healthBoard) failuresOf(dm string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := b.nodes[dm]; n != nil {
		return n.failures
	}
	return 0
}

// byName scripts each replica's answer by name; a name it lacks is silent.
func byName(by map[string]any) func(dm string, n int) any {
	return func(dm string, _ int) any { return by[dm] }
}

// TestPhaseBudgetChargesSilentCopies pins the failure detector's rule for
// copies a phase leaves behind: one still silent when the phase budget runs
// out is a timeout and is charged one failure, while one abandoned because
// the phase already won, or because its caller gave up, proves nothing and
// is not charged. An abandoned copy is not cancelled: it stays pending until
// its answer or its deadline, and nothing blocks on what comes back.
func TestPhaseBudgetChargesSilentCopies(t *testing.T) {
	grant, busy := ReadResp{OK: true}, ReadResp{Busy: true}
	read := func(store *Store, tx *Txn) *collector {
		cfg := store.config("x").cfg
		return tx.runPhase(context.Background(), phaseSpec{item: "x", targets: cfg.readTargets, masks: cfg.readMasks,
			req: ReadReq{Txn: tx.id, Item: "x", Lock: LockRead, Seq: 1}, seq: 1})
	}

	t.Run("silent to the budget", func(t *testing.T) {
		// dm1 refuses, so the phase widens to dm2, which never answers.
		store, _ := scriptStore(t, []string{"dm0", "dm1", "dm2"}, byName(map[string]any{"dm0": grant, "dm1": busy}),
			WithCallTimeout(30*time.Millisecond))
		col := read(store, scriptTxn(store, "dm0", "dm1"))
		if col.done() || store.Stats.Widenings.Value() != 1 || col.m[2].issued != 1 {
			t.Fatalf("phase won %v after %d widenings and %d copies to dm2, want a widened copy and no quorum",
				col.done(), store.Stats.Widenings.Value(), col.m[2].issued)
		}
		for dm, want := range map[string]int64{"dm0": 0, "dm1": 0, "dm2": 1} {
			if got := store.health.failuresOf(dm); got != want {
				t.Errorf("%s charged %d failures, want %d", dm, got, want)
			}
		}
	})

	t.Run("abandoned by a won phase", func(t *testing.T) {
		// dm0 refuses, the phase widens to dm3 and dm4, and dm1, dm2, dm3
		// win it while dm4's copy is still out.
		store, _ := scriptStore(t, []string{"dm0", "dm1", "dm2", "dm3", "dm4"},
			byName(map[string]any{"dm0": busy, "dm1": grant, "dm2": grant, "dm3": grant}),
			WithCallTimeout(30*time.Millisecond))
		col := read(store, scriptTxn(store, "dm0", "dm1", "dm2"))
		if !col.done() || col.m[4].issued != 1 || !col.outstanding(4) {
			t.Fatalf("phase won %v with %d copies to dm4, want a win with dm4's copy out", col.done(), col.m[4].issued)
		}
		time.Sleep(50 * time.Millisecond) // past the budget the copy was sent under
		if got := store.health.failuresOf("dm4"); got != 0 {
			t.Errorf("abandoned dm4 charged %d failures, want none", got)
		}
	})

	// On the sim, the transaction holds dm0, dm1 and the straggler dm4, so
	// the first quorum is theirs; the first hedge tick widens to dm2 and dm3,
	// and the phase wins without dm4, whose copy it abandons.
	simRead := func(ctx context.Context, store *Store) (*collector, time.Duration) {
		tx := scriptTxn(store, "dm0", "dm1", "dm4")
		cfg := store.config("x").cfg
		start := time.Now()
		col := tx.runPhase(ctx, phaseSpec{item: "x", targets: cfg.readTargets, masks: cfg.readMasks,
			req: ReadReq{Txn: tx.id, Item: "x", Seq: 1}, seq: 1, lockless: true})
		return col, time.Since(start)
	}
	for _, tc := range []struct {
		name            string
		latency, budget time.Duration
	}{
		{"straggler answers after the phase", 20 * time.Millisecond, 300 * time.Millisecond},
		{"straggler silent past the deadline", 150 * time.Millisecond, 60 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, net, _ := stragglerCluster(t, 43, WithCallTimeout(tc.budget))
			defer func() { store.Close(); net.Close() }()
			net.SetNodeLatency("dm4", tc.latency, tc.latency)
			client := store.client.(*sim.Node)
			col, took := simRead(context.Background(), store)
			if !col.done() || !col.outstanding(4) || took >= tc.latency {
				t.Fatalf("phase won %v in %v with dm4's copy out %v: want a win without waiting for dm4",
					col.done(), took, col.outstanding(4))
			}
			if n := client.Pending(); n == 0 {
				t.Fatal("no copy pending right after the phase: dm4's was cancelled")
			}
			// dm4's copy leaves the table by its answer or by the phase
			// deadline, whichever comes first.
			by := time.Now().Add(min(2*tc.latency, tc.budget) + 50*time.Millisecond)
			for client.Pending() != 0 {
				if time.Now().After(by) {
					t.Fatalf("%d copies still pending past the phase deadline", client.Pending())
				}
				time.Sleep(time.Millisecond)
			}
			// The late answer, if any, lands in the phase's unread channel;
			// nothing blocks on it, and the client goes on serving.
			net.Quiesce()
			if col, _ := simRead(context.Background(), store); !col.done() {
				t.Fatal("the next phase found no quorum")
			}
			// The first tick charged the silent dm4 once; the abandoned copy,
			// answered or expired, adds nothing.
			if got := store.health.failuresOf("dm4"); got != 2 {
				t.Errorf("dm4 charged %d failures over two phases, want one per first tick", got)
			}
		})
	}

	t.Run("parent cancelled mid-phase", func(t *testing.T) {
		// Every replica is slow and the hedge timer is off: the phase is
		// waiting on its first quorum when its caller gives up.
		store, net, dms := stragglerCluster(t, 47, WithHedgeDelay(0), WithCallTimeout(time.Second))
		defer func() { store.Close(); net.Close() }()
		for _, dm := range dms {
			net.SetNodeLatency(dm, 40*time.Millisecond, 40*time.Millisecond)
		}
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel)
		col, took := simRead(ctx, store)
		if col.done() || took >= 40*time.Millisecond {
			t.Fatalf("cancelled phase won %v after %v, want it to return at the cancel", col.done(), took)
		}
		client := store.client.(*sim.Node)
		for by := time.Now().Add(time.Second); client.Pending() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(by) {
				t.Fatalf("%d abandoned copies still pending after their answers were due", client.Pending())
			}
		}
		for _, dm := range dms {
			if got := store.health.failuresOf(dm); got != 0 {
				t.Errorf("%s charged %d failures for a phase its caller gave up", dm, got)
			}
		}
	})
}

// TestRoundRetries pins the one retry round every commit, abort,
// resolution and Paxos call goes through: a refusal is asked again after one
// backoff, a silent DM is asked retries+1 times and reported missing, a
// round without a deadline budget sends nothing, and a round that takes any
// answer retries no refusal.
func TestRoundRetries(t *testing.T) {
	commit := func(tx *Txn) any { return CommitTopReq{Txn: tx.id} }

	t.Run("refused then acked", func(t *testing.T) {
		store, c := scriptStore(t, []string{"dm0", "dm1", "dm2"}, func(_ string, n int) any { return Ack{OK: n > 0} },
			WithRetryBackoff(20*time.Millisecond))
		tx := scriptTxn(store)
		start := time.Now()
		if missing := tx.control(context.Background(), []string{"dm0"}, nil, nil, commit(tx)); missing != nil {
			t.Fatalf("missing %v, want dm0 acked", missing)
		}
		if took := time.Since(start); c.sent("dm0") != 2 || took < 10*time.Millisecond {
			t.Fatalf("dm0 asked %d times in %v, want twice with one backoff (>= 10ms) between", c.sent("dm0"), took)
		}
	})

	t.Run("silent", func(t *testing.T) {
		store, c := scriptStore(t, []string{"dm0", "dm1", "dm2"}, byName(map[string]any{"dm0": Ack{OK: true}}),
			WithLockRetries(2), WithCallTimeout(10*time.Millisecond))
		tx := scriptTxn(store)
		missing := tx.control(context.Background(), []string{"dm0", "dm1"}, []string{"dm2"}, nil, commit(tx))
		if !slices.Equal(missing, []string{"dm1"}) || c.sent("dm0") != 1 || c.sent("dm1") != 3 || c.notifies != 1 {
			t.Fatalf("missing %v after %d calls to dm0, %d to dm1 and %d notifies; want dm1 missing after 1, 3 and 1",
				missing, c.sent("dm0"), c.sent("dm1"), c.notifies)
		}
	})

	t.Run("no budget", func(t *testing.T) {
		store, c := scriptStore(t, []string{"dm0", "dm1", "dm2"}, byName(map[string]any{"dm0": Ack{OK: true}, "dm1": Ack{OK: true}}))
		tx := scriptTxn(store)
		ctx, cancel := context.WithTimeout(context.Background(), hopAllowance/2)
		defer cancel()
		missing := tx.control(ctx, []string{"dm0", "dm1"}, []string{"dm2"}, nil, commit(tx))
		answers, sent := store.call(ctx, round{dms: []string{"dm0"}, req: commit(tx)})
		if len(missing) != 2 || sent != 0 || answers[0] != nil || c.sent("dm0")+c.sent("dm1") != 0 || c.notifies != 1 {
			t.Fatalf("missing %v, sent %d, %d calls, %d notifies: want every DM missing, no call, the notify",
				missing, sent, c.sent("dm0")+c.sent("dm1"), c.notifies)
		}
	})

	t.Run("any answer", func(t *testing.T) {
		store, c := scriptStore(t, []string{"dm0", "dm1", "dm2"}, byName(map[string]any{"dm0": Ack{}}), WithLockRetries(3))
		answers, sent := store.call(context.Background(), round{dms: []string{"dm0"}, req: PingReq{}, retries: 3})
		if sent != 1 || answers[0] != (Ack{}) || c.sent("dm0") != 1 {
			t.Fatalf("answers %v, sent %d after %d calls, want the refusal after one", answers, sent, c.sent("dm0"))
		}
	})
}

// goCounter records, by request kind, the calls a store issues through Go
// and those it makes through Call.
type goCounter struct {
	transport.Client
	mu             sync.Mutex
	viaGo, viaCall map[string]int
}

func (c *goCounter) Call(ctx context.Context, to string, req any) (any, error) {
	c.mu.Lock()
	c.viaCall[fmt.Sprintf("%T", req)]++
	c.mu.Unlock()
	return c.Client.Call(ctx, to, req)
}

func (c *goCounter) Go(deadline time.Time, to string, req any, tag int, done chan<- transport.Reply) {
	c.mu.Lock()
	c.viaGo[fmt.Sprintf("%T", req)]++
	c.mu.Unlock()
	transport.Go(c.Client, deadline, to, req, tag, done)
}

type goCounterTransport struct {
	transport.Transport
	c *goCounter
}

func (tt goCounterTransport) Client(id string) (transport.Client, error) {
	inner, err := tt.Transport.Client(id)
	tt.c.Client = inner
	return tt.c, err
}

// TestRoundsIssueThroughGo: every phase copy and every commit call of a
// fault-free nested transaction leaves through the client's Go, none
// through a Call, so no goroutine waits on any of them.
func TestRoundsIssueThroughGo(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{Seed: 71})
	c := &goCounter{viaGo: map[string]int{}, viaCall: map[string]int{}}
	items := []ItemSpec{
		{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
		{Name: "y", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
	}
	store, err := Open(goCounterTransport{Transport: net, c: c}, items,
		WithSeed(71), WithClock(sim.NewManualClock(time.Unix(0, 0))))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()
	err = store.Run(ctx, func(tx *Txn) error {
		if err := tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, "x", 1) }); err != nil {
			return err
		}
		return tx.Sub(ctx, func(sub *Txn) error {
			_, err := sub.Read(ctx, "y")
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.viaCall) != 0 {
		t.Errorf("calls that waited in Call: %v", c.viaCall)
	}
	for _, kind := range []string{"cluster.ReadReq", "cluster.WriteReq", "cluster.CommitTopReq"} {
		if c.viaGo[kind] == 0 {
			t.Errorf("no %s went through Go (Go saw %v)", kind, c.viaGo)
		}
	}
}
