package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/quorum"
	"repro/internal/sim"
)

// hintCluster opens a volatile three-replica majority cluster with the
// freshness-hint fast lane on, driven by a manual clock so tests control
// exactly when hints expire. Every message an operation causes is sent
// before Run returns, so settleHints after it settles them all — after
// which the DM soft state may be inspected directly. The
// network reports every loss at once (FateFeedback), so the call timeout is
// pure backstop and sits where a loaded machine cannot reach it: a timeout
// that can fire on a scheduling hiccup is a wall-clock race. A test that
// wants a short one passes it in extra.
func hintCluster(t *testing.T, seed int64, ttl time.Duration, extra ...Option) (*Store, *sim.Network, *sim.ManualClock, []string) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
		Seed: seed, FateFeedback: true,
	})
	clk := sim.NewManualClock(time.Unix(0, 0))
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	opts := append([]Option{
		WithSeed(seed),
		WithCallTimeout(time.Second),
		WithReadLease(ttl),
		WithClock(clk),
		WithRetryBackoff(2 * time.Millisecond),
	}, extra...)
	store, err := Open(net, items, opts...)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		store.Close()
		net.Close()
	})
	return store, net, clk, dms
}

// settleHints flushes every DM's inbox: Quiesce settles network transit,
// but fire-and-forget traffic (commit broadcasts, sweep grants) settles on
// inbox enqueue, before the node's loop handles it. A follow-up Inspect
// call rides the same client→DM lane FIFO, so its reply proves every
// earlier message to that DM has been handled.
func settleHints(t *testing.T, store *Store, net *sim.Network, dms []string) {
	t.Helper()
	net.Quiesce()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, dm := range dms {
		if _, err := store.Inspect(ctx, dm, "x"); err != nil {
			t.Fatalf("settle %s: %v", dm, err)
		}
	}
}

// dmHint peeks one replica's hint soft state. Callers must have settled
// the cluster first (the DM actor loop must have drained its inbox).
func dmHint(store *Store, dm, item string) (itemHint, bool) {
	hint, ok := store.host(dm).srv.hints[item]
	return hint, ok
}

func writeX(t *testing.T, store *Store, val int) {
	t.Helper()
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", val) }); err != nil {
		t.Fatal(err)
	}
}

func readX(t *testing.T, store *Store) any {
	t.Helper()
	ctx := context.Background()
	var got any
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestHintStateMachine drives the hint lifecycle through a live cluster,
// one transition per case: grant on commit, refresh via anti-entropy,
// revoke/fence on write, expire on TTL, and invalidate on a configuration
// generation bump. Each case asserts both the replica-side soft state and
// the client-visible effect (hit vs fallback, and always the right value).
func TestHintStateMachine(t *testing.T) {
	const ttl = 40 * time.Millisecond
	cases := []struct {
		name string
		run  func(t *testing.T, store *Store, net *sim.Network, clk *sim.ManualClock, dms []string)
	}{
		{
			// A committed write is a freshness proof at every replica it
			// advanced: the next quorum read piggybacks the hint, and the
			// read after that is served by a single replica.
			name: "grant-on-commit",
			run: func(t *testing.T, store *Store, net *sim.Network, clk *sim.ManualClock, dms []string) {
				writeX(t, store, 7)
				settleHints(t, store, net, dms)
				granted := 0
				for _, dm := range dms {
					if h, ok := dmHint(store, dm, "x"); ok {
						if h.vn != 1 {
							t.Fatalf("%s hint vn = %d, want 1", dm, h.vn)
						}
						granted++
					}
				}
				if granted == 0 {
					t.Fatal("no replica granted itself a hint at commit")
				}
				// The writer's own commit primes the fast-lane cache…
				if _, ok := store.HintTarget("x"); !ok {
					t.Fatal("commit did not prime the writer's fast-lane cache")
				}
				// …and a client that forgot the target relearns it from a
				// quorum read's hinted piggyback.
				store.hintCache.drop("x")
				if v := readX(t, store); v != 7 { // quorum read, caches the target
					t.Fatalf("quorum read = %v, want 7", v)
				}
				if _, ok := store.HintTarget("x"); !ok {
					t.Fatal("quorum read did not cache a hinted target")
				}
				if v := readX(t, store); v != 7 { // hinted single-replica read
					t.Fatalf("hinted read = %v, want 7", v)
				}
				if hits := store.Stats.HintHits.Value(); hits != 1 {
					t.Fatalf("HintHits = %d, want 1", hits)
				}
			},
		},
		{
			// With no write traffic at all, the anti-entropy sweeper's
			// unanimity proof grants hints — and primes the client cache.
			name: "refresh-via-anti-entropy",
			run: func(t *testing.T, store *Store, net *sim.Network, clk *sim.ManualClock, dms []string) {
				if _, err := store.SweepOnce(context.Background()); err != nil {
					t.Fatal(err)
				}
				settleHints(t, store, net, dms) // grants are fire-and-forget
				if g := store.Stats.HintGrants.Value(); g != 1 {
					t.Fatalf("HintGrants = %d, want 1", g)
				}
				for _, dm := range dms {
					if _, ok := dmHint(store, dm, "x"); !ok {
						t.Fatalf("%s holds no hint after unanimous sweep", dm)
					}
				}
				if v := readX(t, store); v != 0 {
					t.Fatalf("hinted read = %v, want initial 0", v)
				}
				if hits := store.Stats.HintHits.Value(); hits != 1 {
					t.Fatalf("HintHits = %d, want 1", hits)
				}
			},
		},
		{
			// A write fences every outstanding hint before its commit point;
			// the commit then re-proves freshness at the new version. No
			// replica may be left hinting the superseded version.
			name: "revoke-and-fence-on-write",
			run: func(t *testing.T, store *Store, net *sim.Network, clk *sim.ManualClock, dms []string) {
				writeX(t, store, 1)
				readX(t, store) // cache a hinted target at vn 1
				writeX(t, store, 2)
				settleHints(t, store, net, dms)
				if f := store.Stats.HintFences.Value(); f == 0 {
					t.Fatal("writes ran no hint fence")
				}
				for _, dm := range dms {
					if h, ok := dmHint(store, dm, "x"); ok && h.vn != 2 {
						t.Fatalf("%s still hints vn %d after the vn-2 commit", dm, h.vn)
					}
				}
				// The cached target must never serve the old value.
				if v := readX(t, store); v != 2 {
					t.Fatalf("read after write = %v, want 2", v)
				}
			},
		},
		{
			// A hint outlives its TTL at neither side: the replica refuses
			// (reason "expired") and the client falls back to the quorum.
			name: "expire-on-ttl",
			run: func(t *testing.T, store *Store, net *sim.Network, clk *sim.ManualClock, dms []string) {
				writeX(t, store, 3)
				// The DM-side hints are stamped at commit time T, and so is
				// the commit's cache prime — drop it and advance a little
				// before the caching read, so the client cache's expiry lands
				// strictly later than the replica's. The read below then
				// exercises the replica-side expiry path, not a silently
				// skipped fast lane.
				store.hintCache.drop("x")
				clk.Advance(time.Millisecond)
				readX(t, store)
				hitsBefore := store.Stats.HintHits.Value()
				clk.Advance(ttl) // past T+ttl, at-but-not-past cache expiry
				if v := readX(t, store); v != 3 {
					t.Fatalf("read = %v, want 3", v)
				}
				if store.Stats.HintReads.Value() == 0 {
					t.Fatal("fast lane never attempted")
				}
				if store.Stats.HintHits.Value() != hitsBefore {
					t.Fatal("expired hint served a fast-lane read")
				}
				if store.Stats.HintMisses.Value() == 0 {
					t.Fatal("expired hint not counted as a miss")
				}
			},
		},
		{
			// A configuration generation bump invalidates hints granted
			// under the old generation: a client still asserting gen 0 is
			// refused and forced onto the quorum path, which chases the
			// current configuration.
			name: "invalidate-on-reconfigure",
			run: func(t *testing.T, store *Store, net *sim.Network, clk *sim.ManualClock, dms []string) {
				writeX(t, store, 4)
				readX(t, store)
				if err := store.Reconfigure(context.Background(), "x", quorum.Config{
					R: []quorum.Set{quorum.NewSet(dms...)},
					W: []quorum.Set{quorum.NewSet(dms...)},
				}); err != nil {
					t.Fatal(err)
				}
				net.Quiesce()
				// The reconfiguration committed gen 1; a hinted read still
				// asserting gen 0 must miss at every replica.
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				for _, dm := range dms {
					raw, err := store.client.Call(ctx, dm, HintReadReq{Txn: "probe", Item: "x", Seq: 1, Gen: 0})
					if err != nil {
						t.Fatalf("%s: %v", dm, err)
					}
					if resp, ok := raw.(ReadResp); ok && resp.OK {
						t.Fatalf("%s served a hinted read under a stale generation", dm)
					}
				}
				// And the full path still returns the committed value.
				if v := readX(t, store); v != 4 {
					t.Fatalf("read after reconfigure = %v, want 4", v)
				}
			},
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, net, clk, dms := hintCluster(t, int64(100+i), ttl)
			tc.run(t, store, net, clk, dms)
		})
	}
}

// TestHintRebuildAfterAmnesia pins the recovery rule: hints are soft state
// and must NOT survive a WAL replay. A restarted replica serves no hinted
// reads until a later commit or sweep re-proves its freshness.
func TestHintRebuildAfterAmnesia(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
		Seed: 42, FateFeedback: true,
	})
	defer net.Close()
	clk := sim.NewManualClock(time.Unix(0, 0))
	store, err := Open(net,
		[]ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
		WithSeed(42),
		WithCallTimeout(25*time.Millisecond),
		WithReadLease(time.Minute),
		WithClock(clk),
		WithDurability(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	writeX(t, store, 9)
	settleHints(t, store, net, dms)
	restarted := ""
	for _, dm := range dms {
		if _, ok := dmHint(store, dm, "x"); ok {
			restarted = dm
			break
		}
	}
	if restarted == "" {
		t.Fatal("no replica granted itself a hint at commit")
	}
	stats, err := store.RestartDM(restarted)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed == 0 && !stats.FromSnapshot {
		t.Fatal("restart replayed nothing — amnesia not exercised")
	}
	if _, ok := dmHint(store, restarted, "x"); ok {
		t.Fatalf("%s still holds a hint after WAL replay", restarted)
	}
	// Unproven means refused: a direct hinted read at the recovered
	// replica must miss even though its committed state is up to date.
	cctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	raw, err := store.client.Call(cctx, restarted, HintReadReq{Txn: "probe", Item: "x", Seq: 1, Gen: 0})
	if err != nil {
		t.Fatal(err)
	}
	miss, ok := raw.(HintMissResp)
	if !ok {
		t.Fatalf("recovered replica answered %#v, want a HintMissResp", raw)
	}
	if miss.Reason != "none" {
		t.Fatalf("miss reason = %q, want %q", miss.Reason, "none")
	}
	// Re-proof path: a unanimous sweep re-grants, and the fast lane works
	// again — with the correct value. The write asked one write quorum, so
	// the first sweep repairs the replica it left behind and the second
	// finds every replica agreeing.
	for sweep := 0; sweep < 2; sweep++ {
		if _, err := store.SweepOnce(ctx); err != nil {
			t.Fatal(err)
		}
		settleHints(t, store, net, dms)
	}
	if _, ok := dmHint(store, restarted, "x"); !ok {
		t.Fatal("sweep did not re-prove the recovered replica's freshness")
	}
	if v := readX(t, store); v != 9 {
		t.Fatalf("read after re-proof = %v, want 9", v)
	}
}

// TestHintFenceRefusedByReaderLock pins the serializability core of
// DESIGN.md §9: a writer's hint fence is refused while another
// transaction's lock is live on the item at that replica — the writer
// waits for the hinted reader exactly as quorum intersection would have
// made it. The fence still revokes the hint even when refused.
func TestHintFenceRefusedByReaderLock(t *testing.T) {
	store, net, _, dms := hintCluster(t, 7, time.Minute)
	ctx := context.Background()
	writeX(t, store, 1)
	settleHints(t, store, net, dms)
	target := ""
	for _, dm := range dms {
		if _, ok := dmHint(store, dm, "x"); ok {
			target = dm
			break
		}
	}
	if target == "" {
		t.Fatal("no hinted replica after commit")
	}
	cctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	// Park a foreign read lock on the item at the hinted replica.
	if raw, err := store.client.Call(cctx, target, ReadReq{Txn: "reader", Item: "x", Lock: LockRead, Seq: 1}); err != nil {
		t.Fatal(err)
	} else if resp, ok := raw.(ReadResp); !ok || !resp.OK {
		t.Fatalf("parked read lock refused: %#v", raw)
	}
	// A different transaction's fence must revoke the hint but refuse the
	// ack while the reader's lock is live.
	raw, err := store.client.Call(cctx, target, HintFenceReq{Txn: "writer", Item: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp, ok := raw.(WriteResp); !ok || resp.OK || !resp.Busy {
		t.Fatalf("fence over a live foreign lock answered %#v, want Busy", raw)
	}
	if _, ok := dmHint(store, target, "x"); ok {
		t.Fatal("refused fence left the hint standing")
	}
	// The lock holder's own fence is never refused by its own lock.
	if raw, err := store.client.Call(cctx, target, HintFenceReq{Txn: "reader", Item: "x"}); err != nil {
		t.Fatal(err)
	} else if resp, ok := raw.(WriteResp); !ok || !resp.OK {
		t.Fatalf("fence refused by its own transaction's lock: %#v", raw)
	}
	// Release the parked lock so shutdown sweeps find a clean item.
	if _, err := store.client.Call(cctx, target, AbortReq{Txn: "reader"}); err != nil {
		t.Fatal(err)
	}
}

// TestHintedReadWriterSerializability interleaves hinted reads with writes
// to the same item and runs the full-history checker over the result: the
// deterministic, unpartitioned core of what the chaos stalehint fault then
// schedules adversarially. Every fast-lane read lands in the history with
// its version witness, so a stale hint surfaces as a checker violation.
func TestHintedReadWriterSerializability(t *testing.T) {
	rec := checker.NewRecorder()
	rec.DeclareItem("x", 0)
	store, _, _, _ := hintCluster(t, 11, time.Minute, WithHistory(rec))
	ctx := context.Background()
	for i := 1; i <= 20; i++ {
		if err := store.Run(ctx, func(tx *Txn) error {
			if _, err := tx.Read(ctx, "x"); err != nil {
				return err
			}
			return tx.Write(ctx, "x", i)
		}); err != nil {
			t.Fatal(err)
		}
		readX(t, store)
	}
	if err := rec.History().Verify(); err != nil {
		t.Fatalf("serializability violations with hinted reads: %v", err)
	}
	if store.Stats.HintHits.Value() == 0 {
		t.Fatal("fast lane never hit — the scenario exercised nothing")
	}
}

// TestSweepErrorBudget is the anti-entropy satellite fix: a cancelled sweep
// surfaces as an error, the background loop's counting wrapper records it,
// and healthy sweeps keep the error budget at zero.
func TestSweepErrorBudget(t *testing.T) {
	store, _, _, _ := hintCluster(t, 13, time.Minute)
	ctx := context.Background()
	if _, err := store.SweepOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if n := store.Stats.AntiEntropySweepErrors.Value(); n != 0 {
		t.Fatalf("healthy sweep burned error budget: %d", n)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := store.SweepOnce(dead); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	store.sweepAndCount(dead)
	if n := store.Stats.AntiEntropySweepErrors.Value(); n != 1 {
		t.Fatalf("AntiEntropySweepErrors = %d, want 1", n)
	}
}

// TestTreeReadsItsOwnWriteBackPastTheHintLane: a transaction that wrote an
// item reads its own write back, whatever the hint cache says. The cached
// target may sit outside the write quorum, where it holds no lock or
// intention of the writer: its hint stands and it would serve the version
// the transaction overwrote. The writer's tree therefore keeps its reads of
// that item off the fast lane — a subtransaction's reads included, through
// its ancestors' written items.
func TestTreeReadsItsOwnWriteBackPastTheHintLane(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 40; seed++ {
		store, net, _, dms := hintCluster(t, seed, time.Hour, WithSequentialPhases(true), WithHedgeDelay(0))
		writeX(t, store, 1)
		settleHints(t, store, net, dms)
		if err := store.Run(ctx, func(tx *Txn) error {
			if err := tx.Write(ctx, "x", 2); err != nil {
				return err
			}
			if v, err := tx.Read(ctx, "x"); err != nil || v != 2 {
				t.Errorf("seed %d: the writer read back (%v, %v), want 2", seed, v, err)
			}
			return tx.Sub(ctx, func(sub *Txn) error {
				if v, err := sub.Read(ctx, "x"); err != nil || v != 2 {
					t.Errorf("seed %d: the writer's child read (%v, %v), want 2", seed, v, err)
				}
				return nil
			})
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestGrantedOnlyReplicaSelfGrantsOnNotifiedCommit: a write transaction's
// granted-only replica — locked by the read phase, outside the write quorum —
// hears the commit only as a notify, and still runs the one resolution path:
// when it already holds the final version (planted here, as a repair would
// have brought it), the Final match in CommitTopReq grants it a hint.
func TestGrantedOnlyReplicaSelfGrantsOnNotifiedCommit(t *testing.T) {
	store, net, _, dms := hintCluster(t, 91, time.Minute, WithSequentialPhases(true), WithHedgeDelay(0))
	ctx := context.Background()
	for i := 1; i <= 10; i++ {
		var dm string
		var vn int
		if err := store.Run(ctx, func(tx *Txn) error {
			var err error
			if vn, err = tx.WriteVersioned(ctx, "x", i); err != nil {
				return err
			}
			if _, granted, _ := tx.controlSets(); len(granted) > 0 {
				dm = granted[0]
				r := store.host(dm).srv.Replicas["x"]
				r.VN, r.Val = vn, i
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if dm == "" {
			continue // read and write quorum coincided; try another transaction
		}
		settleHints(t, store, net, dms)
		h, ok := dmHint(store, dm, "x")
		if !ok || h.vn != vn {
			t.Fatalf("granted-only %s after the notified commit of vn %d: hint %+v (present %v)", dm, vn, h, ok)
		}
		return
	}
	t.Fatal("no write in 10 had a granted-only replica")
}
