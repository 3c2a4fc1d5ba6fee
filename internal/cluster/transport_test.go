package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// This file runs the core integration scenarios over every transport
// backend — the simulated network and real loopback TCP — and pins the
// error-taxonomy parity the Transport seam promises: a client sees the
// same typed errors (*UnavailableError, context errors) whichever backend
// carries its calls, and raw socket errors (*net.OpError) never escape.

// forEachTransport runs fn under each backend with a fresh transport.
func forEachTransport(t *testing.T, fn func(t *testing.T, tr transport.Transport)) {
	t.Run("sim", func(t *testing.T) {
		n := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 7})
		defer n.Close()
		fn(t, n)
	})
	t.Run("tcp", func(t *testing.T) {
		tr := tcp.New()
		defer tr.Close()
		fn(t, tr)
	})
}

// openTestStore opens a 3-replica majority cluster for item "x" on tr.
func openTestStore(t *testing.T, tr transport.Transport, opts ...Option) (*Store, []string) {
	t.Helper()
	dms := []string{"pd0", "pd1", "pd2"}
	all := append([]Option{
		WithCallTimeout(500 * time.Millisecond),
		WithSeed(11),
	}, opts...)
	store, err := Open(tr, []ItemSpec{
		{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
	}, all...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	return store, dms
}

func TestTransportParityCommitAndReadBack(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, _ := openTestStore(t, tr)
		ctx := context.Background()
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Write(ctx, "x", 41)
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			v, vn, err := tx.ReadVersioned(ctx, "x")
			if err != nil {
				return err
			}
			if v != 41 || vn != 1 {
				t.Errorf("read back (%v, vn %d), want (41, vn 1)", v, vn)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTransportParityNestedSubAbort(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, _ := openTestStore(t, tr)
		ctx := context.Background()
		errRisky := errors.New("risky step failed")
		if err := store.Run(ctx, func(tx *Txn) error {
			if err := tx.Write(ctx, "x", 10); err != nil {
				return err
			}
			if err := tx.Sub(ctx, func(sub *Txn) error {
				if err := sub.Write(ctx, "x", -1); err != nil {
					return err
				}
				return errRisky
			}); !errors.Is(err, errRisky) {
				return fmt.Errorf("sub abort surfaced as %v", err)
			}
			// A second sub commits and its write must reach the top-level commit.
			return tx.Sub(ctx, func(sub *Txn) error {
				return sub.Write(ctx, "x", 20)
			})
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 20 {
				t.Errorf("after tolerated sub-abort x = %v, want 20", v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTransportParityNestedInheritance: a committed child reaches the
// replicas only through the lists its tree's later accesses carry and the
// top-level commit's Subs, on both backends — the parent reads the child's
// write, a sibling overwrites a committed sibling's write (the final
// version is the second writer's), and two concurrent siblings contending
// for one item both finish, the loser's retry naming the winner.
func TestTransportParityNestedInheritance(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, _ := openTestStore(t, tr)
		ctx := context.Background()
		readBack := func(wantVal any, wantVN int) {
			t.Helper()
			if err := store.Run(ctx, func(tx *Txn) error {
				v, vn, err := tx.ReadVersioned(ctx, "x")
				if err == nil && (v != wantVal || vn != wantVN) {
					t.Errorf("read back (%v, vn %d), want (%v, vn %d)", v, vn, wantVal, wantVN)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}

		if err := store.Run(ctx, func(tx *Txn) error {
			if err := tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, "x", 1) }); err != nil {
				return err
			}
			v, vn, err := tx.ReadVersioned(ctx, "x")
			if err == nil && (v != 1 || vn != 1) {
				t.Errorf("parent read (%v, vn %d) after its child's write, want (1, vn 1)", v, vn)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		readBack(1, 1)

		if err := store.Run(ctx, func(tx *Txn) error {
			for _, v := range []int{2, 3} {
				if err := tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, "x", v) }); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		readBack(3, 3)

		if err := store.Run(ctx, func(tx *Txn) error {
			errs := make(chan error, 2)
			for _, v := range []int{4, 5} {
				go func() {
					errs <- tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, "x", v) })
				}()
			}
			return errors.Join(<-errs, <-errs)
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			v, vn, err := tx.ReadVersioned(ctx, "x")
			if err == nil && (vn != 5 || (v != 4 && v != 5)) {
				t.Errorf("after two concurrent siblings read (%v, vn %d), want vn 5 and the later writer's value", v, vn)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTransportParityReconfigure(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, dms := openTestStore(t, tr)
		ctx := context.Background()
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Write(ctx, "x", 5)
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Reconfigure(ctx, "x", quorum.ReadOneWriteAll(dms)); err != nil {
			t.Fatal(err)
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 5 {
				t.Errorf("post-reconfig read = %v, want 5", v)
			}
			return tx.Write(ctx, "x", 6)
		}); err != nil {
			t.Fatal(err)
		}
		// A second client still believes generation 0: its first read asks
		// with Gen 0, so the replies carry the new configuration (a reader
		// at generation 1 gets none), it adopts it and completes on the new
		// quorums — read-one, then write-all.
		stale, err := OpenClient(tr, []ItemSpec{
			{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
		}, WithCallTimeout(500*time.Millisecond), WithSeed(12))
		if err != nil {
			t.Fatal(err)
		}
		defer stale.Close()
		if err := stale.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 6 {
				t.Errorf("stale client read = %v, want 6", v)
			}
			if got := stale.config("x"); got.gen != 1 || !reflect.DeepEqual(got.cfg, quorum.ReadOneWriteAll(dms)) {
				t.Errorf("stale client believes gen %d cfg %v after one read, want gen 1 read-one/write-all", got.gen, got.cfg)
			}
			return tx.Write(ctx, "x", 7)
		}); err != nil {
			t.Fatal(err)
		}
		if got := stale.Stats.ReadPhaseLatency.Count(); got != 3 {
			// Read under generation 0 (discovers 1), re-read under 1, and the
			// write's update-locking read: the chase took one extra phase.
			t.Errorf("stale client ran %d read phases, want 3", got)
		}
	})
}

// TestStaleClientChasesWithNoRetries: the generation chase is progress, not
// a retry. A stale client allowed no lock retries at all still reads after
// a reconfiguration — the chase spends neither its one attempt nor a
// retry-budget token — and then writes under the configuration it learned.
func TestStaleClientChasesWithNoRetries(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, dms := openTestStore(t, tr)
		ctx := context.Background()
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 5) }); err != nil {
			t.Fatal(err)
		}
		if err := store.Reconfigure(ctx, "x", quorum.ReadOneWriteAll(dms)); err != nil {
			t.Fatal(err)
		}
		stale, err := OpenClient(tr, []ItemSpec{
			{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
		}, WithCallTimeout(500*time.Millisecond), WithSeed(12), WithLockRetries(0), WithRetryBudget(0.1))
		if err != nil {
			t.Fatal(err)
		}
		defer stale.Close()
		if err := stale.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 5 {
				t.Errorf("stale client read = %v, want 5", v)
			}
			return tx.Write(ctx, "x", 6)
		}); err != nil {
			t.Fatalf("stale client with no lock retries: %v", err)
		}
		if got := stale.config("x").gen; got != 1 {
			t.Errorf("stale client believes gen %d, want 1", got)
		}
		// The bucket starts full and first attempts only top it up.
		if b := stale.budget; b.tokens != b.max {
			t.Errorf("retry budget at %.1f of %.1f tokens: the chase withdrew", b.tokens, b.max)
		}
	})
}

func TestTransportParitySecondClient(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, dms := openTestStore(t, tr)
		ctx := context.Background()
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Write(ctx, "x", 99)
		}); err != nil {
			t.Fatal(err)
		}
		// An independent client over the same transport sees the commit.
		other, err := OpenClient(tr, []ItemSpec{
			{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
		}, WithCallTimeout(500*time.Millisecond), WithSeed(12))
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if err := other.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 99 {
				t.Errorf("second client read = %v, want 99", v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTransportParityErrorTaxonomy pins the error contract across backends:
// losing a majority surfaces as the cluster's typed *UnavailableError (no
// raw socket error anywhere in the chain), losing a minority is tolerated,
// and a context that dies mid-call surfaces as the context's own error.
func TestTransportParityErrorTaxonomy(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		t.Run("majority down is UnavailableError", func(t *testing.T) {
			store, dms := openTestStore(t, tr,
				WithCallTimeout(150*time.Millisecond), WithLockRetries(1), WithTxnRetries(0))
			ctx := context.Background()
			if err := store.StopDM(dms[1]); err != nil {
				t.Fatal(err)
			}
			if err := store.StopDM(dms[2]); err != nil {
				t.Fatal(err)
			}
			err := store.Run(ctx, func(tx *Txn) error {
				return tx.Write(ctx, "x", 1)
			})
			if err == nil {
				t.Fatal("write with majority down succeeded")
			}
			var ue *UnavailableError
			if !errors.As(err, &ue) {
				t.Fatalf("majority-down error is %T (%v), want *UnavailableError", err, err)
			}
			var op *net.OpError
			if errors.As(err, &op) {
				t.Fatalf("raw *net.OpError leaked through the cluster layer: %v", err)
			}
		})
		t.Run("minority down commits", func(t *testing.T) {
			store, dms := openTestStore(t, tr, WithCallTimeout(150*time.Millisecond))
			ctx := context.Background()
			if err := store.StopDM(dms[2]); err != nil {
				t.Fatal(err)
			}
			if err := store.Run(ctx, func(tx *Txn) error {
				return tx.Write(ctx, "x", 2)
			}); err != nil {
				t.Fatalf("write with minority down failed: %v", err)
			}
		})
		t.Run("dead context surfaces as context error", func(t *testing.T) {
			store, _ := openTestStore(t, tr)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := store.Run(ctx, func(tx *Txn) error {
				return tx.Write(ctx, "x", 3)
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled txn gave %v, want context.Canceled in chain", err)
			}
			var op *net.OpError
			if errors.As(err, &op) {
				t.Fatalf("raw *net.OpError leaked on cancellation: %v", err)
			}
		})
	})
}

// TestTransportParityHintedRead runs the freshness-hint fast lane over both
// backends: a committed write grants hints, a quorum read caches the target
// from the piggybacked flag, and the next read is served by one replica —
// same value, same counters, sim or TCP.
func TestTransportParityHintedRead(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, _ := openTestStore(t, tr, WithReadLease(time.Minute))
		ctx := context.Background()
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Write(ctx, "x", 31)
		}); err != nil {
			t.Fatal(err)
		}
		readBack := func(want int) {
			t.Helper()
			if err := store.Run(ctx, func(tx *Txn) error {
				v, err := tx.Read(ctx, "x")
				if err != nil {
					return err
				}
				if v != want {
					t.Errorf("read = %v, want %d", v, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		readBack(31) // quorum read; piggybacks the hinted target
		if _, ok := store.HintTarget("x"); !ok {
			t.Fatal("quorum read cached no hinted target")
		}
		readBack(31) // fast-lane read
		if store.Stats.HintHits.Value() == 0 {
			t.Fatal("hinted single-replica read never hit")
		}
	})
}

// TestTransportParityHintStaleFallback forces the replica-side miss over
// both backends: after a reconfiguration bumps the generation, a hinted
// read still asserting the old generation gets a typed HintMissResp (never
// a raw transport artifact), and the ordinary read path silently falls
// back to the quorum with the correct value.
func TestTransportParityHintStaleFallback(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, dms := openTestStore(t, tr, WithReadLease(time.Minute))
		ctx := context.Background()
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Write(ctx, "x", 8)
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			_, err := tx.Read(ctx, "x")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Reconfigure(ctx, "x", quorum.ReadOneWriteAll(dms)); err != nil {
			t.Fatal(err)
		}
		// A probe asserting the pre-reconfiguration generation must be
		// refused with the protocol's typed miss on every replica.
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		for _, dm := range dms {
			raw, err := store.client.Call(cctx, dm, HintReadReq{Txn: "probe", Item: "x", Seq: 1, Gen: 0})
			if err != nil {
				t.Fatalf("%s: %v", dm, err)
			}
			if resp, ok := raw.(ReadResp); ok && resp.OK {
				t.Fatalf("%s served a hinted read under a stale generation", dm)
			}
		}
		// The full path still reads the committed value under the new
		// configuration.
		if err := store.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 8 {
				t.Errorf("post-reconfig read = %v, want 8", v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTransportParityHintTargetKilled kills the cached fast-lane replica
// mid-workload: the hinted read's transport failure must stay invisible —
// the read falls back to a quorum of the survivors with the right value,
// no error, and no raw *net.OpError anywhere.
func TestTransportParityHintTargetKilled(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		store, _ := openTestStore(t, tr,
			WithReadLease(time.Minute),
			WithCallTimeout(150*time.Millisecond))
		ctx := context.Background()
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Write(ctx, "x", 77)
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Run(ctx, func(tx *Txn) error {
			_, err := tx.Read(ctx, "x")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		target, ok := store.HintTarget("x")
		if !ok {
			t.Fatal("no hinted target cached")
		}
		if err := store.StopDM(target); err != nil {
			t.Fatal(err)
		}
		misses := store.Stats.HintMisses.Value()
		err := store.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 77 {
				t.Errorf("read with dead hint target = %v, want 77", v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("read with dead hint target failed: %v", err)
		}
		var op *net.OpError
		if errors.As(err, &op) {
			t.Fatalf("raw *net.OpError leaked through the fast lane: %v", err)
		}
		if store.Stats.HintMisses.Value() == misses {
			t.Fatal("dead-target fast lane not counted as a miss")
		}
		// The fallback quorum read may re-cache a SURVIVING hinted replica —
		// but never the dead one.
		if dm, ok := store.HintTarget("x"); ok && dm == target {
			t.Fatal("dead replica still cached as the fast-lane target")
		}
	})
}

// TestReadOnlyRunCallsNothingAfterItsReads: a one-read transaction's read
// takes no lock, so over TCP it sends nothing after its read phase — no call
// and no notify — and after Quiesce no replica holds a lock, a lease or a
// resolution record of it.
func TestReadOnlyRunCallsNothingAfterItsReads(t *testing.T) {
	tr := tcp.New()
	defer tr.Close()
	var calls, notifies atomic.Int64
	tap := tapTransport{
		Transport: tr,
		onCall:    func(string, any) bool { calls.Add(1); return false },
		onNotify:  func(string, any) bool { notifies.Add(1); return false },
	}
	store, dms := openTestStore(t, tap)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		var (
			id         TxnID
			touched    []string
			afterReads int64
		)
		if err := store.Run(ctx, func(tx *Txn) error {
			id = tx.ID()
			if _, err := tx.Read(ctx, "x"); err != nil {
				return err
			}
			touched, afterReads = tx.touchedDMs(), calls.Load()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load() - afterReads; n != 0 {
			t.Fatalf("read-only txn %d made %d calls after its read phase", i, n)
		}
		if n := notifies.Load(); n != 0 || len(touched) != 0 {
			t.Fatalf("read-only txn %d sent %d notifies and touched %v, want neither", i, n, touched)
		}
		tr.Quiesce()
		for _, dm := range dms {
			probe, err := store.ResolutionProbe(ctx, dm, id)
			if err != nil {
				t.Fatal(err)
			}
			if probe.Holds || probe.Active || probe.Known {
				t.Fatalf("%s after %s's lockless read: %+v, want no lock, lease or record of it", dm, id, probe)
			}
		}
	}
}

// TestCommitDoesNotWaitOnAStoppedReplica runs tcp_degraded's shape — three
// replicas, the third stopped, single-op reads and writes — and holds every
// commit to its own replicas: a tentative DM (the stopped one, asked by the
// fan-out and never heard from) hears the outcome as a notify, so the commit
// tail makes no call to it and no Run spends a call timeout on it. The sim's
// stopped node is silent, the harder case; over TCP a stopped replica
// refuses the dial.
func TestCommitDoesNotWaitOnAStoppedReplica(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr transport.Transport) {
		const stopped = "pd2"
		var toStopped atomic.Int64
		tap := tapTransport{Transport: tr, onCall: func(to string, _ any) bool {
			if to == stopped {
				toStopped.Add(1)
			}
			return false
		}}
		const callTimeout = time.Second
		store, _ := openTestStore(t, tap, WithCallTimeout(callTimeout))
		if err := store.StopDM(stopped); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		tentative := 0
		for i := 0; i < 20; i++ {
			var afterBody int64
			start := time.Now()
			err := store.Run(ctx, func(tx *Txn) error {
				var err error
				if i%2 == 0 {
					err = tx.Write(ctx, "x", i)
				} else {
					_, err = tx.Read(ctx, "x")
				}
				if _, _, tent := tx.controlSets(); slices.Contains(tent, stopped) {
					tentative++
				}
				afterBody = toStopped.Load()
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took >= callTimeout/2 {
				t.Fatalf("txn %d took %v with %s stopped", i, took, stopped)
			}
			if n := toStopped.Load() - afterBody; n != 0 {
				t.Fatalf("txn %d's commit called stopped %s %d times", i, stopped, n)
			}
		}
		if _, isSim := tr.(*sim.Network); isSim && tentative == 0 {
			t.Fatalf("no commit had the silent %s as a tentative DM", stopped)
		}
	})
}

// TestStoppedReplicaLeavesFirstQuorums is tcp_degraded's mechanism: over
// TCP a stopped replica refuses the dial, each refused call counts one
// failure, and after failThreshold of them the replica is a suspect no first
// quorum holds — it is called only by its half-open probe, one phase in
// probeEvery.
func TestStoppedReplicaLeavesFirstQuorums(t *testing.T) {
	tr := tcp.New()
	defer tr.Close()
	const stopped = "pd2"
	var toStopped atomic.Int64
	tap := tapTransport{Transport: tr, onCall: func(to string, _ any) bool {
		if to == stopped {
			toStopped.Add(1)
		}
		return false
	}}
	store, _ := openTestStore(t, tap)
	if err := store.StopDM(stopped); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	write := func(i int) {
		t.Helper()
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	suspect := func() bool {
		for _, h := range store.Health() {
			if h.DM == stopped {
				return h.Suspect
			}
		}
		return false
	}
	for i := 0; !suspect(); i++ {
		if i == 20 {
			t.Fatalf("%s not suspect after %d writes and %d lost calls", stopped, i, toStopped.Load())
		}
		write(i)
	}
	if n := toStopped.Load(); n < defaultFailThreshold {
		t.Fatalf("%s suspect after %d lost calls, want %d", stopped, n, defaultFailThreshold)
	}
	// Each write is a read phase and a write phase.
	const writes = 4 * defaultProbeEvery
	before := toStopped.Load()
	for i := 0; i < writes; i++ {
		write(100 + i)
	}
	if n, probes := toStopped.Load()-before, int64(2*writes/defaultProbeEvery); n != probes {
		t.Fatalf("%d calls to suspect %s in %d phases, want its %d probes only", n, stopped, 2*writes, probes)
	}
}

// stallTransport lets a test stop one replica's handler. While stall is held
// the replica serves nothing, its server stops reading once its backlog is
// full, and the links to it back up behind the kernel's buffers.
type stallTransport struct {
	transport.Transport
	id    string
	stall sync.Mutex
}

func (st *stallTransport) Serve(id string, h transport.Handler, opts ...transport.ServeOption) (transport.Server, error) {
	if id == st.id {
		serve := h
		h = func(from string, req any, reply func(any)) {
			st.stall.Lock()
			st.stall.Unlock()
			serve(from, req, reply)
		}
	}
	return st.Transport.Serve(id, h, opts...)
}

// TestReleaseNotifyOutwaitsACongestedLink: only its notify releases a read
// lock before the lock's lease lapses, so a commit's notify to a replica
// whose link is full waits for room instead of being dropped. A
// read-only Run commits while pd0 serves nothing and the client's link to it
// is backed up; once pd0 serves again it holds none of the transaction's
// locks and holds its commit record, a writer that needs pd0 commits, and
// the transport counted no notify dropped. The read runs in a
// subtransaction, where it locks.
func TestReleaseNotifyOutwaitsACongestedLink(t *testing.T) {
	tr := tcp.New()
	defer tr.Close()
	st := &stallTransport{Transport: tr, id: "pd0"}
	dms := []string{"pd0", "pd1", "pd2"}
	store, err := Open(st, []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.ReadAllWriteOne(dms)}}, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	// Filler the replica answers without touching any lock or log.
	pad := ResolutionProbeReq{Txn: TxnID(strings.Repeat("j", 1<<10))}
	var (
		id         TxnID
		stop       atomic.Bool
		flooded    = make(chan struct{})
		committing time.Time
	)
	err = store.Run(ctx, func(tx *Txn) error {
		id = tx.ID()
		if err := tx.Sub(ctx, func(sub *Txn) error {
			_, err := sub.Read(ctx, "x")
			return err
		}); err != nil {
			return err
		}
		// Every replica granted: the read quorum is all of them. Stop pd0
		// and fill the client's link to it before the commit's notify.
		st.stall.Lock()
		var sent atomic.Int64
		go func() {
			defer close(flooded)
			for !stop.Load() {
				store.client.Notify("pd0", pad)
				sent.Add(1)
			}
		}()
		for last := int64(-1); sent.Load() != last; time.Sleep(50 * time.Millisecond) {
			if last = sent.Load(); last > 64<<10 {
				stop.Store(true)
				st.stall.Unlock()
				return fmt.Errorf("%d notifies to a replica that reads nothing, none of them waited", last)
			}
		}
		time.AfterFunc(100*time.Millisecond, func() {
			stop.Store(true)
			st.stall.Unlock()
		})
		committing = time.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(committing); waited < 50*time.Millisecond {
		t.Fatalf("the commit returned %v after its body: its notify did not wait on the full link", waited)
	}
	<-flooded
	deadline := time.Now().Add(30 * time.Second)
	for {
		probe, err := store.ResolutionProbe(ctx, "pd0", id)
		if err == nil && !probe.Holds && probe.Known && probe.Committed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pd0 after %s's commit: %+v, %v; want its record and none of its locks", id, probe, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
		t.Fatalf("a writer after the congested release: %v", err)
	}
	if d := tr.Stats().DroppedNotifies; d != 0 {
		t.Fatalf("%d notifies counted dropped on live links", d)
	}
}
