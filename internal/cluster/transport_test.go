package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
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
