package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
)

// TestLocklessReadMeetsAHalfAppliedCommit: writer W's commit point has
// passed, and its CommitTopReq reached dm0 but is held on its way to dm1, the
// other member of W's write quorum {dm0, dm1}. A lockless reader whose
// quorum is {dm0, dm2} returns W's version from dm0. A second reader, cut off
// from dm0, must not return the older version the two replicas it can reach
// have committed: dm1 still holds W's write lock, which refuses a lockless
// read exactly as it would a read lock, so the reader waits for W instead —
// here it runs out of retries with a conflict — and reads W's version once
// the commit lands.
func TestLocklessReadMeetsAHalfAppliedCommit(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 71, FateFeedback: true})
	defer net.Close()
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	var holdOnce sync.Once
	holding, hold := make(chan struct{}), make(chan struct{})
	tap := tapTransport{Transport: net, onCall: func(to string, req any) bool {
		if _, ok := req.(CommitTopReq); ok && to == "dm1" {
			holdOnce.Do(func() { close(holding) })
			<-hold
		}
		return false
	}}
	w, err := Open(tap, items, WithSeed(71), WithCallTimeout(time.Second), WithHedgeDelay(0))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reader := func(seed int64, cutFrom string) *Store {
		r, err := OpenClient(net, items, WithSeed(seed), WithCallTimeout(time.Second), WithHedgeDelay(0),
			WithLockRetries(2), WithTxnRetries(0), WithRetryBackoff(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		net.Disconnect(r.ClientNode(), cutFrom)
		return r
	}
	r1, r2 := reader(72, "dm1"), reader(73, "dm0")
	defer r1.Close()
	defer r2.Close()
	ctx := context.Background()
	read := func(r *Store) (vn int, err error) {
		err = r.Run(ctx, func(tx *Txn) error {
			_, vn, err = tx.ReadVersioned(ctx, "x")
			return err
		})
		return vn, err
	}

	// W's write quorum is {dm0, dm1}: its client cannot reach dm2.
	net.Disconnect(w.ClientNode(), "dm2")
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", "w") }) }()
	<-holding
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if insp, err := r1.Inspect(ctx, "dm0", "x"); err == nil && insp.VN == 1 && insp.Locks == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dm0 never applied W's commit")
		}
	}

	if vn, err := read(r1); err != nil || vn != 1 {
		t.Fatalf("reader on {dm0, dm2}: vn %d, %v; want W's vn 1", vn, err)
	}
	if vn, err := read(r2); err == nil || !errors.Is(err, ErrConflict) {
		t.Fatalf("reader on {dm1, dm2} while dm1 holds W's lock: vn %d, %v; want a conflict, never vn 0", vn, err)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("W: %v", err)
	}
	if vn, err := read(r2); err != nil || vn != 1 {
		t.Fatalf("reader on {dm1, dm2} after W's commit landed: vn %d, %v; want 1", vn, err)
	}
}

// TestLocklessFirstReadIsValidated: a top-level transaction reads x with no
// lock, then another client commits x, then the transaction reads y. The y
// access first re-reads x under a lock and finds its version changed, so the
// first attempt cannot commit — whether the body returns the error or
// tolerates it inside a Sub — and Run restarts it once; the committed attempt
// saw the new x.
func TestLocklessFirstReadIsValidated(t *testing.T) {
	for _, tc := range []struct {
		name  string
		readY func(ctx context.Context, tx *Txn) error
	}{
		{"root read", func(ctx context.Context, tx *Txn) error {
			_, err := tx.Read(ctx, "y")
			return err
		}},
		{"tolerated sub read", func(ctx context.Context, tx *Txn) error {
			_ = tx.Sub(ctx, func(sub *Txn) error {
				_, err := sub.Read(ctx, "y")
				return err
			})
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := validationCluster(t)
			ctx := context.Background()
			attempts, saw := 0, any(nil)
			err := a.Run(ctx, func(tx *Txn) error {
				attempts++
				v, err := tx.Read(ctx, "x")
				if err != nil {
					return err
				}
				saw = v
				if attempts == 1 {
					if err := b.Run(ctx, func(bt *Txn) error { return bt.Write(ctx, "x", "new") }); err != nil {
						t.Fatalf("the other client's write: %v", err)
					}
				}
				return tc.readY(ctx, tx)
			})
			if err != nil {
				t.Fatal(err)
			}
			if attempts != 2 || saw != "new" {
				t.Fatalf("%d attempts, the last saw x = %v; want 2, the committed one seeing the new x", attempts, saw)
			}
			if r, c := a.Stats.Restarts.Value(), a.Stats.Commits.Value(); r != 1 || c != 1 {
				t.Fatalf("%d restarts and %d commits, want one of each: the first attempt must not commit", r, c)
			}
		})
	}
}

// TestValidationFoldsIntoTheNextReadOfTheSameItem: with nobody writing, the
// validation of a lockless first read costs one read phase when the tree's
// next access is another item's, and none of its own when it is the root's
// own access to the same item — that access's read phase is the re-read.
func TestValidationFoldsIntoTheNextReadOfTheSameItem(t *testing.T) {
	for _, tc := range []struct {
		name   string
		next   func(ctx context.Context, tx *Txn) error
		phases int
	}{
		{"write of the same item", func(ctx context.Context, tx *Txn) error { return tx.Write(ctx, "x", 1) }, 2},
		{"root read of another item", func(ctx context.Context, tx *Txn) error { _, err := tx.Read(ctx, "y"); return err }, 3},
		{"sub read of the same item", func(ctx context.Context, tx *Txn) error {
			return tx.Sub(ctx, func(sub *Txn) error { _, err := sub.Read(ctx, "x"); return err })
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := validationCluster(t)
			ctx := context.Background()
			err := a.Run(ctx, func(tx *Txn) error {
				if _, err := tx.Read(ctx, "x"); err != nil {
					return err
				}
				return tc.next(ctx, tx)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Stats.ReadPhaseLatency.Count(); got != tc.phases || a.Stats.Restarts.Value() != 0 {
				t.Fatalf("%d read phases and %d restarts, want %d and none", got, a.Stats.Restarts.Value(), tc.phases)
			}
		})
	}
}

// TestConcurrentSubsValidateOnce: after a lockless first read, two
// subtransactions run at once and both access the tree. Exactly one of them
// takes the read and validates it; the other goes on, and the transaction
// commits.
func TestConcurrentSubsValidateOnce(t *testing.T) {
	a, _ := validationCluster(t)
	ctx := context.Background()
	err := a.Run(ctx, func(tx *Txn) error {
		if _, err := tx.Read(ctx, "x"); err != nil {
			return err
		}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = tx.Sub(ctx, func(sub *Txn) error {
					_, err := sub.Read(ctx, "y")
					return err
				})
			}(i)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The lockless read, one validation and the two subtransactions' reads.
	if got := a.Stats.ReadPhaseLatency.Count(); got != 4 {
		t.Fatalf("%d read phases, want 4", got)
	}
}

// validationCluster opens items x and y on a three-replica majority cluster
// and two clients of it.
func validationCluster(t *testing.T) (a, b *Store) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 81})
	items := []ItemSpec{
		{Name: "x", Initial: "old", DMs: dms, Config: quorum.Majority(dms)},
		{Name: "y", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
	}
	a, err := Open(net, items, WithSeed(81), WithCallTimeout(time.Second), WithRetryBackoff(time.Millisecond))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	b, err = OpenClient(net, items, WithSeed(82), WithCallTimeout(time.Second))
	if err != nil {
		a.Close()
		net.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(); a.Close(); net.Close() })
	return a, b
}
