package cluster

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
)

// TestWithLockRetriesZeroMeansZero is the regression test for the legacy
// default-clobbering: Options{LockRetries: 0} silently became 12 retries
// because withDefaults could not tell an explicit zero from unset. The
// option constructor states intent, so zero must survive resolution.
func TestWithLockRetriesZeroMeansZero(t *testing.T) {
	st := resolve([]Option{WithLockRetries(0)})
	if st.lockRetries != 0 {
		t.Fatalf("WithLockRetries(0) resolved to %d retries", st.lockRetries)
	}
	// The same explicit zero works for the transaction restart budget.
	st = resolve([]Option{WithTxnRetries(0)})
	if st.txnRetries != 0 {
		t.Fatalf("WithTxnRetries(0) resolved to %d restarts", st.txnRetries)
	}
	// Unset still means the defaults.
	st = resolve(nil)
	def := defaultSettings()
	if !reflect.DeepEqual(st, def) {
		t.Fatalf("resolve(nil) = %+v, want defaults %+v", st, def)
	}
}

// TestZeroLockRetriesFailsFirstConflict wires the regression through the
// store: with WithLockRetries(0) a conflicted write fails on its first
// attempt instead of burning 12 retries. The call timeout is a second, as
// validationCluster's: the Busy answer comes back in one round trip, and a
// short timeout only lets a loaded host pass for a dead replica.
func TestZeroLockRetriesFailsFirstConflict(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 51})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	a, err := Open(net, items, WithSeed(51), WithCallTimeout(time.Second))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	b, err := OpenClient(net, items,
		WithSeed(52), WithCallTimeout(time.Second),
		WithLockRetries(0), WithTxnRetries(0))
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
			close(blocked)
			<-release
			return nil
		})
	}()
	<-blocked
	err = b.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 2) })
	close(release)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want conflict, got %v", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) || ce.Attempts != 1 {
		t.Fatalf("want exactly 1 attempt under WithLockRetries(0), got %+v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTypedAccessors(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 53})
	items := []ItemSpec{
		{Name: "count", Initial: 41, DMs: dms, Config: quorum.Majority(dms)},
		{Name: "note", Initial: nil, DMs: []string{"n0"}, Config: quorum.ReadOneWriteAll([]string{"n0"})},
	}
	store, err := Open(net, items, WithSeed(53))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	if err := store.Run(ctx, func(tx *Txn) error {
		n, err := ReadForUpdateAs[int](ctx, tx, "count")
		if err != nil {
			return err
		}
		if err := WriteAs(ctx, tx, "count", n+1); err != nil {
			return err
		}
		// A nil (never-written, nil-initial) item reads as the zero value.
		s, err := ReadAs[string](ctx, tx, "note")
		if err != nil {
			return err
		}
		if s != "" {
			t.Errorf("nil item read as %q, want zero string", s)
		}
		// A type mismatch is a descriptive error, not a panic.
		if _, err := ReadAs[string](ctx, tx, "count"); err == nil ||
			!strings.Contains(err.Error(), "int") || !strings.Contains(err.Error(), "string") {
			t.Errorf("type mismatch error must name both types, got %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := store.Run(ctx, func(tx *Txn) error {
		n, err := ReadAs[int](ctx, tx, "count")
		if err != nil {
			return err
		}
		if n != 42 {
			t.Errorf("count = %d, want 42", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialAblationStillWorks exercises the WithSequentialPhases
// baseline end to end, since benchmarks rely on it behaving like the seed.
func TestSequentialAblationStillWorks(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 54})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, WithSeed(54), WithSequentialPhases(true))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 3; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 3 {
			t.Errorf("read %d, want 3", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if store.Stats.Hedges.Value() != 0 || store.Stats.ExtraLockReleases.Value() != 0 {
		t.Error("sequential path must not hedge or release extras")
	}
}
