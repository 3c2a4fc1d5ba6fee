package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/sim"
)

// TestTypedErrors pins the error contract across the shed, expiry-at-
// dequeue, conflict, unavailability and lease paths: every
// structured error matches its sentinel(s) through errors.Is, exposes its
// detail through errors.As, and never matches sentinels from other
// failure families.
func TestTypedErrors(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
	}{
		{"conflict", ErrConflict},
		{"unavailable", ErrUnavailable},
		{"lease", ErrLeaseExpired},
		{"overloaded", ErrOverloaded},
	}
	cases := []struct {
		name    string
		err     error
		is      []error // sentinels that must match
		mention string  // substring the message must carry
	}{
		{
			name:    "conflict",
			err:     &ConflictError{Item: "x", Txn: "c1.t1", Phase: "read", Attempts: 3, Responded: []string{"B", "A"}},
			is:      []error{ErrConflict},
			mention: "lock conflict",
		},
		{
			name:    "unavailable",
			err:     &UnavailableError{Item: "x", Txn: "c1.t1", Phase: "write", Attempts: 2, Missing: []string{"C"}},
			is:      []error{ErrUnavailable},
			mention: "no quorum",
		},
		{
			name: "lease expired",
			err:  &LeaseExpiredError{Txn: "c1.t1", DM: "A"},
			// A lapsed lease aborts the transaction exactly like a conflict,
			// so Run's restart logic must see both.
			is:      []error{ErrLeaseExpired, ErrConflict},
			mention: "lease",
		},
		{
			name:    "shed at admission",
			err:     &OverloadedError{Item: "x", Txn: "c1.t1", Phase: "read", Attempts: 1, Shed: []string{"A", "B"}},
			is:      []error{ErrOverloaded},
			mention: "shed the request at admission",
		},
		{
			name:    "expired on arrival",
			err:     &OverloadedError{Item: "x", Txn: "c1.t1", Phase: "read", Attempts: 1, Shed: []string{"A"}, Expired: true},
			is:      []error{ErrOverloaded},
			mention: "expired in a replica queue",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, want := range tc.is {
				if !errors.Is(tc.err, want) {
					t.Errorf("errors.Is(%T, %v) = false, want true", tc.err, want)
				}
			}
			// No cross-family matches beyond the declared ones.
			for _, s := range sentinels {
				declared := false
				for _, want := range tc.is {
					if s.err == want {
						declared = true
					}
				}
				if !declared && errors.Is(tc.err, s.err) {
					t.Errorf("errors.Is(%T, %v) = true, want false", tc.err, s.err)
				}
			}
			if !strings.Contains(tc.err.Error(), tc.mention) {
				t.Errorf("message %q does not mention %q", tc.err.Error(), tc.mention)
			}
		})
	}
}

// TestTypedErrorsAs pins errors.As extraction of the overload-path detail.
func TestTypedErrorsAs(t *testing.T) {
	var wrapped error = &OverloadedError{
		Item: "x", Txn: "c1.t1", Phase: "read",
		Attempts: 4, Shed: []string{"B", "A"}, Expired: true,
	}
	var oe *OverloadedError
	if !errors.As(wrapped, &oe) {
		t.Fatal("errors.As failed for OverloadedError")
	}
	if oe.Attempts != 4 || len(oe.Shed) != 2 || !oe.Expired {
		t.Errorf("extracted detail = %+v", oe)
	}
}

// TestRefusesMoreThan64Targets: a quorum phase keeps its books in 64-bit
// masks over an item's replicas, so Open, Reconfigure and MigrateItem refuse
// any configuration whose read or write quorums span more, with a typed
// error and before a single request is sent.
func TestRefusesMoreThan64Targets(t *testing.T) {
	dms := make([]string, MaxQuorumTargets+1)
	for i := range dms {
		dms[i] = fmt.Sprintf("dm%02d", i)
	}
	wide := quorum.ReadOneWriteAll(dms) // 65 read quorums of one, one write quorum of all
	refused := func(what string, err error) {
		t.Helper()
		var tm *TooManyTargetsError
		if !errors.As(err, &tm) || tm.Item != "x" || tm.Targets != len(dms) {
			t.Fatalf("%s: %v, want a TooManyTargetsError for x spanning %d", what, err, len(dms))
		}
	}
	net := sim.NewNetwork(sim.Config{Seed: 1})
	defer net.Close()

	_, err := Open(net, []ItemSpec{{Name: "x", DMs: dms, Config: wide}})
	refused("Open", err)

	// 64 targets is the limit, not past it.
	at := quorum.ReadOneWriteAll(dms[:MaxQuorumTargets])
	if err := checkTargets("x", newKnownCfg(at)); err != nil {
		t.Fatalf("%d targets refused: %v", MaxQuorumTargets, err)
	}

	// An item may have more replicas than that while its quorums span fewer;
	// a move to a group past the limit is refused like a reconfiguration.
	others := make([]string, len(dms))
	for i := range others {
		others[i] = fmt.Sprintf("e%02d", i)
	}
	ring, err := shard.New(1, 64, []shard.Group{{Name: "g0", DMs: dms}, {Name: "g1", DMs: others}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(net, []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms[:3])}},
		WithSeed(1), WithRing(ring))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	sent := net.Stats().Sent
	refused("Reconfigure", store.Reconfigure(ctx, "x", wide))
	refused("MigrateItem", store.MigrateItem(ctx, "x", "g1", CommitCrashOptions{}))
	if n := net.Stats().Sent; n != sent {
		t.Errorf("the refusals sent %d messages, want none", n-sent)
	}
}
