package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/sim"
)

func openPaxos(t *testing.T, seed int64, opts ...Option) (*sim.Network, *Store, []string) {
	t.Helper()
	return openDurable(t, seed, append([]Option{WithCommitProtocol(commit.PaxosCommit)}, opts...)...)
}

// probeAll snapshots every DM's resolution/acceptor view of txn.
func probeAll(t *testing.T, store *Store, dms []string, txn TxnID) map[string]ResolutionProbeResp {
	t.Helper()
	ctx := context.Background()
	out := map[string]ResolutionProbeResp{}
	for _, dm := range dms {
		resp, err := store.ResolutionProbe(ctx, dm, txn)
		if err != nil {
			t.Fatalf("probe %s: %v", dm, err)
		}
		out[dm] = resp
	}
	return out
}

// TestPaxosCleanPathCommits is the smoke test: under PaxosCommit the
// ordinary Run path decides through the acceptors (PaxosCommits advances)
// and the committed values read back exactly as under TwoPhase.
func TestPaxosCleanPathCommits(t *testing.T) {
	net, store, _ := openPaxos(t, 91)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 5; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 5 {
			t.Errorf("read %d, want 5", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats.PaxosCommits.Value(); got != 5 {
		t.Errorf("%d paxos commits, want 5", got)
	}
	if got := store.Stats.PaxosAccepts.Value(); got < 5*2 {
		t.Errorf("%d ballot-0 accepts, want at least a majority per txn", got)
	}
}

// TestAcceptorStateSurvivesAmnesia is the satellite-3 durability table: a
// coordinator dies mid-Phase-2a having delivered ballot-0 accepts to a
// prefix of the cohort, then every DM suffers an amnesia crash. The WAL
// replay must rebuild each acceptor to the identical promised/accepted
// state — including the DMs that never heard the 2a and must come back
// with no acceptor at all (not a fabricated one).
func TestAcceptorStateSurvivesAmnesia(t *testing.T) {
	cases := []struct {
		name        string
		deliver     int
		wantDecided bool
	}{
		{"negative-clamps-to-none", -1, false},
		{"no-accepts", 0, false},
		{"minority-accepted", 1, false},
		{"majority-accepted", 2, true},
		{"all-accepted", 3, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, store, dms := openPaxos(t, 100+int64(i), WithSynchronousCleanup(true))
			defer func() { store.Close(); net.Close() }()
			ctx := context.Background()

			rep, err := store.CrashCommit(ctx, "x", 42, CommitCrashOptions{
				Stage: CommitCrashMidDecide, Deliver: tc.deliver,
			})
			if !errors.Is(err, ErrCommitAbandoned) {
				t.Fatalf("CrashCommit: %v, want ErrCommitAbandoned", err)
			}
			want := max(0, tc.deliver)
			if rep.Accepts != want {
				t.Fatalf("%d accepts delivered, want %d", rep.Accepts, want)
			}
			if rep.Decided != tc.wantDecided {
				t.Fatalf("decided=%v, want %v", rep.Decided, tc.wantDecided)
			}

			pre := probeAll(t, store, dms, rep.Txn)
			accepted := 0
			for dm, p := range pre {
				if p.AccBal >= 0 {
					accepted++
					if !p.AccCommit || p.Promised != 0 {
						t.Errorf("%s accepted state %+v, want ballot-0 commit", dm, p)
					}
				} else if p.Promised != -2 {
					t.Errorf("%s has acceptor state %+v without a delivered 2a", dm, p)
				}
			}
			if accepted != want {
				t.Fatalf("%d acceptors hold the value, want %d", accepted, want)
			}

			for _, dm := range dms {
				amnesia(t, store, dm)
			}
			post := probeAll(t, store, dms, rep.Txn)
			for _, dm := range dms {
				if pre[dm] != post[dm] {
					t.Errorf("%s replayed to %+v, want identical pre-crash %+v", dm, post[dm], pre[dm])
				}
			}
		})
	}
}

// TestRecoveryAdoptsDecidedOutcome pins the adoption rule: once a
// coordinator decided commit at an acceptor majority and died before any
// learn, (a) acceptor recovery must reconstruct and finish that commit —
// never presume abort over it — and (b) a restarted coordinator replaying
// its ballot-0 proposal against a resolved DM gets the decision back
// (Decided answer) instead of a vote it could mistake for an open round.
func TestRecoveryAdoptsDecidedOutcome(t *testing.T) {
	ttl := 50 * time.Millisecond
	clk := sim.NewManualClock(time.Unix(0, 0))
	net, store, dms := openPaxos(t, 110,
		WithSynchronousCleanup(true),
		WithCallTimeout(20*time.Millisecond),
		WithLeaseTTL(ttl),
		WithClock(clk),
	)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	rep, err := store.CrashCommit(ctx, "x", 99, CommitCrashOptions{Stage: CommitCrashBeforeLearn})
	if !errors.Is(err, ErrCommitAbandoned) {
		t.Fatalf("CrashCommit: %v, want ErrCommitAbandoned", err)
	}
	if !rep.Decided {
		t.Fatalf("BeforeLearn crash must leave a decided outcome: %+v", rep)
	}
	// Nobody applied: the outcome exists only as acceptor hard state.
	for _, dm := range dms {
		if insp, err := store.Inspect(ctx, dm, "x"); err != nil || insp.Val == 99 {
			t.Fatalf("%s applied the commit before any learn (insp %+v, err %v)", dm, insp, err)
		}
	}

	// One reaper round: the expired lease triggers the peer inquiry, the
	// acceptor answer routes it into Paxos recovery, and recovery must
	// adopt the accepted commit.
	clk.Advance(ttl + time.Millisecond)
	if _, err := store.SweepOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// A durable acceptor answers a recovery round once its log flush is
	// through, and the network's barrier cannot see a flush in progress:
	// give the one round until a deadline, not one look.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		net.Quiesce()
		if store.Stats.AcceptorResolvesCommitted.Value() > 0 || time.Now().After(deadline) {
			break
		}
	}
	net.Quiesce()

	if got := store.Stats.AcceptorResolvesCommitted.Value(); got == 0 {
		t.Error("no acceptor-driven commit resolution recorded")
	}
	if got := store.Stats.OrphanReapsAborted.Value(); got != 0 {
		t.Errorf("%d abort reaps fired over a decided commit", got)
	}
	for _, dm := range dms {
		insp, err := store.Inspect(ctx, dm, "x")
		if err != nil {
			t.Fatal(err)
		}
		if insp.Val != 99 || insp.Locks != 0 || insp.Intents != 0 {
			t.Errorf("%s did not converge on the decided commit: %+v", dm, insp)
		}
	}

	// The restarted coordinator replays its ballot-0 proposal (amnesia: it
	// might even propose the wrong way). A resolved DM must answer with
	// the decision, and the decided state must not move.
	raw, err := store.client.Call(ctx, dms[0], PaxosAcceptReq{
		Txn: rep.Txn, Ballot: 0, Commit: false, Cohort: dms,
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, ok := raw.(PaxosAcceptResp)
	if !ok || !ans.Decided || !ans.DecCommit {
		t.Fatalf("resolved DM answered %#v, want Decided commit", raw)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := ReadAs[int](ctx, tx, "x")
		if err != nil {
			return err
		}
		if v != 99 {
			t.Errorf("read %d after replayed proposal, want 99", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLearnFanoutSurvivesCallerCancel is the satellite-4 guard: once the
// acceptors decided commit, the caller cancelling its context must not
// abandon the learn fan-out — the outcome is already chosen, so the
// broadcast runs detached from the caller's lifetime (mirroring the
// detached cleanup sweeps). Without that, a cancelled caller strands every
// replica un-applied and the commit surfaces only after recovery.
func TestLearnFanoutSurvivesCallerCancel(t *testing.T) {
	net, store, dms := openPaxos(t, 120, WithSynchronousCleanup(true))
	defer func() { store.Close(); net.Close() }()
	bg := context.Background()

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	store.Hooks.BeforeCommitTop = func(TxnID) { cancel() } // fires after the decide, before the learn
	err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 31) })
	store.Hooks.BeforeCommitTop = nil
	if err != nil {
		t.Fatalf("decided commit must survive caller cancel: %v", err)
	}
	if got := store.Stats.PaxosCommits.Value(); got != 1 {
		t.Fatalf("%d paxos commits, want 1", got)
	}
	for _, dm := range dms {
		insp, err := store.Inspect(bg, dm, "x")
		if err != nil {
			t.Fatal(err)
		}
		if insp.Val != 31 || insp.Locks != 0 || insp.Intents != 0 {
			t.Errorf("%s missed the learn fan-out: %+v", dm, insp)
		}
	}
}
