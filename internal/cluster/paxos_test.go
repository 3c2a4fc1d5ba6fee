package cluster

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/quorum"
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
			// No hedge timer: a phase widened by a scheduler hiccup would
			// leave a released surplus grant's lease at a replica holding
			// nothing, and a lease is soft state that recovery re-stamps
			// only for lock holders, so the whole probe would not compare.
			net, store, dms := openPaxos(t, 100+int64(i), WithHedgeDelay(0))
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
				if !reflect.DeepEqual(pre[dm], post[dm]) {
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
	clk := sim.NewManualClock(time.Unix(0, 0))
	net, store, dms := openPaxos(t, 110,
		WithCallTimeout(20*time.Millisecond),
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

	// One ResolveOrphans past the lease: its inspections name the orphan, the
	// probes find acceptor state, and the recovery proposer must adopt the
	// accepted commit. Every round is a call, so it returns after the
	// resolution.
	lapse(clk)
	if err := store.ResolveOrphans(ctx); err != nil {
		t.Fatal(err)
	}

	if got := store.Stats.AcceptorResolvesCommitted.Value(); got == 0 {
		t.Error("no acceptor-driven commit resolution recorded")
	}
	if got := store.Stats.OrphanReapsAborted.Value(); got != 0 {
		t.Errorf("%d abort reaps fired over a decided commit", got)
	}
	appliedQuorum(t, store, dms, 99)

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
// broadcast runs without the caller's cancellation (as the cleanup
// notifies, which carry no context, do). Without that, a cancelled caller
// strands every replica un-applied and the commit surfaces only after
// recovery.
func TestLearnFanoutSurvivesCallerCancel(t *testing.T) {
	net, store, dms := openPaxos(t, 120)
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
	appliedQuorum(t, store, dms, 31)
}

// appliedQuorum requires that no replica of "x" still holds a lock or an
// intention, and that the replicas serving val cover a write quorum: the
// ones the write phase wrote, each of which applied the commit.
func appliedQuorum(t *testing.T, store *Store, dms []string, val int) {
	t.Helper()
	applied := map[string]bool{}
	for _, dm := range dms {
		insp, err := store.Inspect(context.Background(), dm, "x")
		if err != nil {
			t.Fatal(err)
		}
		if insp.Locks != 0 || insp.Intents != 0 {
			t.Errorf("%s still holds %d lock(s), %d intention(s): %+v", dm, insp.Locks, insp.Intents, insp)
		}
		applied[dm] = insp.Val == val
	}
	for _, q := range quorum.Majority(dms).W {
		if q.SubsetOf(applied) {
			return
		}
	}
	t.Errorf("replicas serving %d are %v: no write quorum applied the commit", val, applied)
}

// orphanCluster opens a durable three-replica cluster whose store plays the
// coordinator that is about to die, and a second client of it that will
// trip over what the coordinator leaves behind. Both run on one manual
// clock, and sequential phases: a phase asks one quorum and waits for
// all of it, so a dead coordinator has no copy in flight that could land —
// and stamp a live lease — after the clock moved. Extra options shape the
// second client too.
func orphanCluster(t *testing.T, seed int64, protocol commit.Protocol, extra ...Option) (coord, blocked *Store, net *sim.Network, clk *sim.ManualClock, dms []string) {
	t.Helper()
	clk = sim.NewManualClock(time.Unix(0, 0))
	opts := append([]Option{
		WithCommitProtocol(protocol), WithSequentialPhases(true), WithHedgeDelay(0),
		WithClock(clk), WithRetryBackoff(time.Millisecond),
	}, extra...)
	net, coord, dms = openDurable(t, seed, opts...)
	blocked, err := OpenClient(net, coord.Items(), append([]Option{WithSeed(seed + 1000)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { blocked.Close(); coord.Close(); net.Close() })
	return coord, blocked, net, clk, dms
}

// lapse lets every lease stamped so far expire.
func lapse(clk *sim.ManualClock) { clk.Advance(LeaseTTL + time.Millisecond) }

// oneOutcome probes every DM for txn and requires all of them to hold the
// same verdict and nothing else of the transaction; it returns the verdict.
func oneOutcome(t *testing.T, store *Store, dms []string, txn TxnID) (committed bool) {
	t.Helper()
	probes := probeAll(t, store, dms, txn)
	committed = probes[dms[0]].Committed
	for dm, p := range probes {
		if !p.Known || p.Holds || p.Promised != -2 {
			t.Fatalf("%s is not done with %s: %+v", dm, txn, p)
		}
		if p.Committed != committed {
			t.Fatalf("split outcome for %s: %s says committed=%v, %s says %v", txn, dm, p.Committed, dms[0], committed)
		}
	}
	return committed
}

// TestBlockedClientResolvesCrashedCoordinator kills a coordinator at every
// stage of the commit tail, under both protocols. Whatever it left behind,
// the next conflicting transaction of ANOTHER client goes through — the
// refusal names the orphan, the refused client resolves it — after one
// sweep every replica holds the same verdict, the verdict is the one the stage
// dictates, and it was reached the way the stage dictates: a record
// re-served, acceptor state recovered, or an abort presumed.
func TestBlockedClientResolvesCrashedCoordinator(t *testing.T) {
	type how int
	const (
		presumed how = iota
		reserved
		recovered
	)
	cases := []struct {
		name       string
		protocol   commit.Protocol
		cut        CommitCrashOptions
		wantCommit bool
		via        how
	}{
		{"2pc/before-decide", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashBeforeDecide}, false, presumed},
		{"2pc/mid-decide", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashMidDecide, Deliver: 2}, false, presumed},
		{"2pc/before-learn", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashBeforeLearn}, false, presumed},
		{"2pc/mid-learn-0", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashMidLearn}, false, presumed},
		{"2pc/mid-learn-1", commit.TwoPhase, CommitCrashOptions{Stage: CommitCrashMidLearn, Deliver: 1}, true, reserved},
		{"paxos/before-decide", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashBeforeDecide}, false, presumed},
		{"paxos/mid-decide-0", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashMidDecide}, false, presumed},
		// One acceptance is no decision, but recovery must assume it could
		// have become one: the value accepted at the highest ballot wins.
		{"paxos/mid-decide-1", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashMidDecide, Deliver: 1}, true, recovered},
		{"paxos/mid-decide-2", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashMidDecide, Deliver: 2}, true, recovered},
		{"paxos/before-learn", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashBeforeLearn}, true, recovered},
		{"paxos/mid-learn-1", commit.PaxosCommit, CommitCrashOptions{Stage: CommitCrashMidLearn, Deliver: 1}, true, reserved},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, blocked, _, clk, dms := orphanCluster(t, 130+int64(i), tc.protocol)
			ctx := context.Background()
			if err := coord.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
				t.Fatal(err)
			}
			rep, err := coord.CrashCommit(ctx, "x", 2, tc.cut)
			if !errors.Is(err, ErrCommitAbandoned) {
				t.Fatalf("CrashCommit: %v, want ErrCommitAbandoned", err)
			}
			lapse(clk)

			var read int
			if err := blocked.Run(ctx, func(tx *Txn) (err error) {
				if read, err = ReadAs[int](ctx, tx, "x"); err != nil {
					return err
				}
				return tx.Write(ctx, "x", 3)
			}); err != nil {
				t.Fatalf("the next conflicting transaction: %v", err)
			}
			// Quorums route around a straggler a partial learn left behind, so
			// nobody may have tripped over it: that one is ResolveOrphans's.
			if err := blocked.ResolveOrphans(ctx); err != nil {
				t.Fatal(err)
			}
			committed := oneOutcome(t, blocked, dms, rep.Txn)
			if committed != tc.wantCommit || (read == 2) != committed {
				t.Fatalf("orphan committed=%v and the next reader saw %d, want committed=%v", committed, read, tc.wantCommit)
			}
			st := &blocked.Stats
			reaps, viaAcceptors := st.OrphanReapsAborted.Value()+st.OrphanReapsCommitted.Value(),
				st.AcceptorResolvesAborted.Value()+st.AcceptorResolvesCommitted.Value()
			switch tc.via {
			case presumed:
				if st.OrphanReapsAborted.Value() != 1 || reaps+viaAcceptors != 1 {
					t.Errorf("want one presumed abort, got %d reaps (%d aborts) and %d acceptor resolutions", reaps, st.OrphanReapsAborted.Value(), viaAcceptors)
				}
			case reserved:
				if st.OrphanReapsCommitted.Value() != 1 || reaps+viaAcceptors != 1 {
					t.Errorf("want one re-served commit record, got %d reaps (%d commits) and %d acceptor resolutions", reaps, st.OrphanReapsCommitted.Value(), viaAcceptors)
				}
			case recovered:
				if st.AcceptorResolvesCommitted.Value() != 1 || st.AcceptorRecoveries.Value() != 1 || reaps+viaAcceptors != 1 {
					t.Errorf("want one acceptor recovery to commit, got %d started, %d resolutions, %d reaps", st.AcceptorRecoveries.Value(), viaAcceptors, reaps)
				}
			}
			if got := coord.Stats.ResolutionQueries.Value(); got != 0 {
				t.Errorf("the dead coordinator's store ran %d probe rounds", got)
			}
		})
	}
}

// TestTwoClientsResolveOneOrphan: an orphan with acceptor state blocks two
// clients at once. Both run a proposer, both pick ballot 1, and each
// acceptor promises it to one of them; whoever gathers no majority retries
// higher or adopts what the other decided. Both transactions commit, in
// some order, over one outcome for the orphan.
func TestTwoClientsResolveOneOrphan(t *testing.T) {
	for seed := int64(150); seed < 156; seed++ {
		coord, a, net, clk, dms := orphanCluster(t, seed, commit.PaxosCommit)
		b, err := OpenClient(net, coord.Items(),
			WithSeed(seed+2000), WithCommitProtocol(commit.PaxosCommit),
			WithSequentialPhases(true), WithHedgeDelay(0),
			WithClock(clk), WithRetryBackoff(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		ctx := context.Background()
		rep, err := coord.CrashCommit(ctx, "x", 2, CommitCrashOptions{Stage: CommitCrashMidDecide, Deliver: int(seed % 3)})
		if !errors.Is(err, ErrCommitAbandoned) {
			t.Fatalf("seed %d: CrashCommit: %v", seed, err)
		}
		lapse(clk)

		var wg sync.WaitGroup
		for i, store := range []*Store{a, b} {
			wg.Add(1)
			go func(i int, store *Store) {
				defer wg.Done()
				if err := store.Run(ctx, func(tx *Txn) error {
					v, err := ReadAs[int](ctx, tx, "x")
					if err != nil {
						return err
					}
					return tx.Write(ctx, "x", v+10*(i+1))
				}); err != nil {
					t.Errorf("seed %d: blocked client %d: %v", seed, i, err)
				}
			}(i, store)
		}
		wg.Wait()
		base := 0
		if oneOutcome(t, a, dms, rep.Txn) {
			base = 2
		}
		// No acceptance cannot commit and a majority of them is a decision. One
		// acceptance goes either way: a proposer whose promising majority
		// missed it rightly picks abort.
		if accepted := seed % 3; (accepted == 0 && base == 2) || (accepted == 2 && base == 0) {
			t.Errorf("seed %d: %d acceptances recovered to committed=%v", seed, accepted, base == 2)
		}
		if err := a.Run(ctx, func(tx *Txn) error {
			v, err := ReadAs[int](ctx, tx, "x")
			if err == nil && v != base+30 {
				t.Errorf("seed %d: x = %d, want both increments over the orphan's outcome (%d)", seed, v, base+30)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResolveWithADMDown: a silent DM could be the one holding the commit
// record, so nothing is presumed while one is down — the orphan's locks
// stand and the blocked client fails as any conflict does. Acceptor
// recovery needs only a majority of the cohort and goes through; the DM
// that was down is served the record once it is back.
func TestResolveWithADMDown(t *testing.T) {
	ctx := context.Background()
	t.Run("no presumption", func(t *testing.T) {
		coord, blocked, net, clk, dms := orphanCluster(t, 160, commit.TwoPhase, WithLockRetries(2), WithTxnRetries(1))
		rep, err := coord.CrashCommit(ctx, "x", 2, CommitCrashOptions{Stage: CommitCrashBeforeDecide})
		if !errors.Is(err, ErrCommitAbandoned) {
			t.Fatal(err)
		}
		lapse(clk)
		net.Crash("dm2")
		write := func(tx *Txn) error { return tx.Write(ctx, "x", 3) }
		if err := blocked.Run(ctx, write); !errors.Is(err, ErrConflict) {
			t.Fatalf("write over an unresolvable orphan: %v, want a conflict", err)
		}
		if got := blocked.Stats.OrphanReapsAborted.Value(); got != 0 || blocked.Stats.ResolutionQueries.Value() == 0 {
			t.Fatalf("%d aborts presumed after %d probe rounds with dm2 silent, want none of some", got, blocked.Stats.ResolutionQueries.Value())
		}
		for dm, p := range probeAll(t, blocked, dms[:2], rep.Txn) {
			if p.Known || !p.Holds {
				t.Errorf("%s: %+v, want the orphan untouched", dm, p)
			}
		}
		net.Restart("dm2")
		if err := blocked.Run(ctx, write); err != nil {
			t.Fatalf("write once every DM answers: %v", err)
		}
		if oneOutcome(t, blocked, dms, rep.Txn) {
			t.Fatal("an un-voted transaction committed")
		}
	})
	t.Run("acceptor recovery on a majority", func(t *testing.T) {
		coord, blocked, net, clk, dms := orphanCluster(t, 161, commit.PaxosCommit, WithLockRetries(2), WithTxnRetries(1))
		rep, err := coord.CrashCommit(ctx, "x", 2, CommitCrashOptions{Stage: CommitCrashBeforeLearn})
		if !errors.Is(err, ErrCommitAbandoned) {
			t.Fatal(err)
		}
		lapse(clk)
		net.Crash("dm2")
		if err := blocked.Run(ctx, func(tx *Txn) error {
			v, err := ReadAs[int](ctx, tx, "x")
			if err == nil && v != 2 {
				t.Errorf("read %d behind a decided commit, want 2", v)
			}
			return err
		}); err != nil {
			t.Fatalf("read behind a decided commit with a cohort minority down: %v", err)
		}
		if got := blocked.Stats.AcceptorResolvesCommitted.Value(); got != 1 {
			t.Fatalf("%d acceptor recoveries to commit, want 1", got)
		}
		net.Restart("dm2")
		if p := probeAll(t, blocked, dms[2:], rep.Txn)["dm2"]; p.Known || !p.Holds {
			t.Fatalf("dm2 while it was down: %+v, want it still holding the orphan", p)
		}
		lapse(clk)
		if err := blocked.ResolveOrphans(ctx); err != nil {
			t.Fatal(err)
		}
		if !oneOutcome(t, blocked, dms, rep.Txn) || blocked.Stats.OrphanReapsCommitted.Value() != 1 {
			t.Fatalf("the straggler was not served the record (%d re-served)", blocked.Stats.OrphanReapsCommitted.Value())
		}
	})
}
