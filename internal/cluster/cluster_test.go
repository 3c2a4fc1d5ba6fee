package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testCluster(t *testing.T, nDMs int, cfg func([]string) quorum.Config, netCfg sim.Config) (*Store, *sim.Network, []string) {
	t.Helper()
	dms := make([]string, nDMs)
	for i := range dms {
		dms[i] = fmt.Sprintf("dm%d", i)
	}
	net := sim.NewNetwork(netCfg)
	store, err := Open(net, []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: cfg(dms)}},
		WithCallTimeout(25*time.Millisecond),
		WithSeed(netCfg.Seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		store.Close()
		net.Close()
	})
	return store, net, dms
}

func fastNet(seed int64) sim.Config {
	return sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: seed}
}

func TestReadWriteRoundTrip(t *testing.T) {
	store, _, _ := testCluster(t, 3, quorum.Majority, fastNet(1))
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error {
		if err := tx.Write(ctx, "x", 42); err != nil {
			return err
		}
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 42 {
			return fmt.Errorf("read own write: got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A later transaction sees the committed value.
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 42 {
			return fmt.Errorf("committed read: got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialValueVisible(t *testing.T) {
	store, _, _ := testCluster(t, 3, quorum.ReadOneWriteAll, fastNet(2))
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 0 {
			return fmt.Errorf("initial value: got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtransactionAbortDiscardsWrites(t *testing.T) {
	store, _, _ := testCluster(t, 3, quorum.Majority, fastNet(3))
	ctx := context.Background()
	boom := errors.New("boom")
	if err := store.Run(ctx, func(tx *Txn) error {
		if err := tx.Write(ctx, "x", 1); err != nil {
			return err
		}
		// The subtransaction writes and then fails; the parent tolerates
		// the abort and continues — the paper's headline capability.
		if err := tx.Sub(ctx, func(sub *Txn) error {
			if err := sub.Write(ctx, "x", 99); err != nil {
				return err
			}
			return boom
		}); !errors.Is(err, boom) {
			return fmt.Errorf("sub error: %v", err)
		}
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 1 {
			return fmt.Errorf("aborted sub's write leaked: got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// After commit, the surviving value is the parent's.
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 1 {
			return fmt.Errorf("final value: got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtransactionCommitVisibleToParent(t *testing.T) {
	store, _, _ := testCluster(t, 5, quorum.Majority, fastNet(4))
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error {
		if err := tx.Sub(ctx, func(sub *Txn) error {
			return sub.Write(ctx, "x", 7)
		}); err != nil {
			return err
		}
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 7 {
			return fmt.Errorf("parent should see child's write: got %v", v)
		}
		return tx.Sub(ctx, func(sub *Txn) error {
			v, err := sub.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 7 {
				return fmt.Errorf("sibling should see committed sibling's write: got %v", v)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTopAbortDiscardsEverything(t *testing.T) {
	store, _, _ := testCluster(t, 3, quorum.Majority, fastNet(5))
	ctx := context.Background()
	boom := errors.New("boom")
	if err := store.Run(ctx, func(tx *Txn) error {
		if err := tx.Write(ctx, "x", 123); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 0 {
			return fmt.Errorf("aborted txn's write leaked: got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentIncrementsSerializable(t *testing.T) {
	store, _, _ := testCluster(t, 3, quorum.Majority, fastNet(6))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workers, perWorker = 4, 5
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := store.Run(ctx, func(tx *Txn) error {
					v, err := tx.ReadForUpdate(ctx, "x")
					if err != nil {
						return err
					}
					return tx.Write(ctx, "x", v.(int)+1)
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != workers*perWorker {
			return fmt.Errorf("lost updates: got %v, want %d", v, workers*perWorker)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMinorityCrashTolerated(t *testing.T) {
	store, net, dms := testCluster(t, 5, quorum.Majority, fastNet(7))
	ctx := context.Background()
	net.Crash(dms[0])
	net.Crash(dms[1])
	if err := store.Run(ctx, func(tx *Txn) error {
		if err := tx.Write(ctx, "x", 5); err != nil {
			return err
		}
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 5 {
			return fmt.Errorf("got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatalf("majority up, op should succeed: %v", err)
	}
}

func TestMajorityCrashBlocksWrites(t *testing.T) {
	store, net, dms := testCluster(t, 3, quorum.Majority, fastNet(8))
	ctx := context.Background()
	net.Crash(dms[0])
	net.Crash(dms[1])
	err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 5) })
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

func TestCrashedReplicaRecoversStaleThenCatchesUpViaVersionNumbers(t *testing.T) {
	store, net, dms := testCluster(t, 3, quorum.Majority, fastNet(9))
	ctx := context.Background()
	net.Crash(dms[2])
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 10) }); err != nil {
		t.Fatal(err)
	}
	net.Restart(dms[2])
	// dms[2] is stale (vn 0); majority reads must still return 10 because
	// any read quorum intersects the write quorum that holds vn 1.
	for i := 0; i < 5; i++ {
		if err := store.Run(ctx, func(tx *Txn) error {
			v, err := tx.Read(ctx, "x")
			if err != nil {
				return err
			}
			if v != 10 {
				return fmt.Errorf("stale read: got %v", v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconfigureExcludesCrashedDM(t *testing.T) {
	store, net, dms := testCluster(t, 5, quorum.Majority, fastNet(10))
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }); err != nil {
		t.Fatal(err)
	}
	// Two replicas die; majority of 5 still works, but shrink the quorums
	// to the three live DMs so future ops don't wait on the dead ones.
	net.Crash(dms[3])
	net.Crash(dms[4])
	live := dms[:3]
	if err := store.Reconfigure(ctx, "x", quorum.Majority(live)); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 1 {
			return fmt.Errorf("value across reconfiguration: got %v", v)
		}
		return tx.Write(ctx, "x", 2)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleClientDiscoversNewConfiguration(t *testing.T) {
	store, _, dms := testCluster(t, 5, quorum.Majority, fastNet(11))
	ctx := context.Background()
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 77) }); err != nil {
		t.Fatal(err)
	}
	if err := store.Reconfigure(ctx, "x", quorum.ReadOneWriteAll(dms)); err != nil {
		t.Fatal(err)
	}
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 88) }); err != nil {
		t.Fatal(err)
	}
	// Forget the configuration: the next read must chase the generation
	// number from the old majority config to read-one/write-all and still
	// return the latest value.
	store.ForgetConfig("x")
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 88 {
			return fmt.Errorf("stale client read %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	cfg := fastNet(12)
	cfg.DropProb = 0.02
	store, _, _ := testCluster(t, 3, quorum.Majority, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 10; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		if v != 10 {
			return fmt.Errorf("got %v", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTxnIDAncestry(t *testing.T) {
	cases := []struct {
		a, b TxnID
		want bool
	}{
		{"t1", "t1", true},
		{"t1", "t1/0", true},
		{"t1", "t1/0/4", true},
		{"t1/0", "t1", false},
		{"t1", "t10", false},
		{"t1/2", "t1/20", false},
	}
	for _, c := range cases {
		if got := c.a.IsAncestorOf(c.b); got != c.want {
			t.Errorf("IsAncestorOf(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if p, ok := TxnID("t1/2/3").Parent(); !ok || p != "t1/2" {
		t.Errorf("Parent(t1/2/3) = %v %v", p, ok)
	}
	if _, ok := TxnID("t1").Parent(); ok {
		t.Error("top-level should have no parent")
	}
	if top := TxnID("t9/4/2").Top(); top != "t9" {
		t.Errorf("Top = %v", top)
	}
}

// TestLogicalOpsBookkeptOnce: every public form of a logical read or write
// goes through the one operation path, so each counts, times, traces and
// records its operation exactly once.
func TestLogicalOpsBookkeptOnce(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		write bool
		op    func(tx *Txn) error
	}{
		{"Read", false, func(tx *Txn) error { _, err := tx.Read(ctx, "x"); return err }},
		{"ReadVersioned", false, func(tx *Txn) error { _, _, err := tx.ReadVersioned(ctx, "x"); return err }},
		{"ReadForUpdate", false, func(tx *Txn) error { _, err := tx.ReadForUpdate(ctx, "x"); return err }},
		{"Write", true, func(tx *Txn) error { return tx.Write(ctx, "x", 1) }},
		{"WriteVersioned", true, func(tx *Txn) error { _, err := tx.WriteVersioned(ctx, "x", 1); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dms := []string{"dm0", "dm1", "dm2"}
			net := sim.NewNetwork(fastNet(71))
			log, rec := trace.NewLog(), checker.NewRecorder()
			store, err := Open(net, []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
				WithSeed(71), WithTrace(log), WithHistory(rec))
			if err != nil {
				net.Close()
				t.Fatal(err)
			}
			defer func() { store.Close(); net.Close() }()
			if err := store.Run(ctx, tc.op); err != nil {
				t.Fatal(err)
			}
			st := &store.Stats
			got := map[string]int{
				"Reads": int(st.Reads.Value()), "ReadLatency": st.ReadLatency.Count(), "read events": len(log.Filter("read")),
				"Writes": int(st.Writes.Value()), "WriteLatency": st.WriteLatency.Count(), "write events": len(log.Filter("write")),
			}
			want := map[string]int{"Reads": 1, "ReadLatency": 1, "read events": 1, "Writes": 0, "WriteLatency": 0, "write events": 0}
			kind := checker.OpRead
			if tc.write {
				want = map[string]int{"Reads": 0, "ReadLatency": 0, "read events": 0, "Writes": 1, "WriteLatency": 1, "write events": 1}
				kind = checker.OpWrite
			}
			for k, w := range want {
				if got[k] != w {
					t.Errorf("%s = %d, want %d", k, got[k], w)
				}
			}
			txns := rec.History().Txns
			if len(txns) != 1 || len(txns[0].Ops) != 1 || txns[0].Ops[0].Kind != kind {
				t.Errorf("history recorded %+v, want one transaction with one op of kind %v", txns, kind)
			}
		})
	}
}

// TestConcurrentSiblingsStayIsolated: two subtransactions of one top-level
// transaction run at once, and each reads x for update and then writes it.
// Moss's rule keeps the second off x until the first commits, so in the
// committed history — child operations are recorded in the order the
// children committed — the first child read the initial value and the
// second read the first one's write, version number included. (A plain Read
// would have both children hold read locks and then wait on each other's
// for their writes.)
func TestConcurrentSiblingsStayIsolated(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		dms := []string{"dm0", "dm1", "dm2"}
		net := sim.NewNetwork(fastNet(seed))
		rec := checker.NewRecorder()
		rec.DeclareItem("x", "init")
		store, err := Open(net, []ItemSpec{{Name: "x", Initial: "init", DMs: dms, Config: quorum.Majority(dms)}},
			WithSeed(seed), WithCallTimeout(time.Second), WithRetryBackoff(time.Millisecond), WithHistory(rec))
		if err != nil {
			net.Close()
			t.Fatal(err)
		}
		err = store.Run(ctx, func(tx *Txn) error {
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = tx.Sub(ctx, func(sub *Txn) error {
						if _, err := sub.ReadForUpdate(ctx, "x"); err != nil {
							return err
						}
						return sub.Write(ctx, "x", fmt.Sprintf("sibling%d", i))
					})
				}(i)
			}
			wg.Wait()
			return errors.Join(errs...)
		})
		store.Close()
		net.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hist := rec.History()
		if err := hist.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(hist.Txns) != 1 || len(hist.Txns[0].Ops) != 4 {
			t.Fatalf("seed %d: history %+v, want one transaction of four operations", seed, hist.Txns)
		}
		ops := hist.Txns[0].Ops
		first, second := ops[1], ops[3]
		switch {
		case ops[0].Kind != checker.OpRead || ops[0].Value != "init" || ops[0].VN != 0:
			t.Errorf("seed %d: the first child read %+v, want the initial value", seed, ops[0])
		case first.Kind != checker.OpWrite || second.Kind != checker.OpWrite || first.Value == second.Value:
			t.Errorf("seed %d: writes %+v and %+v, want one by each child", seed, first, second)
		case ops[2].Kind != checker.OpRead || ops[2].Value != first.Value || ops[2].VN != first.VN:
			t.Errorf("seed %d: the second child read %+v, want the first child's write %+v", seed, ops[2], first)
		case second.VN != first.VN+1:
			t.Errorf("seed %d: the second write installed vn %d, want %d", seed, second.VN, first.VN+1)
		}
	}
}
