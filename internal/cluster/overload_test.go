package cluster

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestCallBudgetArithmetic(t *testing.T) {
	s := &Store{opts: settings{callTimeout: 100 * time.Millisecond}}

	if d, err := s.callBudget(context.Background()); err != nil || d != 100*time.Millisecond {
		t.Errorf("no deadline: budget = %v, %v; want full call timeout", d, err)
	}

	loose, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if d, err := s.callBudget(loose); err != nil || d != 100*time.Millisecond {
		t.Errorf("loose deadline: budget = %v, %v; want full call timeout", d, err)
	}

	tight, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	d, err := s.callBudget(tight)
	if err != nil {
		t.Fatalf("tight deadline: %v", err)
	}
	// Remaining (~20ms) minus the 1ms hop allowance, clamped strictly under
	// the caller's own budget — never the full call timeout.
	if d <= 0 || d > 20*time.Millisecond {
		t.Errorf("tight deadline: budget = %v, want within (0, 20ms]", d)
	}

	spent, cancel3 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel3()
	time.Sleep(time.Millisecond)
	if _, err := s.callBudget(spent); err == nil {
		t.Error("exhausted deadline: want fail-fast error, got a budget")
	}
}

func TestAIMDLimiter(t *testing.T) {
	l := newAIMDLimiter(8)
	if got := l.ceiling(); got != 8 {
		t.Fatalf("initial ceiling = %d", got)
	}
	l.onOverload()
	l.onOverload()
	if got := l.ceiling(); got != 2 {
		t.Errorf("ceiling after two overloads = %d, want 2 (multiplicative decrease)", got)
	}
	for i := 0; i < 200; i++ {
		l.onSuccess()
	}
	if got := l.ceiling(); got != 8 {
		t.Errorf("ceiling after sustained success = %d, want regrowth to max 8", got)
	}
	for i := 0; i < 10; i++ {
		l.onOverload()
	}
	if got := l.ceiling(); got != 1 {
		t.Errorf("ceiling floor = %d, want 1 (limiter may shed, never wedge)", got)
	}

	// One slot at ceiling 1: the second acquire must block until release,
	// and a dead context must abort the wait.
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.acquire(dead); err == nil {
		t.Fatal("acquire beyond the ceiling with a dead context must fail")
	}
	done := make(chan error, 1)
	go func() { done <- l.acquire(context.Background()) }()
	select {
	case <-done:
		t.Fatal("acquire succeeded beyond the ceiling")
	case <-time.After(20 * time.Millisecond):
	}
	l.release()
	if err := <-done; err != nil {
		t.Fatalf("blocked acquire failed after release: %v", err)
	}
}

// TestHedgeClampToCallerDeadline pins the deadline arithmetic of runPhase:
// with unresponsive replicas and a caller deadline far below the call
// timeout, the phase (hedges included) must give up by the caller's
// deadline, and no request copies may be issued after the operation
// returns — a hedge must never outlive the transaction on a fresh full
// call timeout. The copies the phase abandons carry that clamped deadline
// too, so none is still pending once the caller's deadline has passed.
func TestHedgeClampToCallerDeadline(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{Seed: 11})
	defer net.Close()
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items,
		WithSeed(11),
		WithCallTimeout(2*time.Second), // far beyond the caller's budget
		WithHedgeDelay(5*time.Millisecond),
		WithLockRetries(0),
		WithTxnRetries(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, dm := range dms {
		net.Crash(dm)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	rerr := store.Run(ctx, func(tx *Txn) error {
		_, err := tx.Read(ctx, "x")
		return err
	})
	elapsed := time.Since(start)
	if rerr == nil {
		t.Fatal("read of a fully crashed cluster succeeded")
	}
	if elapsed > time.Second {
		t.Fatalf("operation took %v; the 2s call timeout leaked past the 50ms caller deadline", elapsed)
	}
	// No stray traffic after return: the phase's timer stops with it, and
	// an abandoned copy is never sent again.
	sent := net.Stats().Sent
	time.Sleep(50 * time.Millisecond)
	if after := net.Stats().Sent; after != sent {
		t.Errorf("%d sends issued after the operation returned", after-sent)
	}
	if n := store.client.(*sim.Node).Pending(); n != 0 {
		t.Errorf("%d copies still pending past the caller's deadline", n)
	}
}

// TestLeaseFenceHonorsCallerDeadline extends the deadline rule to the commit
// tail: a Run whose context cannot cover the 1ms hop allowance must fail the
// lease fence before a single renewal is sent — a renewal that cannot finish
// in time is dropped at the client, not forwarded to die in a replica queue.
func TestLeaseFenceHonorsCallerDeadline(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{Seed: 13})
	defer net.Close()
	var renewals atomic.Int32
	tap := tapTransport{Transport: net, onCall: func(_ string, req any) bool {
		if _, ok := req.(RenewLeaseReq); ok {
			renewals.Add(1)
		}
		return false
	}}
	clk := sim.NewManualClock(time.Unix(0, 0))
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(tap, items, WithSeed(13), WithClock(clk), WithTxnRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	bg := context.Background()
	ctx, cancel := context.WithTimeout(bg, hopAllowance/2) // never fits the allowance
	defer cancel()
	err = store.Run(ctx, func(tx *Txn) error {
		// The body spends its own budget; the tail runs on Run's.
		if err := tx.Write(bg, "x", 1); err != nil {
			return err
		}
		clk.Advance(LeaseTTL) // the grants' lease stamps are stale: the fence must renew
		return nil
	})
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("Run = %v, want the lease fence to fail", err)
	}
	if n := renewals.Load(); n != 0 {
		t.Errorf("%d renewals sent on a spent deadline", n)
	}
	if got := store.Stats.LeaseExpiries.Value(); got != 1 {
		t.Errorf("LeaseExpiries = %d, want 1", got)
	}
}

// TestOverloadedErrorSurfacesOnShed drives more concurrent reads at a
// capacity-1 replica than its queue admits: shed callers must get a typed
// OverloadedError naming the DM — not a timeout — while admitted callers
// complete normally.
func TestOverloadedErrorSurfacesOnShed(t *testing.T) {
	dms := []string{"dm0"}
	net := sim.NewNetwork(sim.Config{Seed: 12})
	defer net.Close()
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items,
		WithSeed(12),
		WithCallTimeout(2*time.Second),
		WithHedgeDelay(0),
		WithLockRetries(0),
		WithTxnRetries(0),
		WithAdmissionCapacity(1),
		WithServiceTime(30*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const clients = 6
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = store.Run(context.Background(), func(tx *Txn) error {
				_, err := tx.Read(context.Background(), "x")
				return err
			})
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			shed++
			var oe *OverloadedError
			if !errors.As(err, &oe) {
				t.Errorf("overload error lacks detail: %v", err)
			} else if len(oe.Shed) != 1 || oe.Shed[0] != "dm0" {
				t.Errorf("shed DMs = %v, want [dm0]", oe.Shed)
			}
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if ok == 0 {
		t.Error("no client completed; admission starved everyone")
	}
	if shed == 0 {
		t.Error("no client was shed; admission never bounded the queue")
	}
	if got := store.Stats.AdmissionSheds.Value(); got == 0 {
		t.Error("AdmissionSheds counter never incremented")
	}
}

// TestBurstReport pins the deterministic overload device the chaos harness
// uses: injected bursts bypass the network, so the admission verdicts are
// a pure function of the burst shape.
func TestBurstReport(t *testing.T) {
	run := func() (BurstReport, sim.OverloadStats) {
		dms := []string{"dm0", "dm1", "dm2"}
		net := sim.NewNetwork(sim.Config{Seed: 13})
		defer net.Close()
		items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
		store, err := Open(net, items, WithSeed(13), WithAdmissionCapacity(4))
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		rep := store.Burst("dm0", 10, 3)
		return rep, store.OverloadTotals()
	}

	rep, totals := run()
	// Capacity 4 of 10 offered: 4 admitted, 6 shed. The 3 pre-expired ones
	// were admitted first and discarded at dequeue.
	want := BurstReport{Offered: 10, Admitted: 4, Shed: 6, Expired: 3}
	if rep != want {
		t.Errorf("burst report = %+v, want %+v", rep, want)
	}
	if totals.Admitted != 4 || totals.Shed != 6 || totals.ExpiredDropped != 3 {
		t.Errorf("overload totals = %+v", totals)
	}

	rep2, totals2 := run()
	if rep2 != rep || totals2 != totals {
		t.Errorf("burst not deterministic: %+v vs %+v, %+v vs %+v", rep, rep2, totals, totals2)
	}

	if rep := (&Store{opts: settings{}, dms: map[string]*DMHost{}}).Burst("nope", 5, 0); rep != (BurstReport{}) {
		t.Errorf("burst at unknown DM = %+v, want zero", rep)
	}
}

// TestInflightLimiterShedsUnderOverload wires the AIMD limiter end to end:
// overload failures shrink the in-flight ceiling gauge.
func TestInflightLimiterReactsToOverload(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{Seed: 16})
	defer net.Close()
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items,
		WithSeed(16),
		WithCallTimeout(10*time.Millisecond),
		WithHedgeDelay(0),
		WithLockRetries(0),
		WithTxnRetries(0),
		WithInflightLimit(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Stats.InflightLimit.Value(); got != 8 {
		t.Fatalf("initial in-flight ceiling = %d, want 8", got)
	}
	for _, dm := range dms {
		net.Crash(dm)
	}
	for i := 0; i < 3; i++ {
		if err := store.Run(context.Background(), func(tx *Txn) error {
			_, err := tx.Read(context.Background(), "x")
			return err
		}); err == nil {
			t.Fatal("read of a crashed cluster succeeded")
		}
	}
	if got := store.Stats.InflightLimit.Value(); got != 1 {
		t.Errorf("ceiling after three overload failures = %d, want 1 (8 -> 4 -> 2 -> 1)", got)
	}
	for _, dm := range dms {
		net.Restart(dm)
	}
	for i := 0; i < 50; i++ {
		if err := store.Run(context.Background(), func(tx *Txn) error {
			_, err := tx.Read(context.Background(), "x")
			return err
		}); err != nil {
			t.Fatalf("read after restart failed: %v", err)
		}
	}
	if got := store.Stats.InflightLimit.Value(); got <= 1 {
		t.Errorf("ceiling after sustained success = %d, want additive regrowth", got)
	}
}

// TestResolutionTrafficIsAdmittedWhenBulkIsShed: a replica whose bulk queue
// is full must still admit what stands between a lock holder and its
// resolution — here a decision notification from a recovery proposer and a
// coordinator's Phase-2a accept. Both were classified as bulk reads (and
// shed) while classifyRequest was a hand-kept list that predated Paxos
// Commit.
func TestResolutionTrafficIsAdmittedWhenBulkIsShed(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{Seed: 14})
	defer net.Close()
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, WithSeed(14), WithAdmissionCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	orphan, err := store.PlantOrphan(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}

	oh := store.host("dm0").harness()
	oh.WaitServiceIdle()
	oh.HoldService()
	filled := 0
	for oh.Inject("burst", PingReq{Seq: filled}, time.Time{}) {
		filled++
	}
	if filled != 4 {
		t.Fatalf("the bulk queue took %d pings before shedding, want its capacity (4)", filled)
	}
	accept := PaxosAcceptReq{Txn: "c9.t1", Commit: true, Cohort: dms}
	if !oh.Inject("c9", accept, time.Time{}) {
		t.Error("a Phase-2a accept was shed by a full bulk queue")
	}
	if !oh.Inject("dm1", DecisionReq{Txn: orphan}, time.Time{}) {
		t.Error("a decision notification was shed by a full bulk queue")
	}
	oh.ResumeService()
	oh.WaitServiceIdle()

	probe, err := store.ResolutionProbe(ctx, "dm0", orphan)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Known || probe.Committed || probe.Holds {
		t.Errorf("dm0 after the decision: %+v, want the orphan aborted and swept", probe)
	}
	if probe, err = store.ResolutionProbe(ctx, "dm0", accept.Txn); err != nil || probe.AccBal != 0 || !probe.AccCommit {
		t.Errorf("dm0 after the accept: %+v (%v), want ballot 0 accepted", probe, err)
	}
}

// TestEveryRequestHasAnAdmissionClass: the admission class is the third
// column of wireTypes and nowhere else, so every request row carries one of
// the three classes, every response row carries none, and classifyRequest
// is a lookup of the column.
func TestEveryRequestHasAnAdmissionClass(t *testing.T) {
	for _, wt := range wireTypes {
		name := reflect.TypeOf(wt.proto).Name()
		if strings.HasSuffix(name, "Resp") || name == "Ack" {
			if wt.prio != notRequest {
				t.Errorf("response %s (tag %d) has admission class %d", name, wt.tag, wt.prio)
			}
			continue
		}
		if wt.prio < transport.PrioRead || wt.prio > transport.PrioControl {
			t.Errorf("request %s (tag %d) has no admission class", name, wt.tag)
		}
		if got := classifyRequest(wt.proto); got != wt.prio {
			t.Errorf("classifyRequest(%s) = %d, the table says %d", name, got, wt.prio)
		}
	}
	for _, tc := range []struct {
		req  any
		want transport.Priority
	}{
		{ReadReq{}, transport.PrioRead}, {PingReq{}, transport.PrioRead},
		{WriteReq{}, transport.PrioWrite}, {ConfigWriteReq{}, transport.PrioWrite},
		{CommitTopReq{}, transport.PrioControl}, {AbortReq{}, transport.PrioControl},
		{ReleaseReq{}, transport.PrioControl}, {RenewLeaseReq{}, transport.PrioControl},
		// Each stands between a lock holder and its resolution.
		{ResolutionProbeReq{}, transport.PrioControl},
		{PaxosAcceptReq{}, transport.PrioControl}, {PaxosPrepareReq{}, transport.PrioControl}, {DecisionReq{}, transport.PrioControl},
		{RebuildPullReq{}, transport.PrioControl},
	} {
		if got := classifyRequest(tc.req); got != tc.want {
			t.Errorf("classifyRequest(%T) = %d, want %d", tc.req, got, tc.want)
		}
	}
}
