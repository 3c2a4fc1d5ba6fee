package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestCollectorStateMachine drives the pure fan-out collector through the
// scenarios the concurrent loop produces, table-driven. Targets a..e are
// indexes 0..4.
func TestCollectorStateMachine(t *testing.T) {
	targets := []string{"a", "b", "c", "d", "e"}
	maj := masks(quorum.Majority(targets).R, targets)
	grant := func(i int) func(c *collector) {
		return func(c *collector) { c.reply(i, true, false, false, ReadResp{}) }
	}
	busy := func(i int) func(c *collector) {
		return func(c *collector) { c.reply(i, false, true, false, ReadResp{}) }
	}
	refuse := func(i int) func(c *collector) {
		return func(c *collector) { c.reply(i, false, false, false, ReadResp{}) }
	}
	cases := []struct {
		name     string
		quorums  []uint64
		events   []func(c *collector)
		wantDone bool
		wantBusy bool
		wantDups int
	}{
		{
			name:     "quorum completes with minority stragglers silent",
			quorums:  maj,
			events:   []func(c *collector){grant(0), grant(2), grant(4)},
			wantDone: true,
		},
		{
			name:     "two grants of five are not a majority",
			quorums:  maj,
			events:   []func(c *collector){grant(0), grant(1)},
			wantDone: false,
		},
		{
			name:     "busy replies never form a quorum",
			quorums:  maj,
			events:   []func(c *collector){grant(0), busy(1), busy(2), grant(3)},
			wantDone: false,
			wantBusy: true,
		},
		{
			name:    "hedged duplicate responses are deduplicated",
			quorums: maj,
			events: []func(c *collector){
				grant(0), grant(0), grant(1), grant(1), grant(2),
			},
			wantDone: true,
			wantDups: 2,
		},
		{
			name:     "grant after busy upgrades the member",
			quorums:  []uint64{0b11},
			events:   []func(c *collector){busy(0), grant(1), grant(0)},
			wantDone: true,
			wantBusy: true,
			wantDups: 1,
		},
		{
			name:     "outright refusals cover nothing",
			quorums:  []uint64{0b1},
			events:   []func(c *collector){refuse(0)},
			wantDone: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCollector(targets, tc.quorums)
			for i := range targets {
				c.issue(i)
			}
			for _, ev := range tc.events {
				ev(c)
			}
			if c.done() != tc.wantDone {
				t.Errorf("done() = %v, want %v", c.done(), tc.wantDone)
			}
			if c.sawBusy() != tc.wantBusy {
				t.Errorf("sawBusy() = %v, want %v", c.sawBusy(), tc.wantBusy)
			}
			if c.dups != tc.wantDups {
				t.Errorf("dups = %d, want %d", c.dups, tc.wantDups)
			}
		})
	}
}

func TestCollectorWinnerIsSmallestCoveredQuorum(t *testing.T) {
	targets := []string{"a", "b", "c", "d"}
	small := uint64(0b0011) // a, b
	large := uint64(0b1101) // a, c, d
	c := newCollector(targets, []uint64{large, small})
	for i := range targets {
		c.issue(i)
		c.reply(i, true, false, false, ReadResp{})
	}
	if win, ok := c.winner(); !ok || win != small {
		t.Errorf("winner = %b, want the 2-member quorum %b", win, small)
	}
}

func TestCollectorHedgeTargets(t *testing.T) {
	targets := []string{"a", "b", "c"}
	c := newCollector(targets, []uint64{0b111})
	for i := range targets {
		c.issue(i)
	}
	c.reply(0, true, false, false, ReadResp{})
	c.reply(1, false, true, false, ReadResp{})
	// Only the silent DM is worth hedging; a and b answered.
	if got := c.hedgeable(0b111, 3); got != 0b100 {
		t.Errorf("hedgeable = %b, want c alone (100)", got)
	}
	// The per-replica copy cap stops further hedges.
	c.issue(2)
	c.issue(2)
	if got := c.hedgeable(0b111, 3); got != 0 {
		t.Errorf("hedgeable past cap = %b, want none", got)
	}
	if !c.outstanding(2) {
		t.Error("c has unanswered copies and must be outstanding")
	}
	if c.outstanding(0) {
		t.Error("a answered its only copy and must not be outstanding")
	}
}

// TestMasksMatchSetOracle holds the mask books to the map-based rules they
// replaced, on every strategy the store offers. For each kind of quorum: for
// every subset of grants, winner picks the smallest covered quorum, the
// first of equally small ones; for every pair of held and suspect replicas,
// in order, firstQuorum picks the same quorum and moves the turn the same way.
func TestMasksMatchSetOracle(t *testing.T) {
	must := func(cfg quorum.Config, err error) quorum.Config {
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	names := func(n int) []string {
		dms := make([]string, n)
		for i := range dms {
			dms[i] = fmt.Sprintf("dm%d", i)
		}
		return dms
	}
	votes := map[string]int{"dm0": 3, "dm1": 1, "dm2": 1, "dm3": 1, "dm4": 1}
	configs := []struct {
		name string
		cfg  quorum.Config
	}{
		{"majority3", quorum.Majority(names(3))},
		{"majority5", quorum.Majority(names(5))},
		{"voting", must(quorum.Voting(votes, 4, 4))},
		{"grid3x3", must(quorum.Grid(names(9), 3, 3))},
		{"tree", must(quorum.TreeQuorum(names(7), 2))},
		{"rowa", quorum.ReadAllWriteOne(names(3))},
	}
	// The rules as they read over sets.
	setOf := func(targets []string, m uint64) map[string]bool {
		s := map[string]bool{}
		for i, dm := range targets {
			if m&(1<<i) != 0 {
				s[dm] = true
			}
		}
		return s
	}
	oracleWinner := func(qs []quorum.Set, granted map[string]bool) quorum.Set {
		var best quorum.Set
		for _, q := range qs {
			if (best == nil || len(q) < len(best)) && q.SubsetOf(granted) {
				best = q
			}
		}
		return best
	}
	oracleFirst := func(turn *int, qs []quorum.Set, held, suspects map[string]bool) quorum.Set {
		var best quorum.Set
		least, tied := 0, false
	next:
		for i := range qs {
			q := qs[(*turn+1+i)%len(qs)]
			c := len(q)
			for dm := range q {
				if suspects[dm] {
					continue next
				}
				if held[dm] {
					c--
				}
			}
			switch {
			case best == nil || c < least:
				best, least, tied = q, c, false
			case c == least:
				tied = true
			}
		}
		if tied {
			*turn++
		}
		return best
	}
	for _, row := range configs {
		for _, kind := range []struct {
			name string
			qs   []quorum.Set
		}{{"read", row.cfg.R}, {"write", row.cfg.W}} {
			t.Run(row.name+"/"+kind.name, func(t *testing.T) {
				targets := union(kind.qs)
				ms := masks(kind.qs, targets)
				maskOf := func(q quorum.Set) uint64 {
					if q == nil {
						return 0
					}
					return masks([]quorum.Set{q}, targets)[0]
				}
				all := uint64(1)<<len(targets) - 1
				for granted := uint64(0); granted <= all; granted++ {
					c := newCollector(targets, ms)
					c.granted = granted
					want := maskOf(oracleWinner(kind.qs, setOf(targets, granted)))
					if got, ok := c.winner(); got != want || ok != (want != 0) {
						t.Fatalf("grants %b: winner %b (%v), oracle %b", granted, got, ok, want)
					}
				}
				b, turn := newHealthBoard(nil), 0
				for held := uint64(0); held <= all; held++ {
					heldSet := setOf(targets, held)
					for suspects := uint64(0); suspects <= all; suspects++ {
						want := maskOf(oracleFirst(&turn, kind.qs, heldSet, setOf(targets, suspects)))
						if got := b.firstQuorum(ms, held, suspects); got != want || b.turn != turn {
							t.Fatalf("held %b, suspects %b: first %b at turn %d, oracle %b at turn %d",
								held, suspects, got, b.turn, want, turn)
						}
					}
				}
			})
		}
	}
}

// strideCluster builds a 5-DM majority cluster with the given options and
// a per-node latency override applied to dm4 — the straggler.
func stragglerCluster(t *testing.T, seed int64, opts ...Option) (*Store, *sim.Network, []string) {
	t.Helper()
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: seed})
	net.SetNodeLatency("dm4", 30*time.Millisecond, 40*time.Millisecond)
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, append([]Option{WithSeed(seed), WithCallTimeout(100 * time.Millisecond)}, opts...)...)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	return store, net, dms
}

// TestFanoutCompletesDespiteStraggler: the straggler's latency exceeds the
// fast replicas' by two orders of magnitude. A phase whose first quorum
// holds it waits one hedge delay, widens to the fast replicas and completes
// without it; each such wait charges the straggler one miss, and after
// failThreshold misses in a row it is a suspect no first quorum holds.
func TestFanoutCompletesDespiteStraggler(t *testing.T) {
	store, net, _ := stragglerCluster(t, 41)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 1; i <= 10; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	// The straggler needs ≥ 60ms round trip; a phase that waited for it
	// would have taken that long, not one hedge delay and a fast answer.
	bound := store.opts.hedgeDelay + 25*time.Millisecond
	for phase, h := range map[string]*metrics.Histogram{
		"read": &store.Stats.ReadPhaseLatency, "write": &store.Stats.WritePhaseLatency,
	} {
		if max := h.Snapshot().Max; max > bound {
			t.Errorf("slowest %s phase took %v, want at most %v: it waited for the straggler", phase, max, bound)
		}
	}
	if store.Stats.Widenings.Value() == 0 {
		t.Error("no phase widened past a first quorum holding the straggler")
	}
	var dm4 ReplicaHealth
	for _, h := range store.Health() {
		if h.DM == "dm4" {
			dm4 = h
		}
	}
	if !dm4.Suspect || dm4.Failures < defaultFailThreshold || dm4.Successes != 0 {
		t.Errorf("straggler after 20 phases: %+v, want a suspect charged >= %d misses", dm4, defaultFailThreshold)
	}
	if err := store.Run(ctx, func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err == nil && v != 10 {
			t.Errorf("read %v, want 10", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// footprint records what a client sends: calls per request kind, the
// replicas each top-level transaction's accesses and commit reach, the
// replicas each phase asked, and notifies.
type footprint struct {
	mu       sync.Mutex
	calls    map[string]int64
	notifies int64
	reached  map[TxnID]quorum.Set    // by top-level transaction
	asked    map[phaseKey]quorum.Set // by the phase's Txn and Seq
}

type phaseKey struct {
	txn TxnID
	seq int
}

func (f *footprint) observe(to string, req any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[fmt.Sprintf("%T", req)]++
	var txn TxnID
	seq := 0
	switch r := req.(type) {
	case ReadReq:
		txn, seq = r.Txn, r.Seq
	case WriteReq:
		txn, seq = r.Txn, r.Seq
	case CommitTopReq:
		txn = r.Txn
	default:
		return
	}
	top := txn.Top()
	if f.reached[top] == nil {
		f.reached[top] = quorum.Set{}
	}
	f.reached[top][to] = true
	if seq > 0 {
		k := phaseKey{txn, seq}
		if f.asked[k] == nil {
			f.asked[k] = quorum.Set{}
		}
		f.asked[k][to] = true
	}
}

// phase returns the replicas txn's phase seq asked.
func (f *footprint) phase(txn TxnID, seq int) quorum.Set {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.asked[phaseKey{txn, seq}].Clone()
}

// call returns how many calls of kind ("ReadReq", ...) were sent.
func (f *footprint) call(kind string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls["cluster."+kind]
}

// notified returns how many notifies were sent.
func (f *footprint) notified() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.notifies
}

// reachedBy returns the replicas txn's tree sent an access or commit to.
func (f *footprint) reachedBy(txn TxnID) quorum.Set {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reached[txn].Clone()
}

// footprintCluster opens an n-replica majority cluster of "x" and "y"
// whose traffic a footprint records. Hedging is off, so no scheduler
// hiccup can widen a phase: a phase asks exactly its first quorum unless a
// member refuses or fails.
func footprintCluster(t *testing.T, seed int64, n int, opts ...Option) (*Store, *footprint) {
	t.Helper()
	dms := make([]string, n)
	for i := range dms {
		dms[i] = fmt.Sprintf("dm%d", i)
	}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: seed})
	f := &footprint{calls: map[string]int64{}, reached: map[TxnID]quorum.Set{}, asked: map[phaseKey]quorum.Set{}}
	tap := tapTransport{Transport: net,
		onCall: func(to string, req any) bool { f.observe(to, req); return false },
		onNotify: func(string, any) bool {
			f.mu.Lock()
			f.notifies++
			f.mu.Unlock()
			return false
		},
	}
	items := []ItemSpec{
		{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
		{Name: "y", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
	}
	store, err := Open(tap, items, append([]Option{
		WithSeed(seed), WithCallTimeout(time.Second), WithHedgeDelay(0),
		WithClock(sim.NewManualClock(time.Unix(0, 0))),
	}, opts...)...)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close(); net.Close() })
	return store, f
}

// quorumCluster is a 5-replica footprintCluster that reports calls per
// request kind.
func quorumCluster(t *testing.T, seed int64, opts ...Option) (*Store, func(kind string) int64) {
	t.Helper()
	store, f := footprintCluster(t, seed, 5, opts...)
	return store, f.call
}

// TestPhaseAsksOneQuorum: on a healthy 5-replica cluster a phase asks one
// majority, not all five — a read sends exactly 3 ReadReqs, a write's two
// phases 3 ReadReqs and 3 WriteReqs — so no grant is surplus and no lock is
// released early.
func TestPhaseAsksOneQuorum(t *testing.T) {
	store, calls := quorumCluster(t, 48)
	ctx := context.Background()
	for i := 1; i <= 4; i++ {
		reads, writes := calls("ReadReq"), calls("WriteReq")
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
		if r, w := calls("ReadReq")-reads, calls("WriteReq")-writes; r != 3 || w != 3 {
			t.Fatalf("write %d sent %d ReadReq and %d WriteReq, want 3 and 3", i, r, w)
		}
		reads = calls("ReadReq")
		if err := store.Run(ctx, func(tx *Txn) error {
			return tx.Sub(ctx, func(sub *Txn) error {
				v, err := sub.Read(ctx, "x")
				if err == nil && v != i {
					t.Errorf("read %v, want %d", v, i)
				}
				return err
			})
		}); err != nil {
			t.Fatal(err)
		}
		if r := calls("ReadReq") - reads; r != 3 {
			t.Fatalf("read %d sent %d ReadReq, want 3", i, r)
		}
	}
	if n := store.Stats.ExtraLockReleases.Value(); n != 0 {
		t.Fatalf("%d surplus read locks released, want none", n)
	}
	if n := store.Stats.Widenings.Value(); n != 0 {
		t.Fatalf("%d phases widened on a healthy cluster, want none", n)
	}
}

// TestTxnStaysOnHeldQuorum: a transaction's later phases land on the
// replicas its earlier phases locked. At n=3, a transaction whose two Subs
// write x and y runs all four phases on one write quorum, so its commit
// calls exactly that quorum's two members and sends no notify: no replica
// holds only a lock. At n=5, a write and a read, each two Subs deep, touch
// exactly one majority.
func TestTxnStaysOnHeldQuorum(t *testing.T) {
	ctx := context.Background()
	nested := func(tx *Txn, fn func(*Txn) error) error {
		return tx.Sub(ctx, func(s1 *Txn) error { return s1.Sub(ctx, fn) })
	}
	for _, tc := range []struct {
		n    int
		body func(tx *Txn, i int) error
	}{
		{3, func(tx *Txn, i int) error {
			if err := tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, "x", i) }); err != nil {
				return err
			}
			return tx.Sub(ctx, func(sub *Txn) error { return sub.Write(ctx, "y", i) })
		}},
		{5, func(tx *Txn, i int) error {
			if err := nested(tx, func(s2 *Txn) error { return s2.Write(ctx, "x", i) }); err != nil {
				return err
			}
			return nested(tx, func(s2 *Txn) error {
				_, err := s2.Read(ctx, "y")
				return err
			})
		}},
	} {
		store, f := footprintCluster(t, 50+int64(tc.n), tc.n)
		majority := tc.n/2 + 1
		for i := 1; i <= 6; i++ {
			commits, notifies := f.call("CommitTopReq"), f.notified()
			var id TxnID
			if err := store.Run(ctx, func(tx *Txn) error {
				id = tx.ID()
				return tc.body(tx, i)
			}); err != nil {
				t.Fatal(err)
			}
			if reached := f.reachedBy(id); len(reached) != majority {
				t.Errorf("n=%d txn %d reached %v, want one majority", tc.n, i, reached)
			}
			if c := f.call("CommitTopReq") - commits; c != int64(majority) {
				t.Errorf("n=%d txn %d made %d CommitTopReq calls, want %d", tc.n, i, c, majority)
			}
			if n := f.notified() - notifies; n != 0 {
				t.Errorf("n=%d txn %d sent %d notifies, want 0", tc.n, i, n)
			}
		}
	}
}

// TestFirstQuorumRotationSpreadsTransactions: thirty transactions of one
// three-phase shape (Write x: a locking read and a write; then Read y) on
// three replicas. Only each transaction's first phase has a tie to break —
// its later phases stay on the quorum it holds — so the rotation moves once
// per transaction and each of the three quorums is the first quorum of ten
// of them. A rotation that moved on every phase would start every
// transaction at the same quorum: three phases over three quorums.
func TestFirstQuorumRotationSpreadsTransactions(t *testing.T) {
	store, f := footprintCluster(t, 53, 3)
	ctx := context.Background()
	const txns = 30
	firsts := map[string]int{}
	for i := 1; i <= txns; i++ {
		var id TxnID
		if err := store.Run(ctx, func(tx *Txn) error {
			id = tx.ID()
			if err := tx.Write(ctx, "x", i); err != nil {
				return err
			}
			_, err := tx.Read(ctx, "y")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		firsts[f.phase(id, 1).String()]++
	}
	if r, w := store.Stats.ReadPhaseLatency.Count(), store.Stats.WritePhaseLatency.Count(); r != 2*txns || w != txns {
		t.Fatalf("%d read and %d write phases, want %d and %d: not a fixed three-phase shape", r, w, 2*txns, txns)
	}
	if len(firsts) != 3 {
		t.Fatalf("first quorums %v, want each of the three pairs", firsts)
	}
	for q, n := range firsts {
		if n < txns/3-1 || n > txns/3+1 {
			t.Errorf("%s was the first quorum of %d transactions, want %d ± 1 (all: %v)", q, n, txns/3, firsts)
		}
	}
}

// TestHeldSuspectIsLeft: holding a replica makes it cheap, not trusted. On
// the board, a held pair is every first quorum without moving the rotation,
// and once a held member turns suspect the first quorum is the one pair
// that keeps the other held member and leaves the suspect out. In a
// transaction, a write after a held replica turns suspect asks a first
// quorum without it, and the transaction still commits.
func TestHeldSuspectIsLeft(t *testing.T) {
	b := newHealthBoard(nil)
	targets := []string{"dm0", "dm1", "dm2"}
	quorums := []uint64{0b011, 0b101, 0b110} // {dm0,dm1}, {dm0,dm2}, {dm1,dm2}
	const held = 0b011                       // dm0 and dm1
	turn := b.turn
	for pass := 0; pass < 3; pass++ {
		if p := b.plan(targets, quorums, held); p.first != 0b011 {
			t.Fatalf("pass %d: first quorum %b, want the held {dm0,dm1} (11)", pass, p.first)
		}
	}
	if b.turn != turn {
		t.Errorf("rotation moved %d times with no tie to break", b.turn-turn)
	}
	for i := 0; i < defaultFailThreshold; i++ {
		b.observe("dm1", false)
	}
	if p := b.plan(targets, quorums, held); p.first != 0b101 {
		t.Fatalf("first quorum %b with held dm1 suspect, want {dm0,dm2} (101)", p.first)
	}

	store, f := footprintCluster(t, 54, 3)
	ctx := context.Background()
	var id TxnID
	var suspect string
	if err := store.Run(ctx, func(tx *Txn) error {
		id = tx.ID()
		if err := tx.Write(ctx, "x", 1); err != nil {
			return err
		}
		q := f.phase(id, 1)
		if w := f.phase(id, 2); w.String() != q.String() {
			t.Errorf("write phase asked %v, want the held %v", w, q)
		}
		suspect = q.Names()[1]
		for i := 0; i < defaultFailThreshold; i++ {
			store.health.observe(suspect, false)
		}
		return tx.Write(ctx, "y", 1)
	}); err != nil {
		t.Fatal(err)
	}
	for seq := 3; seq <= 4; seq++ {
		if q := f.phase(id, seq); len(q) != 2 || q[suspect] {
			t.Errorf("phase %d asked %v with held %s suspect, want a pair without it", seq, q, suspect)
		}
	}
}

// TestBusyWidensWithinThePhase: a foreign write lock at dm0 makes it answer
// Busy whenever a first quorum holds it. The phase widens at once to the
// other replicas, which still cover a majority, and completes on that same
// attempt: every transaction runs exactly one read phase and one write
// phase.
func TestBusyWidensWithinThePhase(t *testing.T) {
	store, _ := quorumCluster(t, 49, WithTxnRetries(0))
	ctx := context.Background()
	raw, err := store.client.Call(ctx, "dm0", WriteReq{Txn: "zz.t1", Item: "x", VN: 999, Val: 0, Seq: 1})
	if wr, ok := raw.(WriteResp); err != nil || !ok || !wr.OK {
		t.Fatalf("plant blocker at dm0: %#v, %v", raw, err)
	}
	const txns = 5
	for i := 1; i <= txns; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatalf("write %d with dm0 locked: %v", i, err)
		}
	}
	if store.Stats.BusyRetries.Value() == 0 || store.Stats.Widenings.Value() == 0 {
		t.Fatalf("busy answers %d, widenings %d: no first quorum held dm0",
			store.Stats.BusyRetries.Value(), store.Stats.Widenings.Value())
	}
	if r, w := store.Stats.ReadPhaseLatency.Count(), store.Stats.WritePhaseLatency.Count(); r != txns || w != txns {
		t.Fatalf("%d read and %d write phases for %d writes: a Busy cost a retry", r, w, txns)
	}
}

// TestHedgingResendsToSilentReplica: with aggressive hedging and every
// fast replica's first copy beaten by the hedge timer, duplicate copies
// are issued and their responses deduplicated without disturbing results.
func TestHedgingResendsToSilentReplica(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	// All replicas answer slower than the hedge delay, so every phase
	// hedges at least once.
	net := sim.NewNetwork(sim.Config{MinLatency: 2 * time.Millisecond, MaxLatency: 3 * time.Millisecond, Seed: 42})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items,
		WithSeed(42),
		WithCallTimeout(200*time.Millisecond),
		WithHedgeDelay(time.Millisecond),
	)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	v := 0
	if err := store.Run(ctx, func(tx *Txn) error {
		got, err := ReadAs[int](ctx, tx, "x")
		v = got
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Errorf("read %d after hedged writes, want 4", v)
	}
	if store.Stats.Hedges.Value() == 0 {
		t.Error("expected hedged request copies under slow uniform latency")
	}
}

// TestExtraReadLocksReleased: a read fan-out over five replicas grants at
// more members than the majority needs; the extras must be released while
// the transaction still runs, observable via Inspect lock counts. The read
// runs in a subtransaction, where it locks: a top-level first read takes no
// lock at all.
func TestExtraReadLocksReleased(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 10 * time.Microsecond, MaxLatency: 100 * time.Microsecond, Seed: 43})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, WithSeed(43), WithCallTimeout(50*time.Millisecond))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	err = store.Run(ctx, func(tx *Txn) error {
		return tx.Sub(ctx, func(sub *Txn) error {
			if _, err := sub.Read(ctx, "x"); err != nil {
				return err
			}
			// The fan-out returns at the third grant; the other two replicas
			// are either extras (released) or outstanding (tombstoned), so
			// once the dust settles exactly the winning majority holds locks.
			deadline := time.Now().Add(2 * time.Second)
			for {
				total := 0
				for _, dm := range dms {
					resp, err := store.Inspect(ctx, dm, "x")
					if err != nil {
						return err
					}
					total += resp.Locks
				}
				// The winning majority holds exactly 3 locks; extras must be
				// gone while the transaction is still open.
				if total == 3 {
					return nil
				}
				if time.Now().After(deadline) {
					t.Errorf("lock count stuck at %d, want 3 (extras not released)", total)
					return nil
				}
				time.Sleep(time.Millisecond)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanoutCancellationOnContextTimeout: with every replica crashed, a
// read must fail promptly when its context expires rather than sleeping
// through the full retry budget.
func TestFanoutCancellationOnContextTimeout(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 44})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items, WithSeed(44))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	for _, dm := range dms {
		net.Crash(dm)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = store.Run(ctx, func(tx *Txn) error {
		_, err := tx.Read(ctx, "x")
		return err
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read of a fully crashed cluster must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want deadline or unavailable", err)
	}
	if elapsed > time.Second {
		t.Errorf("failed after %v; cancellation did not propagate", elapsed)
	}
}

// TestPartitionSurfacesUnavailableError: when no quorum is reachable the
// structured *UnavailableError surfaces with the item, phase, and the
// replicas that did answer.
func TestPartitionSurfacesUnavailableError(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 45})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	store, err := Open(net, items,
		WithSeed(45), WithCallTimeout(5*time.Millisecond),
		WithLockRetries(1), WithTxnRetries(0))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	// Cut the client off from a majority.
	for _, dm := range dms[:3] {
		net.Disconnect(store.client.ID(), dm)
	}
	err = store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 9) })
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("errors.Is(ErrUnavailable) must hold, got %v", err)
	}
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnavailableError in chain, got %v", err)
	}
	if ue.Item != "x" || ue.Phase != "read" {
		t.Errorf("UnavailableError = %+v, want item x, phase read", ue)
	}
	if len(ue.Missing) < 3 {
		t.Errorf("Missing = %v, want the three unreachable DMs", ue.Missing)
	}
	for _, dm := range ue.Responded {
		if dm == "dm0" || dm == "dm1" || dm == "dm2" {
			t.Errorf("unreachable DM %s listed as responded", dm)
		}
	}
}

// TestConflictErrorDetail: a held write lock on another client's
// transaction surfaces as *ConflictError with attempt counts.
func TestConflictErrorDetail(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 46})
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	a, err := Open(net, items, WithSeed(46), WithCallTimeout(10*time.Millisecond))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	b, err := OpenClient(net, items,
		WithSeed(47), WithCallTimeout(10*time.Millisecond),
		WithLockRetries(2), WithTxnRetries(0))
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
			close(blocked) // write locks held at a quorum
			<-release
			return nil
		})
	}()
	<-blocked
	err = b.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 2) })
	close(release)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("errors.Is(ErrConflict) must hold, got %v", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConflictError in chain, got %v", err)
	}
	if ce.Item != "x" || ce.Attempts < 3 {
		t.Errorf("ConflictError = %+v, want item x with >= 3 attempts", ce)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// tapTransport decorates a transport so a test can watch every request a
// client sends and pick requests that land at their DM while the caller
// hears transport.ErrLost — the lost-reply fate a real network deals out —
// or notifies the network eats.
type tapTransport struct {
	transport.Transport
	// onCall, when set, sees each outgoing call before it is sent; returning
	// true loses the reply after the request was served.
	onCall func(to string, req any) (loseReply bool)
	// onNotify, when set, sees each outgoing notify; returning true drops it.
	onNotify func(to string, req any) (drop bool)
}

func (tt tapTransport) Client(id string) (transport.Client, error) {
	c, err := tt.Transport.Client(id)
	return tapClient{Client: c, tap: tt}, err
}

type tapClient struct {
	transport.Client
	tap tapTransport
}

func (c tapClient) Call(ctx context.Context, to string, req any) (any, error) {
	lose := c.tap.onCall != nil && c.tap.onCall(to, req)
	resp, err := c.Client.Call(ctx, to, req)
	if err == nil && lose {
		return nil, transport.ErrLost
	}
	return resp, err
}

// Go applies the tap as Call does and issues the call through the inner
// client's Go: the path the store takes on both backends. A lost reply is
// the one case that needs a goroutine, to turn the answer into ErrLost.
func (c tapClient) Go(deadline time.Time, to string, req any, tag int, done chan<- transport.Reply) {
	if c.tap.onCall == nil || !c.tap.onCall(to, req) {
		transport.Go(c.Client, deadline, to, req, tag, done)
		return
	}
	answer := make(chan transport.Reply, 1)
	transport.Go(c.Client, deadline, to, req, tag, answer)
	go func() {
		r := <-answer
		if r.Err == nil {
			r.Resp, r.Err = nil, transport.ErrLost
		}
		done <- r
	}()
}

func (c tapClient) Notify(to string, req any) {
	if c.tap.onNotify == nil || !c.tap.onNotify(to, req) {
		c.Client.Notify(to, req)
	}
}

// TestSequentialPhaseSweepsLostGrant: a ReadReq lands at its DM and grants,
// but the reply is lost, so the one-quorum-at-a-time plan fails and the
// transaction aborts. The DM the client never heard from may hold a lock:
// it must stay on the transaction's control list so the abort reaches it.
// The read runs in a subtransaction, where it locks.
func TestSequentialPhaseSweepsLostGrant(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: 61})
	var lost atomic.Int32
	tap := tapTransport{Transport: net, onCall: func(to string, req any) bool {
		_, isRead := req.(ReadReq)
		return isRead && to == "dm0" && lost.Add(1) == 1
	}}
	// Read-all: the only read quorum needs dm0, whose grant goes unheard.
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.ReadAllWriteOne(dms)}}
	store, err := Open(tap, items, WithSeed(61), WithSequentialPhases(true), WithHedgeDelay(0),
		WithLockRetries(0), WithTxnRetries(0), WithCallTimeout(25*time.Millisecond))
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()

	var id TxnID
	err = store.Run(ctx, func(tx *Txn) error {
		id = tx.ID()
		return tx.Sub(ctx, func(sub *Txn) error {
			_, rerr := sub.Read(ctx, "x")
			return rerr
		})
	})
	if !errors.Is(err, ErrUnavailable) || lost.Load() == 0 {
		t.Fatalf("read with dm0's grant unheard: %v (lost %d replies), want ErrUnavailable", err, lost.Load())
	}
	net.Quiesce()
	for _, dm := range dms {
		probe, perr := store.ResolutionProbe(ctx, dm, id)
		if perr != nil {
			t.Fatal(perr)
		}
		insp, ierr := store.Inspect(ctx, dm, "x")
		if ierr != nil {
			t.Fatal(ierr)
		}
		if probe.Holds || insp.Locks != 0 {
			t.Errorf("%s still holds a lock of aborted %s (probe %+v, %d locks)", dm, id, probe, insp.Locks)
		}
	}
}
