package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/commit"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/transport"
)

// ItemSpec describes one replicated logical data item: its initial value,
// the DMs that replicate it, and its initial quorum configuration.
type ItemSpec struct {
	Name    string
	Initial any
	DMs     []string
	Config  quorum.Config
}

// Stats aggregates client-side operation metrics.
type Stats struct {
	Reads       metrics.Counter
	Writes      metrics.Counter
	Commits     metrics.Counter
	Aborts      metrics.Counter
	Restarts    metrics.Counter
	BusyRetries metrics.Counter
	// Hedges counts duplicate request copies sent to replicas that had not
	// answered within the hedge delay.
	Hedges metrics.Counter
	// ExtraLockReleases counts read-phase locks retracted because the
	// fan-out assembled its quorum without them.
	ExtraLockReleases metrics.Counter
	// Widenings counts quorum phases that asked past their first quorum:
	// a member refused or failed, or the hedge timer fired first.
	Widenings    metrics.Counter
	ReadLatency  metrics.Histogram
	WriteLatency metrics.Histogram
	TxnLatency   metrics.Histogram
	// ReadPhaseLatency and WritePhaseLatency time individual quorum
	// phases (one fan-out or one sequential quorum attempt), hedges
	// included; ControlLatency times commit/abort propagation rounds.
	ReadPhaseLatency  metrics.Histogram
	WritePhaseLatency metrics.Histogram
	ControlLatency    metrics.Histogram
	// Recoveries counts DM state machines rebuilt from a write-ahead log
	// (at Open of a non-empty log and at every RestartDM);
	// ReplayedRecords totals the log records those recoveries re-applied.
	Recoveries      metrics.Counter
	ReplayedRecords metrics.Counter
	// LeaseRenewals counts successful synchronous lease-renewal rounds
	// (pre-commit fences and background keep-alives); LeaseExpiries counts
	// transactions that failed the fence — some DM had already resolved or
	// reaped them — and were aborted and restarted.
	LeaseRenewals metrics.Counter
	LeaseExpiries metrics.Counter
	// OrphanReapsAborted and OrphanReapsCommitted count resolutions of
	// orphaned transactions this client reached for the replicas
	// (Store.resolve): presumed aborts and re-served abort records, and
	// commits re-served from a replica's resolution record.
	// ResolutionQueries counts the probe rounds that preceded them.
	OrphanReapsAborted   metrics.Counter
	OrphanReapsCommitted metrics.Counter
	ResolutionQueries    metrics.Counter
	// CircuitOpens counts replica circuits opened by the failure detector;
	// SuspectReplicas gauges how many are open right now. ProbeTrials
	// counts half-open probe copies sent to suspects; SuspectSkips counts
	// fan-out sends avoided because the target was suspect.
	CircuitOpens    metrics.Counter
	SuspectReplicas metrics.Gauge
	ProbeTrials     metrics.Counter
	SuspectSkips    metrics.Counter
	// Overload protection (DESIGN.md §7). AdmissionSheds counts replies
	// where a DM rejected the request at its bounded queue;
	// ExpiredOnArrival counts replies where a DM discarded the request at
	// dequeue because its propagated deadline had passed.
	AdmissionSheds   metrics.Counter
	ExpiredOnArrival metrics.Counter
	// RetryBudgetDenied counts retries the token-bucket retry budget
	// refused. InflightLimit gauges the AIMD limiter's current in-flight
	// ceiling; QueueDepth histograms the admission queue depths observed at
	// DMs.
	RetryBudgetDenied metrics.Counter
	InflightLimit     metrics.Gauge
	QueueDepth        metrics.IntHistogram
	// Sharded placement (DESIGN.md §10). WrongShardRedirects counts
	// redirects absorbed from retired replicas after a live migration;
	// Migrations counts MigrateItem cutovers this client completed.
	WrongShardRedirects metrics.Counter
	Migrations          metrics.Counter
	// Paxos Commit (DESIGN.md §11). PaxosAccepts counts durable ballot-0
	// acceptances coordinators collected; PaxosCommits counts commit
	// decisions reached through an acceptor majority on the clean path.
	// AcceptorRecoveries counts recovery proposers this client started over
	// orphaned instances; AcceptorResolvesCommitted / AcceptorResolvesAborted
	// count outcomes they learned — decisions reconstructed from acceptors,
	// versus OrphanReaps*, outcomes read from a record or presumed.
	PaxosAccepts              metrics.Counter
	PaxosCommits              metrics.Counter
	AcceptorRecoveries        metrics.Counter
	AcceptorResolvesCommitted metrics.Counter
	AcceptorResolvesAborted   metrics.Counter
	// Storage-fault tolerance (DESIGN.md §12). Quarantines counts replicas
	// that entered quarantine (a corrupt log at open, or a failed append at
	// runtime); Rebuilds counts successful peer rebuilds and RebuiltItems
	// totals the items those rebuilds restored. ResolvedEvictions counts
	// resolution records the retention cap compacted down to outcome
	// tombstones.
	Quarantines       metrics.Counter
	Rebuilds          metrics.Counter
	RebuiltItems      metrics.Counter
	ResolvedEvictions metrics.Counter
}

// Store is the client handle to a replicated store: it owns the DM server
// nodes and executes nested transactions against them.
type Store struct {
	tr     transport.Transport
	client transport.Client
	opts   settings

	items map[string]ItemSpec
	dms   map[string]*DMHost // the replicas this store spawned, by DM id

	mu       sync.Mutex
	rng      *rand.Rand
	believed map[string]genCfg

	// ring is this client's view of the consistent-hash placement, nil for
	// unsharded stores. Guarded by mu. Migration cutovers and WrongShard
	// redirects advance it.
	ring *shard.Ring

	// jitter feeds backoff sleeps and nothing else. It is separate from
	// rng because backoff is reached from concurrent transactions: were
	// they to share rng with quorum selection, the scheduling order
	// of their draws would reshuffle the quorum stream and break seeded
	// replay. Jitter order still varies, but jitter only shapes time.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	// clientID prefixes every transaction ID issued by this client so IDs
	// from different clients of the same cluster never alias in the DMs'
	// lock tables.
	clientID string
	txnSeq   atomic.Uint64

	// health is the failure detector's scoreboard, which also picks every
	// phase's first quorum.
	health *healthBoard

	// Overload protection (both nil/off unless the matching option armed
	// them): the retry token bucket and the AIMD in-flight limiter.
	budget  *retryBudget
	limiter *aimdLimiter

	// closeOnce makes Close idempotent and safe to race; stopBg and bg
	// manage the background goroutines (the lease renewer).
	closeOnce sync.Once
	stopBg    chan struct{}
	bg        sync.WaitGroup

	// openTxns tracks in-flight top-level transactions for the background
	// lease renewer (guarded by mu); orphanSeq numbers PlantOrphan ids.
	openTxns  map[TxnID]*Txn
	orphanSeq atomic.Uint64

	// resolving holds the orphan resolutions in flight (resolve), each with
	// the channel that closes when it ends. Guarded by mu.
	resolving map[TxnID]chan struct{}

	Stats Stats

	// Hooks are test-only fault-injection points; leave zero in production
	// use. The chaos harness's self-test uses them to plant a bug and
	// assert the history checker catches it.
	Hooks Hooks
}

// Hooks are test-only fault-injection points on a Store.
type Hooks struct {
	// MutateWriteVN, when set, rewrites the version number a logical write
	// is about to install. The returned version is both sent to the
	// replicas and recorded in the attached history, so a mutation that
	// masks a version increment surfaces as a duplicate install to the
	// checker — the harness's detector-of-the-detector.
	MutateWriteVN func(item string, vn int) int
	// BeforeCommitTop, when set, runs immediately before the transaction's
	// CommitTopReq broadcast — after the commit decision, before any DM
	// hears it. Durability tests use it to crash replicas exactly inside
	// the commit-point window.
	BeforeCommitTop func(txn TxnID)
}

type genCfg struct {
	gen int
	cfg knownCfg
}

// knownCfg is a configuration as the client plans phases with it: the
// quorums and, computed once when the client adopts the configuration, the
// sorted union of each kind's members — every replica a phase may ask.
type knownCfg struct {
	quorum.Config
	readTargets, writeTargets []string
}

func newKnownCfg(cfg quorum.Config) knownCfg {
	return knownCfg{Config: cfg, readTargets: union(cfg.R), writeTargets: union(cfg.W)}
}

// Open spawns one DM server per replica and a client endpoint on the
// given transport, returning the store handle. Any transport.Transport
// works: a *sim.Network for deterministic in-process clusters, a
// tcp.Transport for real sockets.
func Open(tr transport.Transport, items []ItemSpec, opts ...Option) (*Store, error) {
	return newStore(tr, items, resolve(opts), true)
}

// OpenClient attaches an additional, independent client to a cluster whose
// DM servers were already spawned — by Open over the same transport, by
// ServeDM in other processes, or any mix. Each client keeps its own cached
// configurations, so reconfigurations performed through one client are
// discovered by others via the generation-number chase of the read rule —
// the realistic stale-client scenario of Section 4.
func OpenClient(tr transport.Transport, items []ItemSpec, opts ...Option) (*Store, error) {
	return newStore(tr, items, resolve(opts), false)
}

func newStore(tr transport.Transport, items []ItemSpec, st settings, spawnServers bool) (*Store, error) {
	s := &Store{
		tr:       tr,
		opts:     st,
		items:    map[string]ItemSpec{},
		dms:      map[string]*DMHost{},
		rng:      rand.New(rand.NewSource(st.seed)),
		jitter:   rand.New(rand.NewSource(st.seed ^ 0x5DEECE66D)),
		believed: map[string]genCfg{},
	}
	s.health = newHealthBoard(&s.Stats)
	s.budget = newRetryBudget(st.retryRatio)
	s.limiter = newAIMDLimiter(st.inflightMax)
	if s.limiter != nil {
		s.Stats.InflightLimit.Set(int64(s.limiter.ceiling()))
	}
	s.stopBg = make(chan struct{})
	if st.ring != nil {
		s.ring = st.ring.Clone()
	}
	for _, it := range items {
		if err := it.Config.Validate(it.DMs); err != nil {
			return nil, fmt.Errorf("cluster: item %q: %w", it.Name, err)
		}
		if _, dup := s.items[it.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate item %q", it.Name)
		}
		s.items[it.Name] = it
		s.believed[it.Name] = genCfg{gen: 0, cfg: newKnownCfg(it.Config)}
	}
	// From here on every failure must close the hosts already started, or
	// their endpoints and open logs outlive the failed Open.
	abandon := func() {
		for _, h := range s.dms {
			h.Close()
		}
	}
	if spawnServers {
		// One host per replica site: a DM hosts every item whose spec names
		// it, and knows every other DM as a peer to rebuild from.
		ids, hosted := sitesOf(items)
		for _, id := range ids {
			h, err := start(tr, id, hosted[id], peersOf(id, ids), st, &s.Stats)
			if err != nil {
				abandon()
				return nil, err
			}
			s.dms[id] = h
			h.countRecovery()
		}
	}
	s.clientID = fmt.Sprintf("c%d", clientSeq.Add(1))
	if spawnServers && st.walDir != "" {
		// Durable replicas remember resolved transaction ids across process
		// restarts, but clientSeq does not: a fresh process would mint c1
		// again and its c1.t1 would collide with a transaction the recovered
		// DMs already resolved. A persisted epoch, bumped once per durable
		// Open, keeps transaction ids unique across the directory's lifetime.
		epoch, err := bumpEpoch(st.walDir)
		if err != nil {
			abandon()
			return nil, err
		}
		s.clientID = fmt.Sprintf("e%d%s", epoch, s.clientID)
	}
	if st.clientTag != "" {
		// The tag goes outermost: it separates processes, the epoch and
		// sequence separate clients and restarts within one.
		s.clientID = st.clientTag + s.clientID
	}
	client, err := tr.Client(fmt.Sprintf("client-%s-%d", s.clientID, st.seed))
	if err != nil {
		abandon()
		return nil, fmt.Errorf("cluster: client endpoint: %w", err)
	}
	s.client = client
	if st.clock == transport.Wall {
		// The background renewer exists for wall-clock deployments only:
		// under a manual clock (deterministic harnesses) time moves between
		// rounds, and a timer-driven renewal would fork seeded replays.
		s.bg.Add(1)
		go s.leaseRenewer()
	}
	return s, nil
}

// now reads the store's clock (wall by default, manual in deterministic
// harnesses).
func (s *Store) now() time.Time { return s.opts.clock.Now() }

// clientSeq hands out process-unique client numbers; it exists solely to
// keep transaction IDs from distinct clients disjoint.
var clientSeq atomic.Uint64

// bumpEpoch increments the restart epoch persisted at dir/epoch and
// returns the new value. The write is tmp+rename so a crash mid-bump
// leaves either the old or the new epoch, never a torn file.
func bumpEpoch(dir string) (uint64, error) {
	path := filepath.Join(dir, "epoch")
	var e uint64
	if b, err := os.ReadFile(path); err == nil {
		fmt.Sscanf(strings.TrimSpace(string(b)), "%d", &e)
	}
	e++
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("%d\n", e)), 0o644); err != nil {
		return 0, fmt.Errorf("cluster: persist client epoch: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("cluster: persist client epoch: %w", err)
	}
	return e, nil
}

// Close shuts down the client and server nodes and closes any write-ahead
// logs, flushing their tails. Idempotent and safe to call concurrently:
// the first call does the work, the rest wait for nothing and return.
func (s *Store) Close() {
	s.closeOnce.Do(s.doClose)
}

func (s *Store) doClose() {
	// Stop the background goroutine (the lease renewer) first so it does
	// not issue new traffic into a closing cluster.
	close(s.stopBg)
	s.bg.Wait()
	// An orderly Close is not a crash (net.Crash models those, and loses
	// exactly what a crash may lose). Let the transport deliver everything
	// already queued — the commit and abort notifies of every returned
	// operation among it — so durable replicas log every resolution the
	// client believes delivered before their WALs close.
	s.tr.Quiesce()
	s.client.Close()
	for _, h := range s.hosts() {
		h.Close()
	}
}

// host returns the store's current host for DM id, nil if it spawned none.
func (s *Store) host(id string) *DMHost {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dms[id]
}

// hosts snapshots the store's current hosts.
func (s *Store) hosts() []*DMHost {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*DMHost, 0, len(s.dms))
	for _, h := range s.dms {
		out = append(out, h)
	}
	return out
}

// StopDM closes one DM's host without any recovery: its endpoint closes
// (orderly — requests already delivered are served) and, for durable
// stores, its write-ahead log is flushed and closed. The replica is gone
// until RestartDM (durable stores) brings it back; to the rest of the
// cluster it is indistinguishable from a dead peer. Transport-neutral
// harness device: sim tests also have net.Crash, which models the messier
// amnesia fate.
func (s *Store) StopDM(id string) error {
	h := s.host(id)
	if h == nil {
		return fmt.Errorf("cluster: unknown DM %q", id)
	}
	h.Close()
	return nil
}

// ClientNode returns the network node id of this store's client, so test
// harnesses can aim partitions at the client side of the cluster.
func (s *Store) ClientNode() string { return s.client.ID() }

// Items returns the store's current item specs — the opened set, with any
// live-migration relocations applied.
func (s *Store) Items() []ItemSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ItemSpec, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DMs lists every DM the store's current item specs name, sorted.
func (s *Store) DMs() []string {
	dms, _ := sitesOf(s.Items())
	return dms
}

// traceEvent records an event when tracing is enabled.
func (s *Store) traceEvent(actor, kind, format string, args ...any) {
	if s.opts.trace != nil {
		s.opts.trace.Add(actor, kind, format, args...)
	}
}

func (s *Store) config(item string) genCfg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.believed[item]
}

// itemSpec reads the store's current spec for item under the mutex. Specs
// are no longer immutable after Open: a live migration rewrites an item's
// replica set in place, so every phase re-resolves through here instead of
// touching the map directly.
func (s *Store) itemSpec(item string) (ItemSpec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[item]
	return it, ok
}

// Ring returns a copy of the store's current placement view, or nil for
// unsharded stores.
func (s *Store) Ring() *shard.Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return nil
	}
	return s.ring.Clone()
}

// RingEpoch returns the store's current placement epoch (0 unsharded) —
// cheaper than Ring() when only staleness is being checked.
func (s *Store) RingEpoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return 0
	}
	return s.ring.Epoch
}

// relocateItem rewrites the client's view of where item lives: its replica
// set, believed generation/config, and (when the store is sharded) the
// ring override pinning it to the new group. Generation numbers only go
// forward, so a stale redirect (or a racing pair of them) cannot regress a
// newer placement.
func (s *Store) relocateItem(item string, dms []string, gen int, cfg quorum.Config, group string, epoch int) {
	s.mu.Lock()
	if it, ok := s.items[item]; ok {
		if cur := s.believed[item]; gen >= cur.gen {
			it.DMs = append([]string(nil), dms...)
			it.Config = cfg.Clone()
			s.items[item] = it
			s.believed[item] = genCfg{gen: gen, cfg: newKnownCfg(cfg.Clone())}
		}
	}
	if s.ring != nil && group != "" {
		if _, ok := s.ring.Group(group); ok && s.ring.Lookup(item) != group {
			_ = s.ring.MoveKey(item, group)
		}
		if epoch > s.ring.Epoch {
			s.ring.Epoch = epoch
		}
	}
	s.mu.Unlock()
}

// adoptRedirect folds a WrongShard redirect into the client's placement
// view and reports whether it taught the client anything new — a fresh
// generation, or a different replica set at the believed one (an older
// generation's is not adopted). A redirect that changes nothing means the
// client already believes the placement the marker names, so retrying under
// it cannot make progress.
func (s *Store) adoptRedirect(w WrongShardResp) bool {
	it, _ := s.itemSpec(w.Item)
	cur := s.config(w.Item)
	changed := w.Gen > cur.gen || (w.Gen == cur.gen && !sameStrings(it.DMs, w.DMs))
	s.relocateItem(w.Item, w.DMs, w.Gen, w.Cfg, w.Group, w.Epoch)
	return changed
}

// sameStrings reports order-insensitive set equality of two DM lists.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ForgetConfig resets the client's cached configuration for item to the
// initial one, simulating a client that has not heard about
// reconfigurations; the next read phase rediscovers the current
// configuration by chasing generation numbers.
func (s *Store) ForgetConfig(item string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it, ok := s.items[item]; ok {
		s.believed[item] = genCfg{gen: 0, cfg: newKnownCfg(it.Config)}
	}
}

// observeConfig adopts cfg, generation gen's configuration of item, when gen
// is newer than the one the client believes — a private copy, its target
// lists computed then — and returns what the client believes after.
func (s *Store) observeConfig(item string, gen int, cfg quorum.Config) genCfg {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.believed[item]; !ok || gen > cur.gen {
		s.believed[item] = genCfg{gen: gen, cfg: newKnownCfg(cfg.Clone())}
	}
	return s.believed[item]
}

// phasePlans lists, in order, the quorum sets one attempt of a phase offers
// runPhase. By default that is one plan offering every quorum: runPhase asks
// one of them first and widens to the others' members when it has to. WithSequentialPhases offers one quorum per plan
// instead — a single-quorum plan waits for every member, is never hedged
// (runPhase) and never has a surplus grant to release, so which replicas a
// phase asks does not depend on which of them answers first, which exact
// chaos replay needs. Small enough to inline, so the one-plan slice stays on
// the caller's stack.
func (s *Store) phasePlans(qs []quorum.Set) [][]quorum.Set {
	if s.opts.sequential {
		return s.sequentialPlans(qs)
	}
	return [][]quorum.Set{qs}
}

// planTargets lists every replica the plan offering quorums may ask: all —
// the configuration's union, computed when the client adopted it — when
// that plan is the only one and so offers every quorum, else the union of
// quorums alone.
func planTargets(plans [][]quorum.Set, quorums []quorum.Set, all []string) []string {
	if len(plans) == 1 {
		return all
	}
	return union(quorums)
}

// sequentialPlans orders the quorums randomly, smallest first among equal
// random keys so cheap quorums are preferred and fewest suspect members
// first, and offers them one by one.
func (s *Store) sequentialPlans(qs []quorum.Set) [][]quorum.Set {
	order := append([]quorum.Set(nil), qs...)
	s.mu.Lock()
	s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	s.mu.Unlock()
	sort.SliceStable(order, func(i, j int) bool { return len(order[i]) < len(order[j]) })
	order = s.health.orderQuorums(order)
	plans := make([][]quorum.Set, len(order))
	for i := range order {
		plans[i] = order[i : i+1]
	}
	return plans
}

// backoff sleeps for the attempt-scaled, jittered backoff or until ctx
// expires. The jitter breaks restart symmetry between conflicting
// transactions, which plain linear backoff can lock into livelock.
func (s *Store) backoff(ctx context.Context, attempt int) {
	select {
	case <-time.After(s.backoffDelay(attempt)):
	case <-ctx.Done():
	}
}

// backoffDelay draws the attempt-scaled, jittered wait before retry attempt.
func (s *Store) backoffDelay(attempt int) time.Duration {
	base := s.opts.retryBackoff * time.Duration(attempt+1)
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return base/2 + time.Duration(s.jitter.Int63n(int64(base)))
}

// touchLevel grades how certain the client is that a DM holds state for
// the transaction.
type touchLevel int

const (
	// touchMaybe: a request copy to the DM was abandoned in flight — it
	// may have granted after the phase completed. Control messages are
	// sent best-effort; the DM owes us nothing we can prove.
	touchMaybe touchLevel = iota + 1
	// touchGranted: the DM acknowledged a lock grant but buffered no
	// intention — it holds nothing a commit needs, only locks that should
	// be swept. Its commit ack is pursued but not required; aborts still
	// demand it.
	touchGranted
	// touchWritten: the DM acknowledged a write-phase grant and buffers an
	// intention. The top-level commit must be acknowledged by every such
	// DM or the operation fails.
	touchWritten
)

// Txn is a (possibly nested) transaction handle. A Txn is not safe for
// concurrent use; run concurrent work in subtransactions via Sub or
// separate top-level transactions.
type Txn struct {
	store  *Store
	id     TxnID
	parent *Txn // nil at the top level
	root   *Txn // the top level of t's tree, t itself there

	// unchecked is the root's lockless first read while no later access of
	// the tree has re-read it under a lock; the next read phase of any Txn in
	// the tree takes it and validates it (validateFirst). Set on the root
	// only.
	unchecked atomic.Pointer[firstRead]

	mu       sync.Mutex
	touched  map[string]touchLevel
	childSeq int
	phaseSeq int
	done     bool
	ops      []checker.Op
	// invalid is the root's sticky verdict of a failed validation, which
	// commitAttempt refuses to commit past.
	invalid error

	// subs lists the committed subtransactions of this transaction's
	// subtree; the append that puts a child here is the child's commit
	// (adopt).
	subs []TxnID

	// wroteItems names the items this transaction (or a finished child,
	// aborted ones included) buffered writes for; the Paxos cohort is the
	// union of their replica sets (paxosCohort).
	wroteItems map[string]bool

	// leaseStamp is the last time this client knowingly (re)stamped the
	// transaction's leases everywhere — at creation (no leases exist yet)
	// and after each successful renewLeases round. The pre-commit fence
	// skips its renewal round when the stamp is fresher than TTL/2.
	leaseStamp time.Time
}

// ID returns the transaction's hierarchical identifier.
func (t *Txn) ID() TxnID { return t.id }

func (t *Txn) touch(dm string) {
	t.mu.Lock()
	if t.touched[dm] < touchGranted {
		t.touched[dm] = touchGranted
	}
	t.mu.Unlock()
}

// touchWrite records a DM that granted a write phase and now buffers an
// intention for the transaction.
func (t *Txn) touchWrite(dm string) {
	t.mu.Lock()
	t.touched[dm] = touchWritten
	t.mu.Unlock()
}

// touchTentative records a DM an abandoned in-flight request copy may have
// granted at. A confirmed grant always outranks it.
func (t *Txn) touchTentative(dm string) {
	t.mu.Lock()
	if t.touched[dm] < touchMaybe {
		t.touched[dm] = touchMaybe
	}
	t.mu.Unlock()
}

// held reports which of targets t's tree already holds a grant at: bit i is
// set when t or an ancestor touched targets[i] at touchGranted or above. A
// target past the 64th never counts as held.
func (t *Txn) held(targets []string) uint64 {
	var mask uint64
	for a := t; a != nil; a = a.parent {
		a.mu.Lock()
		for i, dm := range targets {
			if a.touched[dm] >= touchGranted {
				mask |= 1 << i
			}
		}
		a.mu.Unlock()
	}
	return mask
}

func (t *Txn) touchedDMs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.touched))
	for dm := range t.touched {
		out = append(out, dm)
	}
	sort.Strings(out)
	return out
}

// controlSets partitions the touched DMs by how much the transaction's
// resolution owes them: written DMs buffer intentions, granted DMs hold
// only locks, tentative DMs may hold a late grant from an abandoned
// request copy.
func (t *Txn) controlSets() (written, granted, tentative []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for dm, lvl := range t.touched {
		switch {
		case lvl >= touchWritten:
			written = append(written, dm)
		case lvl >= touchGranted:
			granted = append(granted, dm)
		default:
			tentative = append(tentative, dm)
		}
	}
	sort.Strings(written)
	sort.Strings(granted)
	sort.Strings(tentative)
	return written, granted, tentative
}

// record logs one logical operation for the attached history recorder.
// Ops accumulate on the transaction and reach the recorder only if the
// top level commits; Sub adopts a child's ops only when the child
// commits, so aborted effects never pollute the history.
func (t *Txn) record(kind checker.Kind, item string, val any, vn int, start time.Time) {
	if t.store.opts.history == nil {
		return
	}
	t.mu.Lock()
	t.ops = append(t.ops, checker.Op{Kind: kind, Item: item, Value: val, VN: vn, Start: start})
	t.mu.Unlock()
}

// nextSeq issues the transaction's next quorum-phase sequence number.
// Seq numbers order a transaction's phases at each DM, letting a
// ReleaseReq tombstone exactly one phase.
func (t *Txn) nextSeq() int {
	t.mu.Lock()
	t.phaseSeq++
	s := t.phaseSeq
	t.mu.Unlock()
	return s
}

// inherited lists the committed subtransactions whose locks and versions
// t's ancestors, t included, have inherited so far — what every access t
// sends states to the replica (ReadReq.Inherit). Gathered at send time, so
// a retry after Busy names a sibling that committed meanwhile. Nil for a
// flat transaction.
func (t *Txn) inherited() []TxnID {
	var out []TxnID
	for a := t; a != nil; a = a.parent {
		a.mu.Lock()
		out = append(out, a.subs...)
		a.mu.Unlock()
	}
	return out
}

// committedSubs snapshots the transaction's committed-subtransaction ids.
func (t *Txn) committedSubs() []TxnID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TxnID(nil), t.subs...)
}

// readResult aggregates a completed read phase.
type readResult struct {
	vn  int
	val any
	gen int
	cfg knownCfg
}

// phaseTally accumulates what a phase's attempts saw, for the typed error
// the phase returns if none of them assembles a quorum.
type phaseTally struct {
	attempts     int
	sawBusy      bool
	budgetDenied bool
	col          *collector // the last plan's outcome
	targets      []string   // and the replicas it asked
	orphans      []TxnID    // expired-lease holders the refusals named, not yet resolved
}

// admit opens one attempt of a phase. The first deposits into the retry
// budget; every later one must withdraw from it — when the budget is dry,
// retry traffic already runs at its allowed fraction of first-attempt
// traffic, and piling on more would amplify the very overload causing the
// retries.
func (p *phaseTally) admit(s *Store, attempt int) bool {
	if attempt == 0 {
		s.budget.deposit()
		return true
	}
	if s.budget.allow() {
		return true
	}
	s.Stats.RetryBudgetDenied.Inc()
	p.budgetDenied = true
	return false
}

// fail is the phase's error epilogue: the caller's own cancellation first,
// then a lock conflict, then load shedding, then plain unavailability.
func (p *phaseTally) fail(ctx context.Context, t *Txn, item, phase string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	col := p.col
	if col == nil {
		col = newCollector(nil)
	}
	if p.sawBusy {
		return &ConflictError{
			Item: item, Txn: t.id, Phase: phase,
			Attempts: p.attempts, Responded: col.respondedDMs(),
		}
	}
	if col.sawShed() {
		return &OverloadedError{
			Item: item, Txn: t.id, Phase: phase,
			Attempts: p.attempts, Shed: col.shedDMs(),
			Expired: col.expired, BudgetDenied: p.budgetDenied,
		}
	}
	return &UnavailableError{
		Item: item, Txn: t.id, Phase: phase,
		Attempts: p.attempts, Responded: col.respondedDMs(),
		Missing: col.missingDMs(p.targets),
	}
}

// runPlan fans one plan of a phase out, times it, squares its grants with
// the DMs and notes the outcome in the tally.
func (t *Txn) runPlan(ctx context.Context, tally *phaseTally, spec phaseSpec, lat *metrics.Histogram) *collector {
	tally.attempts++
	start := time.Now()
	col := t.runPhase(ctx, spec)
	lat.ObserveSince(start)
	t.settlePhase(spec, col)
	tally.col, tally.targets = col, spec.targets
	if col.sawBusy() {
		tally.sawBusy = true
	}
	tally.orphans = append(tally.orphans, col.orphans...)
	return col
}

// retry closes a phase attempt that made no progress: the orphans its
// refusals named are resolved — they are in this transaction's way, so this
// client runs their resolution — and then it backs off.
func (p *phaseTally) retry(ctx context.Context, s *Store, attempt int) {
	s.resolveAll(ctx, p.orphans)
	p.orphans = nil
	s.backoff(ctx, attempt)
}

// wrongShardErr is the typed error for a phase that cannot carry on past a
// migration redirect: a read whose redirect taught it nothing, a write
// always.
func (t *Txn) wrongShardErr(item, phase string, w WrongShardResp) error {
	return &WrongShardError{
		Item: item, Txn: t.id, Phase: phase,
		Group: w.Group, Epoch: w.Epoch, DMs: append([]string(nil), w.DMs...),
	}
}

// firstRead is a root's lockless first read: the item and the version it
// returned, which the tree's next access re-reads under a lock.
type firstRead struct {
	item string
	vn   int
}

// readPhase assembles a read-quorum of the item's current configuration,
// chasing generation numbers upward as newer configurations are discovered
// (Section 4's read rule), and returns the highest-version value seen.
//
// Each plan first asks one read-quorum, widens to the other replicas its
// read-quorums mention only when a member refuses or fails or the hedge
// timer fires, and completes on the first covered quorum (runPhase).
// Versions are folded over the winning quorum only, because grants beyond
// it are released (folding a released replica's value would use state no
// lock protects, breaking two-phase locking). Quorum intersection makes the
// winner sufficient: any read-quorum contains the highest version any
// write-quorum committed.
//
// A top-level transaction's first access, when it is a plain read, takes no
// lock (lockNone): a replica refuses it where it would refuse a read lock —
// on a foreign write lock, which every intention comes with — and otherwise
// answers with its committed state and records nothing. Every read quorum
// meets each committed writer's write quorum at a member that applied the
// write or still holds its lock, so a lockless read that assembles a quorum
// misses no write whose commit point has passed (DESIGN.md §5). Anything
// else — Busy inside every quorum, a shed, silence — switches the next
// attempt to a locking read. A read-only body that stops there has nothing
// to resolve; any further access validates the read first (validateFirst).
//
// Progress — a newer generation or placement learned — re-reads at once and
// is no retry: it spends neither an attempt nor a retry-budget token, and
// neither does the switch. Each such step strictly advances the client's
// view, so there are finitely many.
func (t *Txn) readPhase(ctx context.Context, item string, mode LockMode) (readResult, error) {
	if t.root.unchecked.Load() != nil {
		if first := t.root.unchecked.Swap(nil); first != nil {
			return t.validateFirst(ctx, first, item, mode)
		}
	}
	it, ok := t.store.itemSpec(item)
	if !ok {
		return readResult{}, fmt.Errorf("cluster: unknown item %q", item)
	}
	believed := t.store.config(item)
	res := readResult{val: it.Initial, gen: believed.gen, cfg: believed.cfg}
	lockless := false
	if t.parent == nil && mode == LockRead {
		t.mu.Lock()
		lockless = t.phaseSeq == 0 && t.childSeq == 0
		t.mu.Unlock()
	}
	var tally phaseTally
	tally.admit(t.store, 0)
	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return readResult{}, err
		}
		lock := mode
		if lockless {
			lock = lockNone
		}
		progressed := false
		plans := t.store.phasePlans(believed.cfg.R)
		for _, quorums := range plans {
			seq := t.nextSeq()
			col := t.runPlan(ctx, &tally, phaseSpec{
				item:     item,
				targets:  planTargets(plans, quorums, believed.cfg.readTargets),
				quorums:  quorums,
				req:      ReadReq{Txn: t.id, Item: item, Lock: lock, Seq: seq, Gen: res.gen, Inherit: t.inherited()},
				seq:      seq,
				lockless: lockless,
			}, &t.store.Stats.ReadPhaseLatency)
			// Generation discovery may use every grant, winner or not: a newer
			// generation only redirects the next attempt, which assembles a
			// proper quorum of the newer configuration on its own.
			for _, m := range col.grantedResps() {
				if m.resp.Gen > res.gen {
					now := t.store.observeConfig(item, m.resp.Gen, m.resp.Cfg)
					res.gen, res.cfg = now.gen, now.cfg
				}
			}
			win, won := col.winner()
			if won && res.gen <= believed.gen {
				for _, m := range col.winnerResps(win) {
					if m.resp.VN > res.vn {
						res.vn, res.val = m.resp.VN, m.resp.Val
					}
					if m.resp.VN == res.vn && m.resp.Val != nil {
						res.val = m.resp.Val
					}
				}
				if lockless {
					t.unchecked.Store(&firstRead{item: item, vn: res.vn})
				}
				return res, nil
			}
			if res.gen > believed.gen {
				// A newer configuration was installed: re-read under it
				// immediately — that is progress, not a conflict.
				believed = genCfg{gen: res.gen, cfg: res.cfg}
				progressed = true
				break
			}
			if w, ok := col.sawWrongShard(); ok {
				// The replicas we asked retired this item after a migration. The
				// redirect carries the new placement; adopting it and re-reading
				// is progress exactly like the generation chase above. A redirect
				// that teaches us nothing new (we already believe that placement)
				// means the marker is circular — surface it instead of looping.
				t.store.Stats.WrongShardRedirects.Inc()
				if !t.store.adoptRedirect(w) {
					return readResult{}, t.wrongShardErr(item, "read", w)
				}
				believed = t.store.config(item)
				if believed.gen > res.gen {
					res.gen, res.cfg = believed.gen, believed.cfg
				}
				progressed = true
				break
			}
		}
		switch {
		case progressed: // re-read under what was learned
		case lockless: // and a locking read next, at once
			lockless = false
		default:
			tally.retry(ctx, t.store, attempt)
			if attempt++; attempt > t.store.opts.lockRetries || !tally.admit(t.store, attempt) {
				return readResult{}, tally.fail(ctx, t, item, "read")
			}
		}
	}
}

// validateFirst runs t's read phase of item behind the validation of the
// root's lockless first read: the root re-reads that item under a read lock
// of its own, which lives until the top level resolves, and the tree goes on
// only if the version is unchanged — the first read is then exactly a
// locking read taken now. When t is the root reading the same item again,
// that read phase is the re-read and no extra round is sent. A changed
// version or a failed re-read is a sticky conflict on the root: a body that
// tolerates this access's error still cannot commit.
func (t *Txn) validateFirst(ctx context.Context, first *firstRead, item string, mode LockMode) (readResult, error) {
	root := t.root
	fold := t == root && item == first.item
	check := LockRead
	if fold {
		check = mode
	}
	res, err := root.readPhase(ctx, first.item, check)
	if err != nil || res.vn != first.vn {
		conflict := &ConflictError{Item: first.item, Txn: root.id, Phase: "validate", Attempts: 1}
		root.mu.Lock()
		root.invalid = conflict
		root.mu.Unlock()
		if err == nil {
			err = conflict
		}
		return readResult{}, err
	}
	if fold {
		return res, nil
	}
	return t.readPhase(ctx, item, mode)
}

// Inspect returns a DM's committed replica state for tests and tooling.
func (s *Store) Inspect(ctx context.Context, dm, item string) (InspectResp, error) {
	raw, err := s.callDM(ctx, dm, InspectReq{Item: item})
	if err != nil {
		return InspectResp{}, err
	}
	resp, ok := raw.(InspectResp)
	if !ok || !resp.OK {
		return InspectResp{}, fmt.Errorf("cluster: no replica of %q at %s", item, dm)
	}
	return resp, nil
}

// writeQuorum offers the request built by mk to the write-quorums of cfg —
// one first, the rest only when the phase widens (runPhase) — and completes
// on the first covered one, retrying with backoff on conflicts. Replicas
// beyond the winning quorum that granted after a widening keep their
// intentions — extra copies of a committed write only help availability —
// so no locks are released.
func (t *Txn) writeQuorum(ctx context.Context, item, phase string, cfg knownCfg, mk func(seq int) any) error {
	var tally phaseTally
	for attempt := 0; attempt <= t.store.opts.lockRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !tally.admit(t.store, attempt) {
			break
		}
		plans := t.store.phasePlans(cfg.W)
		for _, quorums := range plans {
			seq := t.nextSeq()
			col := t.runPlan(ctx, &tally, phaseSpec{
				item:    item,
				targets: planTargets(plans, quorums, cfg.writeTargets),
				quorums: quorums,
				req:     mk(seq),
				seq:     seq,
				isWrite: true,
			}, &t.store.Stats.WritePhaseLatency)
			if col.done() {
				t.noteWrittenItem(item)
				return nil
			}
			if w, ok := col.sawWrongShard(); ok {
				// A write cannot chase a redirect mid-phase: its version number
				// was derived from a read under the old placement. Adopt the new
				// placement and fail conflict-style so the whole transaction
				// restarts against it.
				t.store.Stats.WrongShardRedirects.Inc()
				t.store.adoptRedirect(w)
				return t.wrongShardErr(item, phase, w)
			}
		}
		tally.retry(ctx, t.store, attempt)
	}
	return tally.fail(ctx, t, item, phase)
}

// Read performs a logical read: quorum-read the item and return the value
// with the highest version number.
func (t *Txn) Read(ctx context.Context, item string) (any, error) {
	val, _, err := t.read(ctx, item, LockRead)
	return val, err
}

// ReadVersioned is Read exposing the version number that accompanied the
// returned value — the linearization witness quorum consensus maintains.
// Intended for verification tooling (internal/checker) and diagnostics.
func (t *Txn) ReadVersioned(ctx context.Context, item string) (any, int, error) {
	return t.read(ctx, item, LockRead)
}

// ReadForUpdate performs a logical read that takes write locks, for
// read-modify-write transactions: acquiring the write intent up front
// avoids the read-to-write lock upgrade that deadlocks concurrent
// updaters.
func (t *Txn) ReadForUpdate(ctx context.Context, item string) (any, error) {
	val, _, err := t.read(ctx, item, LockWrite)
	return val, err
}

// read is the one logical-read path: a read phase under the given lock
// mode plus the operation's bookkeeping.
func (t *Txn) read(ctx context.Context, item string, mode LockMode) (any, int, error) {
	if t.done {
		return nil, 0, ErrTxnDone
	}
	start := time.Now()
	res, err := t.readPhase(ctx, item, mode)
	if err != nil {
		return nil, 0, err
	}
	t.store.Stats.Reads.Inc()
	t.store.Stats.ReadLatency.ObserveSince(start)
	t.record(checker.OpRead, item, res.val, res.vn, start)
	if t.store.opts.trace != nil { // guarded: boxing the arguments allocates
		t.store.traceEvent(string(t.id), "read", "%s = %v (vn %d)", item, res.val, res.vn)
	}
	return res.val, res.vn, nil
}

// Write performs a logical write: discover the current version number from
// a read-quorum (under write locks — update locking), then write
// (vn+1, val) to a write-quorum.
func (t *Txn) Write(ctx context.Context, item string, val any) error {
	_, err := t.WriteVersioned(ctx, item, val)
	return err
}

// WriteVersioned is Write exposing the version number the write installed
// — the linearization witness. Intended for verification tooling.
func (t *Txn) WriteVersioned(ctx context.Context, item string, val any) (int, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	start := time.Now()
	res, err := t.readPhase(ctx, item, LockWrite)
	if err != nil {
		return 0, err
	}
	// One past the read-quorum maximum, routed through the test-only
	// mutation hook when one is planted.
	vn := res.vn + 1
	if mut := t.store.Hooks.MutateWriteVN; mut != nil {
		vn = mut(item, vn)
	}
	err = t.writeQuorum(ctx, item, "write", res.cfg, func(seq int) any {
		return WriteReq{Txn: t.id, Item: item, VN: vn, Val: val, Seq: seq, Inherit: t.inherited()}
	})
	if err != nil {
		return 0, err
	}
	t.store.Stats.Writes.Inc()
	t.store.Stats.WriteLatency.ObserveSince(start)
	t.record(checker.OpWrite, item, val, vn, start)
	if t.store.opts.trace != nil { // guarded: boxing the arguments allocates
		t.store.traceEvent(string(t.id), "write", "%s := %v (vn %d)", item, val, vn)
	}
	return vn, nil
}

// control sends a commit/abort control message to every touched DM and
// returns the required DMs that never acknowledged. Only the required DMs
// are called, in one round (Store.call), each until it acknowledges or the
// retry budget runs out; the caller decides what a missing ack means (an
// abort carries on, Run's commit checks write-quorum coverage). Cleanup DMs
// hold only locks and tentative DMs (abandoned in-flight copies) may hold
// nothing at all: the outcome depends on neither, so each hears it once, as
// a notify sent in order from this goroutine while the calls travel — the
// paper's INFORM, which an object never answers. A notify carries no
// context, so a caller that cancels right after Run returns revokes nothing,
// and Close delivers what is queued. One lost to a broken link is what the
// lock lease covers: whoever the lock blocks resolves the transaction from
// the record any other DM holds, or presumes abort.
func (t *Txn) control(ctx context.Context, required, cleanup, tentative []string, req any) (missing []string) {
	if len(required) == 0 && len(cleanup) == 0 && len(tentative) == 0 {
		return nil
	}
	s := t.store
	start := time.Now()
	notify := func() {
		for _, dm := range cleanup {
			s.client.Notify(dm, req)
		}
		for _, dm := range tentative {
			s.client.Notify(dm, req)
		}
	}
	answers, _ := s.call(ctx, round{dms: required, req: req, retries: s.opts.lockRetries, until: isAck, then: notify})
	s.Stats.ControlLatency.ObserveSince(start)
	for i, raw := range answers {
		if !isAck(raw) {
			missing = append(missing, required[i])
		}
	}
	return missing
}

// adopt folds a finished child into its parent t. Either way the child's
// DMs join t's control list, so t's final commit or abort reaches every DM
// the child may have left state at — including DMs a cancelled or failed
// child phase touched — and its written items join t's (an aborted child's
// item only widens the Paxos cohort, never correctness). A committed child
// also hands up its history and its committed subtransactions with its own
// id at their head: that append is the child's commit.
func (t *Txn) adopt(child *Txn, committed bool) {
	child.mu.Lock()
	defer child.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for dm, lvl := range child.touched {
		t.touched[dm] = max(t.touched[dm], lvl)
	}
	if len(child.wroteItems) > 0 && t.wroteItems == nil {
		t.wroteItems = map[string]bool{}
	}
	for item := range child.wroteItems {
		t.wroteItems[item] = true
	}
	if !committed {
		return
	}
	t.ops = append(t.ops, child.ops...)
	t.subs = append(append(t.subs, child.id), child.subs...)
}

// Sub runs fn in a subtransaction. If fn fails the subtransaction is
// aborted — its locks and buffered writes are discarded — and the error is
// returned for the parent to handle: a parent may tolerate the abort and
// continue, exactly the failure-handling the paper's algorithm supports.
// On success the subtransaction's locks and intentions are inherited by
// the parent — an event at the coordinator, with no message: the
// subtransaction is recorded as committed on the parent, every later access
// of the tree names it (Txn.inherited) and the top-level commit applies it.
// So a child's commit is no point of no return; only the top level's is.
func (t *Txn) Sub(ctx context.Context, fn func(*Txn) error) error {
	if t.done {
		return ErrTxnDone
	}
	t.mu.Lock()
	t.childSeq++
	child := &Txn{
		store:   t.store,
		id:      TxnID(fmt.Sprintf("%s/%d", t.id, t.childSeq)),
		parent:  t,
		root:    t.root,
		touched: map[string]touchLevel{},
	}
	t.mu.Unlock()
	if err := fn(child); err != nil {
		child.abort(ctx)
		t.adopt(child, false)
		return err
	}
	child.done = true
	t.adopt(child, true)
	t.store.traceEvent(string(child.id), "sub-commit", "inherited by %s", t.id)
	return nil
}

// abort discards the transaction's locks and intentions everywhere it
// touched (best effort; DMs it cannot reach will shed the state when the
// top-level transaction resolves or on restart).
func (t *Txn) abort(ctx context.Context) {
	t.done = true
	if ctx.Err() != nil {
		// The caller's context is dead, so acked control rounds are
		// impossible — every Call would fail instantly. One fire-and-forget
		// AbortReq per touched DM still usually lands, and whatever it
		// misses is resolved by whoever it blocks once the leases lapse.
		for _, dm := range t.touchedDMs() {
			t.store.client.Notify(dm, AbortReq{Txn: t.id})
		}
		t.store.Stats.Aborts.Inc()
		t.store.traceEvent(string(t.id), "abort", "notified %v (ctx dead)", t.touchedDMs())
		return
	}
	written, granted, tentative := t.controlSets()
	required := append(written, granted...)
	sort.Strings(required)
	_ = t.control(ctx, required, nil, tentative, AbortReq{Txn: t.id})
	t.store.Stats.Aborts.Inc()
	t.store.traceEvent(string(t.id), "abort", "discarded at %v", t.touchedDMs())
}

// Run executes fn as a top-level transaction, restarting it (with a fresh
// transaction ID) up to WithTxnRetries times when it aborts due to lock
// conflicts — the cluster's deadlock/livelock resolution.
func (s *Store) Run(ctx context.Context, fn func(*Txn) error) error {
	// Admission before work: the AIMD limiter bounds in-flight top-level
	// transactions, and TxnLatency starts after the slot is granted so it
	// measures admitted work — the p99 an overload gate holds steady — not
	// time spent queueing for a slot.
	if err := s.limiter.acquire(ctx); err != nil {
		return err
	}
	defer s.limiter.release()
	start := time.Now()
	var err error
	for attempt := 0; attempt <= s.opts.txnRetries; attempt++ {
		if _, err = s.commitAttempt(ctx, fn, CommitCrashOptions{}); err == nil {
			s.Stats.TxnLatency.ObserveSince(start)
			break
		}
		// Only conflicts restart. An in-doubt outcome may yet be commit;
		// overload and unavailability deliberately do not retry here —
		// re-running a transaction the replicas just refused would amplify
		// the overload, so the AIMD limiter hears the signal instead and
		// shrinks the in-flight ceiling.
		if !errors.Is(err, ErrConflict) || ctx.Err() != nil {
			break
		}
		if !s.budget.allow() {
			// Conflict restarts draw from the same retry budget as phase
			// retries: under overload-driven conflict storms the budget is
			// what stops goodput from collapsing into retry traffic.
			s.Stats.RetryBudgetDenied.Inc()
			break
		}
		s.Stats.Restarts.Inc()
		s.backoff(ctx, attempt)
	}
	s.noteTxnOutcome(err)
	return err
}

// commitAttempt is the one top-level commit path: it runs body in a fresh
// transaction and, if body succeeds, carries the transaction through the
// common tail — lease fence, Paxos decide (when the protocol and a
// non-empty cohort call for it), the CommitTopReq learn round, then
// counters and history. A failure before the commit point
// aborts the attempt; an in-doubt decide leaves its locks to whoever they
// block next instead, because aborting or retrying could contradict whatever
// the cohort decides.
//
// cut, when its Stage is set, kills the coordinator at that instant: no
// abort, no further sends, locks and votes left dangling exactly as a
// kill -9 would leave them, and ErrCommitAbandoned returned with a report of
// how far the commit got. The zero cut commits cleanly.
func (s *Store) commitAttempt(ctx context.Context, body func(*Txn) error, cut CommitCrashOptions) (rep CrashReport, err error) {
	rep.Start = time.Now()
	t := &Txn{
		store:      s,
		id:         TxnID(fmt.Sprintf("%s.t%d", s.clientID, s.txnSeq.Add(1))),
		touched:    map[string]touchLevel{},
		leaseStamp: s.now(),
	}
	t.root = t
	rep.Txn = t.id
	s.trackTxn(t)
	defer s.untrackTxn(t)
	err = body(t)
	if err == nil {
		// A failed validation of the lockless first read is sticky: a body
		// that tolerated the failed access still cannot commit.
		t.mu.Lock()
		err = t.invalid
		t.mu.Unlock()
	}
	if err == nil {
		// The lease fence: renew at every touched DM before the commit
		// point. A refusal means some DM already resolved the transaction —
		// most likely a blocked client presumed it aborted — so committing
		// would diverge; abort this attempt and restart under a fresh id
		// (LeaseExpiredError unwraps to ErrConflict).
		if err = t.ensureLease(ctx); err != nil {
			s.Stats.LeaseExpiries.Inc()
		}
	}
	if err != nil {
		t.abort(ctx)
		return rep, err
	}
	var cohort []string
	if s.opts.protocol == commit.PaxosCommit {
		// Read-only transactions (empty cohort) skip consensus — they have
		// no outcome to decide.
		cohort = t.paxosCohort()
	}
	stage, prefix := cut.Stage, max(0, cut.Deliver)
	if len(cohort) == 0 && (stage == CommitCrashMidDecide || stage == CommitCrashBeforeLearn) {
		// Without a decide phase everything before the first CommitTopReq
		// send is one window.
		stage = CommitCrashBeforeDecide
	}
	if stage == CommitCrashBeforeDecide {
		return t.dangle(rep, cohort), ErrCommitAbandoned
	}
	if len(cohort) > 0 {
		// The decide phase (DESIGN.md §11): the outcome is durably accepted
		// at a majority of the cohort BEFORE any DM hears a commit, so a
		// coordinator crash anywhere past this line leaves an outcome any
		// conflicting party reconstructs from the acceptors in one
		// round-trip.
		deliver := len(cohort)
		if stage == CommitCrashMidDecide {
			deliver = min(prefix, deliver)
		}
		var out commit.Decision
		rep.Cohort, rep.Sends = len(cohort), deliver
		out, rep.Accepts, err = s.propose(ctx, t.id, cohort, deliver, 0,
			commit.Decision{Commit: true, Subs: txnsToStrings(t.committedSubs())})
		s.Stats.PaxosAccepts.Add(int64(rep.Accepts))
		if rep.Accepts >= commit.Quorum(len(cohort)) {
			s.Stats.PaxosCommits.Inc()
		}
		if err == nil && !out.Commit {
			// Somebody resolved the instance first, as an abort: the
			// ordinary abort/restart path is safe (no DM can hold a commit).
			err = &ConflictError{Txn: t.id, Phase: "decide", Attempts: 1}
		}
		rep.Decided = err == nil
		if stage == CommitCrashMidDecide || (stage == CommitCrashBeforeLearn && err == nil) {
			return t.dangle(rep, cohort), ErrCommitAbandoned
		}
		if errors.Is(err, ErrTxnInDoubt) {
			// Acceptors were reached but no majority answered. The locks
			// stand until acceptor recovery resolves them — at the first
			// conflict that finds them, not by presumption.
			return t.dangle(rep, cohort), err
		}
		if err != nil {
			t.abort(ctx)
			return rep, err
		}
	}

	// The first CommitTopReq send is the commit point: every written DM
	// buffered the intention at a full write quorum, so any delivered copy
	// publishes the write to readers. Reporting failure (or worse,
	// aborting) after that would misreport a visible commit — the
	// unknown-outcome window chaos checking trips over. A straggler that
	// never hears the commit keeps its locks, so no quorum it belongs to
	// can read a stale version or re-issue the version number: readers and
	// writers route around it through quorums whose intersection members
	// did apply.
	written, granted, tentative := t.controlSets()
	if stage == CommitCrashMidLearn {
		// The broadcast reaches a prefix of the written DMs, then dies.
		written, granted, tentative = written[:min(prefix, len(written))], nil, nil
	}
	if hook := s.Hooks.BeforeCommitTop; hook != nil {
		hook(t.id)
	}
	learnCtx := ctx
	if len(cohort) > 0 {
		// The outcome is already decided at the acceptors: a caller
		// cancelling its context now must not abandon the learn fan-out,
		// any more than it can revoke the cleanup notifies. The sends stay
		// bounded by per-call timeouts and retry budgets, and stragglers
		// are resolved by acceptor recovery regardless.
		learnCtx = context.WithoutCancel(ctx)
	}
	missing := t.control(learnCtx, written, granted, tentative,
		CommitTopReq{Txn: t.id, Subs: t.committedSubs()})
	rep.Sends += len(written)
	rep.Learned = len(written) - len(missing)
	if len(cohort) == 0 {
		// Under TwoPhase the first applied CommitTopReq decides commit.
		rep.Decided = rep.Learned > 0
	}
	if stage == CommitCrashMidLearn {
		return t.dangle(rep, cohort), ErrCommitAbandoned
	}
	if len(missing) > 0 {
		s.traceEvent(string(t.id), "commit", "stragglers %v", missing)
	}
	t.done = true
	s.Stats.Commits.Inc()
	rep.Decided = true
	rep.End, rep.Ops = time.Now(), t.ops
	if s.opts.history != nil {
		s.opts.history.RecordTxn(checker.TxnRecord{
			ID: string(t.id), Start: rep.Start, End: rep.End, Ops: t.ops,
		})
	}
	s.traceEvent(string(t.id), "commit", "applied at %v", t.touchedDMs())
	return rep, nil
}

// dangle closes the books on a coordinator that stops without resolving
// its transaction — an injected crash or an in-doubt decide. The report
// names every replica that may hold state for it (written and lock-granting
// DMs plus the acceptor cohort): the set a harness must probe to observe
// the cluster's eventual resolution.
func (t *Txn) dangle(rep CrashReport, cohort []string) CrashReport {
	t.done = true
	written, granted, _ := t.controlSets()
	rep.DMs = quorum.NewSet(append(append(written, granted...), cohort...)...).Names()
	rep.End, rep.Ops = time.Now(), t.ops
	t.store.traceEvent(string(t.id), "commit", "coordinator stopped unresolved (decided %v, accepts %d/%d, learned %d)",
		rep.Decided, rep.Accepts, rep.Cohort, rep.Learned)
	return rep
}

// reconfigureTo is the body of Section 4's reconfigure-TM: read
// (v, t, c, g) from a read-quorum of the current configuration under write
// locks, write (v, t) to a write-quorum of the new configuration, and write
// (c', g+1) to a write-quorum of the old one — the paper's footnote-6 rule,
// sufficient whenever old and new quorums intersect. both writes the record
// to a write-quorum of the new configuration as well (Gifford's original
// rule), which a move to a disjoint replica set needs: the old quorum's
// record redirects stale clients, the new quorum's is the one the item
// lives under afterwards. phase labels the write phases in typed errors.
func (t *Txn) reconfigureTo(ctx context.Context, item, phase string, newCfg quorum.Config, both bool) (readResult, error) {
	res, err := t.readPhase(ctx, item, LockWrite)
	if err != nil {
		return res, err
	}
	next := newKnownCfg(newCfg)
	err = t.writeQuorum(ctx, item, phase, next, func(seq int) any {
		return WriteReq{Txn: t.id, Item: item, VN: res.vn, Val: res.val, Seq: seq, Inherit: t.inherited()}
	})
	if err != nil {
		return res, err
	}
	mkCfg := func(seq int) any {
		return ConfigWriteReq{Txn: t.id, Item: item, Gen: res.gen + 1, Cfg: newCfg, Seq: seq, Inherit: t.inherited()}
	}
	err = t.writeQuorum(ctx, item, phase, res.cfg, mkCfg)
	if err == nil && both {
		err = t.writeQuorum(ctx, item, phase, next, mkCfg)
	}
	return res, err
}

// Reconfigure installs a new configuration for item as its own top-level
// reconfigure-TM (Section 4).
func (s *Store) Reconfigure(ctx context.Context, item string, newCfg quorum.Config) error {
	it, ok := s.itemSpec(item)
	if !ok {
		return fmt.Errorf("cluster: unknown item %q", item)
	}
	if err := newCfg.Validate(it.DMs); err != nil {
		return err
	}
	return s.Run(ctx, func(t *Txn) error {
		res, err := t.reconfigureTo(ctx, item, "reconfigure", newCfg, false)
		if err != nil {
			return err
		}
		s.observeConfig(item, res.gen+1, newCfg)
		s.traceEvent(string(t.id), "reconfig", "%s gen %d -> %d", item, res.gen, res.gen+1)
		return nil
	})
}
