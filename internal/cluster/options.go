package cluster

import (
	"time"

	"repro/internal/checker"
	"repro/internal/commit"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// settings is the resolved store configuration. Construct one with
// resolve(...); zero values never appear unless an option explicitly set
// them.
type settings struct {
	callTimeout  time.Duration
	hedgeDelay   time.Duration
	lockRetries  int
	retryBackoff time.Duration
	txnRetries   int
	sequential   bool
	seed         int64
	trace        *trace.Log
	history      *checker.Recorder
	walDir       string
	walOpts      []wal.Option
	clock        transport.Clock

	clientTag string

	// Overload protection (see DESIGN.md §7).
	admitCap          int           // bounded DM admission queue; 0 = unbounded (off)
	serviceTime       time.Duration // modeled per-request service cost at DMs
	admitServeExpired bool          // ablation: serve expired-on-arrival work anyway
	retryRatio        float64       // retry budget deposit per first attempt; 0 = off
	inflightMax       int           // AIMD in-flight top-level txn ceiling; 0 = off
	hopAllowance      time.Duration // deadline budget reserved per fan-out hop

	// Sharded placement (see DESIGN.md §10). nil = unsharded.
	ring *shard.Ring

	// Commit protocol (see DESIGN.md §11). Zero value = TwoPhase.
	protocol commit.Protocol
}

func defaultSettings() settings {
	return settings{
		callTimeout:  100 * time.Millisecond,
		hedgeDelay:   5 * time.Millisecond,
		lockRetries:  12,
		retryBackoff: time.Millisecond,
		txnRetries:   8,
		clock:        transport.Wall,
		hopAllowance: time.Millisecond,
	}
}

// An Option configures a Store. Options state intent explicitly:
// WithLockRetries(0) means "no retries", not "use the default".
type Option func(*settings)

// resolve applies opts over the defaults.
func resolve(opts []Option) settings {
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithCallTimeout bounds each quorum phase (the whole fan-out, hedges
// included) and each control RPC. Default 100ms.
func WithCallTimeout(d time.Duration) Option {
	return func(s *settings) { s.callTimeout = d }
}

// WithHedgeDelay sets how long a phase waits on its first quorum before
// widening to the other replicas — each first-quorum member still silent
// then counts one miss with the failure detector — and, every further
// delay, before re-issuing the request to replicas that have not answered.
// Zero turns the timer off: a phase then waits for its first quorum unless
// a member refuses or fails. Default 5ms; a replica is sent at most three
// copies per phase.
func WithHedgeDelay(d time.Duration) Option {
	return func(s *settings) { s.hedgeDelay = d }
}

// hedgeMax caps the total request copies sent to one replica in one phase
// (first send included).
const hedgeMax = 3

// WithLockRetries sets how many times a phase retries after a lock
// conflict before the transaction aborts with a ConflictError. Zero means
// fail on the first conflict. Default 12.
func WithLockRetries(n int) Option {
	return func(s *settings) { s.lockRetries = n }
}

// WithRetryBackoff sets the base backoff between lock-conflict retries
// (jittered, grows linearly with the attempt). Default 1ms.
func WithRetryBackoff(d time.Duration) Option {
	return func(s *settings) { s.retryBackoff = d }
}

// WithTxnRetries sets how many times Run restarts a transaction that
// aborted with ErrConflict. Zero means no restarts. Default 8.
func WithTxnRetries(n int) Option {
	return func(s *settings) { s.txnRetries = n }
}

// WithSequentialPhases makes every quorum phase offer its quorums to the
// fan-out one at a time, in seeded shuffled order, instead of all at once:
// each plan waits for every member of one quorum and never hedges, so no
// grant is surplus and a copy is abandoned only when its replica stays
// silent (it is then swept like any abandoned copy). A replay lever, not a
// production setting — the deterministic chaos harness needs it (with a
// manual WithClock) for exact seeded replay
// until the virtual-time simulator lands; E10 measures what it costs.
func WithSequentialPhases(on bool) Option {
	return func(s *settings) { s.sequential = on }
}

// WithSeed seeds the store's private RNG (quorum shuffling, backoff
// jitter) for reproducible runs. Default 0.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithTrace directs structured per-operation events (reads, writes,
// commits, aborts, reconfigurations) to the given trace log. Nil disables
// tracing.
func WithTrace(l *trace.Log) Option {
	return func(s *settings) { s.trace = l }
}

// WithHistory attaches a checker recorder: every committed top-level
// transaction's reads and writes (with their version-number witnesses)
// are recorded into it for offline serializability checking. Operations
// of aborted transactions — and of aborted subtransactions inside
// committed ones — are never recorded. Nil disables recording.
func WithHistory(r *checker.Recorder) Option {
	return func(s *settings) { s.history = r }
}

// WithDurability gives every DM the store spawns a segmented write-ahead
// log under dir (one subdirectory per DM): state-mutating requests are
// logged and made durable before they are acknowledged, and Open replays an
// existing log to rebuild each DM's versioned value, configuration
// generation, lock table and pending intentions — so a restarted replica
// keeps every promise the pre-crash one made. Empty dir (the default)
// keeps DMs volatile. Only meaningful on Open; OpenClient spawns no
// servers.
func WithDurability(dir string) Option {
	return func(s *settings) { s.walDir = dir }
}

// WithWALOptions forwards options to each DM's write-ahead log — segment
// size, fsync, group commit. Only meaningful together with WithDurability.
func WithWALOptions(opts ...wal.Option) Option {
	return func(s *settings) { s.walOpts = opts }
}

// WithClock injects the clock lock leases (LeaseTTL) expire against.
// Deterministic harnesses pass a sim.ManualClock and advance it explicitly
// between rounds, past LeaseTTL to let the leases stamped so far lapse; the
// default is the wall clock. The background lease renewer only runs under
// the wall clock — under a manual clock, timer-driven renewal traffic would
// fork seeded replays, and grants alone re-stamp leases.
func WithClock(c transport.Clock) Option {
	return func(s *settings) {
		if c != nil {
			s.clock = c
		}
	}
}

// WithClientTag prefixes every transaction ID this store's client mints.
// Clients within one process are already disjoint (a process-wide
// sequence numbers them), but clients in *different processes* of one
// multi-process cluster are not: each fresh process mints c1 again, and a
// DM that already resolved one process's c1.t1 refuses the other's as a
// replay. Multi-process deployments must tag each client process uniquely
// — qcstore client uses its PID. Empty (the default) adds no prefix.
func WithClientTag(tag string) Option {
	return func(s *settings) { s.clientTag = tag }
}

// WithAdmissionCapacity bounds every DM's service queue to n queued bulk
// requests (reads + writes; control traffic — commit, abort, release,
// lease, orphan resolution — is exempt and always admitted). A full queue sheds the
// request with an explicit OverloadedResp instead of queueing or silently
// dropping it, and requests whose propagated deadline passes while queued
// are discarded at dequeue. Zero (the default) keeps the unbounded
// pre-overload-protection behavior. See DESIGN.md §7.
func WithAdmissionCapacity(n int) Option {
	return func(s *settings) {
		if n < 0 {
			n = 0
		}
		s.admitCap = n
	}
}

// WithServiceTime models the CPU cost of serving one request at a DM:
// each dequeued request sleeps d before its handler runs, giving replicas
// a finite service rate worth protecting. Only meaningful together with
// WithAdmissionCapacity; zero (the default) serves instantly.
func WithServiceTime(d time.Duration) Option {
	return func(s *settings) { s.serviceTime = d }
}

// WithExpiredService makes DMs serve expired-on-arrival requests anyway
// (counting them as dead work) instead of discarding them at dequeue —
// the no-deadline-propagation ablation arm of overload experiments.
// Default off.
func WithExpiredService(on bool) Option {
	return func(s *settings) { s.admitServeExpired = on }
}

// WithRetryBudget enables the SRE-style per-store retry budget: every
// first attempt of a quorum phase deposits ratio tokens into a bucket and
// every conflict/overload/lease retry withdraws one, so retry traffic can
// never exceed the given fraction of first-attempt traffic. When the
// bucket is empty the retry is refused and the operation fails with the
// underlying error (marked BudgetDenied on overloads) instead of adding
// load to an overloaded cluster. Ratio at or below zero (the default)
// disables the budget.
func WithRetryBudget(ratio float64) Option {
	return func(s *settings) {
		if ratio < 0 {
			ratio = 0
		}
		s.retryRatio = ratio
	}
}

// WithInflightLimit caps concurrently running top-level transactions
// (Run callers) with an AIMD limiter: the ceiling starts at n, shrinks
// multiplicatively when transactions fail on overload or quorum timeouts,
// and regrows additively on success — so offered load adapts to what the
// replicas can actually serve. Zero (the default) disables the limiter.
func WithInflightLimit(n int) Option {
	return func(s *settings) {
		if n < 0 {
			n = 0
		}
		s.inflightMax = n
	}
}

// WithHopAllowance reserves d of the caller's remaining context budget at
// every fan-out hop: a phase call's timeout is min(WithCallTimeout,
// remaining-deadline − d), and when the remainder is not positive the call
// fails fast instead of being sent — work that cannot finish in time is
// refused at the earliest possible hop. Default 1ms.
func WithHopAllowance(d time.Duration) Option {
	return func(s *settings) {
		if d < 0 {
			d = 0
		}
		s.hopAllowance = d
	}
}

// WithRing arms sharded placement with an explicit consistent-hash ring:
// the store (and every DM it spawns) adopts a deep copy as its placement
// view. The ring decides which replica group
// owns which item; the item specs passed to Open must agree with it
// (ShardItems derives them). nil leaves the store unsharded.
func WithRing(r *shard.Ring) Option {
	return func(s *settings) {
		if r != nil {
			s.ring = r.Clone()
		}
	}
}

// WithCommitProtocol selects how top-level transactions reach their commit
// point (DESIGN.md §11). TwoPhase (the default) is the classic presumed-
// abort protocol: the first CommitTopReq send is the commit point, and a
// coordinator that dies in the commit window leaves its locks in doubt
// until its lease lapses and a client they block finds a commit record or —
// with every DM answering — presumes it aborted.
// PaxosCommit inserts one consensus instance per transaction before the
// commit broadcast: the outcome is durably accepted at a majority of
// acceptors (co-located on the written items' replica groups) first, so
// after ANY single crash — the coordinator's included — the outcome is
// reconstructed from a majority of the surviving acceptors instead of
// waiting for every DM to answer. Clean-path cost: one extra logged fan-out
// round over the cohort per commit.
func WithCommitProtocol(p commit.Protocol) Option {
	return func(s *settings) { s.protocol = p }
}
