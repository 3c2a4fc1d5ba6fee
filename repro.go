// Package repro is the public facade of the reproduction of Goldman &
// Lynch, "Quorum Consensus in Nested Transaction Systems" (PODC 1987).
//
// It exposes two layers:
//
//   - The model layer — an executable transcription of the paper's I/O
//     automata: replicated serial system B, non-replicated serial system A,
//     the concurrent system C of Theorem 11, the reconfigurable system of
//     Section 4, plus mechanized checkers for Lemma 8, Theorem 10 and
//     Theorem 11. Build systems from a Spec, explore them with a seeded
//     Driver, and check every execution.
//
//   - The systems layer — a replicated key-value store with nested
//     transactions, running on a simulated goroutine cluster: quorum reads,
//     version-numbered quorum writes, Moss locking with intention lists,
//     subtransaction aborts, crash tolerance and online reconfiguration.
//
// See examples/ for runnable entry points and DESIGN.md for the
// paper-to-module map.
package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/quorum"
	"repro/internal/reconfig"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Model-layer types.
type (
	// Spec describes a scenario: replicated items, plain objects, and the
	// user-transaction forest.
	Spec = core.Spec
	// ItemSpec describes a replicated logical data item.
	ItemSpec = core.ItemSpec
	// ObjectSpec describes a non-replicated basic object.
	ObjectSpec = core.ObjectSpec
	// TxnSpec describes one user transaction or logical access.
	TxnSpec = core.TxnSpec
	// SystemB is the replicated serial system (Section 3.1).
	SystemB = core.SystemB
	// SystemA is the non-replicated serial system (Section 3.2).
	SystemA = core.SystemA
	// Schedule is a finite sequence of operations.
	Schedule = ioa.Schedule
	// Op is a single nested-transaction operation.
	Op = ioa.Op
	// Config is a quorum configuration (sets of read- and write-quorums).
	Config = quorum.Config
	// QuorumSet is a single quorum: a set of DM names.
	QuorumSet = quorum.Set
	// ReconfigSpec describes a reconfigurable scenario (Section 4).
	ReconfigSpec = reconfig.Spec
)

// Operation kinds (re-exported from internal/ioa).
const (
	OpCreate        = ioa.OpCreate
	OpRequestCreate = ioa.OpRequestCreate
	OpRequestCommit = ioa.OpRequestCommit
	OpCommit        = ioa.OpCommit
	OpAbort         = ioa.OpAbort
)

// Scenario constructors (re-exported from internal/core).
var (
	// Sub builds a nested user transaction spec.
	Sub = core.Sub
	// ReadItem builds a logical-read spec.
	ReadItem = core.ReadItem
	// WriteItem builds a logical-write spec.
	WriteItem = core.WriteItem
	// BuildB constructs the replicated serial system B.
	BuildB = core.BuildB
	// BuildA constructs the non-replicated serial system A.
	BuildA = core.BuildA
	// BuildC constructs the concurrent system C (Moss locking scheduler).
	BuildC = cc.BuildC
	// BuildReconfigurable constructs the Section 4 system with
	// reconfigure-TMs, coordinators and spies.
	BuildReconfigurable = reconfig.BuildB
	// CheckTheorem11 validates the Theorem 11 chain on a concurrent run.
	CheckTheorem11 = cc.CheckTheorem11
	// Majority returns the majority-quorum configuration.
	Majority = quorum.Majority
	// ReadOneWriteAll returns the read-one/write-all configuration.
	ReadOneWriteAll = quorum.ReadOneWriteAll
	// Voting builds a configuration from Gifford weighted voting.
	Voting = quorum.Voting
)

// RunSerial drives system B for at most maxSteps operations with the given
// seed, checking the Lemma 8 invariant after every step, and returns the
// schedule. abortWeight tunes how often the scheduler chooses to abort a
// requested transaction relative to other enabled operations (0 disables
// aborts).
func RunSerial(b *SystemB, seed int64, maxSteps int, abortWeight float64) (Schedule, error) {
	d := ioa.NewDriver(b.Sys, seed)
	d.Bias = func(op Op) float64 {
		if op.Kind == ioa.OpAbort {
			return abortWeight
		}
		return 1
	}
	d.OnStep = b.Lemma8Checker()
	sched, _, err := d.Run(maxSteps)
	if err != nil {
		return sched, fmt.Errorf("repro: serial run: %w", err)
	}
	return sched, nil
}

// RunSerialNoChecks drives a replicated system (serial B or concurrent C)
// to quiescence without invariant hooks or scheduler aborts, returning the
// schedule. Use it for concurrent systems, whose interleavings the Lemma 8
// even-length condition does not apply to.
func RunSerialNoChecks(b *SystemB, seed int64) (Schedule, error) {
	d := ioa.NewDriver(b.Sys, seed)
	d.Bias = func(op Op) float64 {
		if op.Kind == ioa.OpAbort {
			return 0
		}
		return 1
	}
	sched, _, err := d.Run(1_000_000)
	return sched, err
}

// RunAndCheck builds system B from spec, drives it to quiescence, and runs
// the Theorem 10 simulation check, returning the schedule.
func RunAndCheck(spec Spec, seed int64, abortWeight float64) (Schedule, error) {
	b, err := BuildB(spec)
	if err != nil {
		return nil, err
	}
	sched, err := RunSerial(b, seed, 1_000_000, abortWeight)
	if err != nil {
		return sched, err
	}
	if err := b.CheckTheorem10(sched); err != nil {
		return sched, err
	}
	return sched, nil
}

// Cluster-layer types.
type (
	// Store is the replicated key-value store client.
	Store = cluster.Store
	// Txn is a (possibly nested) cluster transaction.
	Txn = cluster.Txn
	// ClusterItem describes one replicated item of a cluster store.
	ClusterItem = cluster.ItemSpec
	// ClusterOption configures the store client (see the With… option
	// constructors).
	ClusterOption = cluster.Option
	// Network is the simulated network.
	Network = sim.Network
	// NetworkConfig parameterizes the simulated network.
	NetworkConfig = sim.Config
	// ConflictError details a lock conflict that exhausted its retries.
	ConflictError = cluster.ConflictError
	// UnavailableError details a quorum phase that found no quorum.
	UnavailableError = cluster.UnavailableError
	// LeaseExpiredError reports a commit fenced out because the
	// transaction's lock lease lapsed (matches both ErrLeaseExpired and
	// ErrConflict, so Run retries it).
	LeaseExpiredError = cluster.LeaseExpiredError
)

// Cluster sentinel errors (match with errors.Is).
var (
	// ErrConflict is wrapped by every ConflictError.
	ErrConflict = cluster.ErrConflict
	// ErrUnavailable is wrapped by every UnavailableError.
	ErrUnavailable = cluster.ErrUnavailable
	// ErrLeaseExpired is wrapped by every LeaseExpiredError.
	ErrLeaseExpired = cluster.ErrLeaseExpired
)

// Store option constructors (re-exported from internal/cluster).
var (
	// WithCallTimeout bounds each quorum phase and control RPC.
	WithCallTimeout = cluster.WithCallTimeout
	// WithHedgeDelay sets the delay before re-issuing a phase's request to
	// silent replicas (at most three copies each); zero disables hedging.
	WithHedgeDelay = cluster.WithHedgeDelay
	// WithLockRetries sets the per-phase lock-conflict retry budget;
	// zero means fail on the first conflict.
	WithLockRetries = cluster.WithLockRetries
	// WithRetryBackoff sets the base backoff between lock retries.
	WithRetryBackoff = cluster.WithRetryBackoff
	// WithTxnRetries sets how many times Run restarts a conflicted
	// transaction.
	WithTxnRetries = cluster.WithTxnRetries
	// WithSequentialPhases offers each phase's quorums one at a time in
	// seeded order — a replay lever for deterministic harnesses.
	WithSequentialPhases = cluster.WithSequentialPhases
	// WithSeed seeds quorum shuffling and backoff jitter.
	WithSeed = cluster.WithSeed
	// WithTrace directs structured per-operation events to a trace log.
	WithTrace = cluster.WithTrace
	// WithCommitProtocol selects the top-level commit strategy: TwoPhase
	// (default) or PaxosCommit (non-blocking commit — a coordinator crash
	// around the commit point is resolved from a majority of acceptors by
	// the first client its locks block, instead of blocking on an
	// unreachable replica).
	WithCommitProtocol = cluster.WithCommitProtocol
)

// CommitProtocol selects the top-level commit strategy for
// WithCommitProtocol.
type CommitProtocol = commit.Protocol

// Commit protocol constants.
const (
	// TwoPhase is the classic coordinator-decides broadcast (default).
	TwoPhase = commit.TwoPhase
	// PaxosCommit replicates the commit decision itself across acceptors
	// co-located on the replica group (DESIGN.md §11).
	PaxosCommit = commit.PaxosCommit
)

// OpenSim builds a simulated network with the given latency range and a
// store over it. Close the store and then the network when done.
func OpenSim(items []ClusterItem, minLatency, maxLatency time.Duration, seed int64) (*Store, *Network, error) {
	return OpenSimOptions(items, NetworkConfig{MinLatency: minLatency, MaxLatency: maxLatency, Seed: seed},
		cluster.WithSeed(seed))
}

// OpenSimOptions is OpenSim with full control: an explicit network
// configuration and any store options. Close the store and then the
// network when done.
func OpenSimOptions(items []ClusterItem, netCfg NetworkConfig, opts ...ClusterOption) (*Store, *Network, error) {
	net := sim.NewNetwork(netCfg)
	store, err := cluster.Open(net, items, opts...)
	if err != nil {
		net.Close()
		return nil, nil, err
	}
	return store, net, nil
}

// ReadAs reads item inside t and asserts the value to T (zero value for
// never-written nil items).
func ReadAs[T any](ctx context.Context, t *Txn, item string) (T, error) {
	return cluster.ReadAs[T](ctx, t, item)
}

// ReadForUpdateAs is ReadAs taking write locks, for read-modify-write
// transactions.
func ReadForUpdateAs[T any](ctx context.Context, t *Txn, item string) (T, error) {
	return cluster.ReadForUpdateAs[T](ctx, t, item)
}

// WriteAs writes a T to item inside t.
func WriteAs[T any](ctx context.Context, t *Txn, item string, val T) error {
	return cluster.WriteAs[T](ctx, t, item, val)
}

// RenderTree draws a system's transaction tree in the style of the paper's
// Figure 1 (system B) and Figure 2 (system A).
func RenderTree(t *tree.Tree) string { return t.Render() }
