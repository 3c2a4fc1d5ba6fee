package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Sentinel errors. Structured errors returned by the store wrap these, so
// errors.Is(err, ErrConflict) / errors.Is(err, ErrUnavailable) keep
// working for callers that do not need the detail.
var (
	// ErrConflict means a lock conflict persisted past the retry budget;
	// the transaction aborted and may be re-run.
	ErrConflict = errors.New("cluster: lock conflict")
	// ErrUnavailable means no read or write quorum was reachable.
	ErrUnavailable = errors.New("cluster: quorum unavailable")
	// ErrTxnDone means the transaction already committed or aborted.
	ErrTxnDone = errors.New("cluster: transaction finished")
	// ErrLeaseExpired means the transaction's lock lease lapsed before the
	// commit point and could not be renewed everywhere — some replica may
	// already have reaped the transaction as a presumed abort, so committing
	// would be unsafe. The transaction aborted; Run restarts it like a lock
	// conflict.
	ErrLeaseExpired = errors.New("cluster: lock lease expired")
	// ErrOverloaded means replicas shed the request at admission (bounded
	// queue full) or discarded it expired-on-arrival. The work was refused,
	// not half-done: no locks were taken by the shed calls, so a retry —
	// if the retry budget allows one — is safe.
	ErrOverloaded = errors.New("cluster: replica overloaded")
)

// LeaseExpiredError reports which replica refused (or failed) the
// pre-commit lease renewal. It wraps both ErrLeaseExpired and ErrConflict:
// the transaction's locks are gone exactly as after a conflict-driven
// abort, and a fresh attempt is the right response, so Run's conflict
// restart logic applies.
type LeaseExpiredError struct {
	// Txn is the transaction whose lease lapsed.
	Txn TxnID
	// DM is the replica that refused or failed the renewal.
	DM string
}

func (e *LeaseExpiredError) Error() string {
	return fmt.Sprintf(
		"cluster: lease of %s expired before commit (renewal refused or unreachable at %s); the transaction may have been reaped as a presumed abort and was aborted locally — it is safe to re-run",
		e.Txn, e.DM)
}

func (e *LeaseExpiredError) Unwrap() []error { return []error{ErrLeaseExpired, ErrConflict} }

// MaxQuorumTargets is how many replicas one kind of quorum of an item may
// span: a quorum phase keeps its books in 64-bit masks over them.
const MaxQuorumTargets = 64

// TooManyTargetsError refuses a configuration whose read or write quorums
// span more than MaxQuorumTargets replicas.
type TooManyTargetsError struct {
	Item    string
	Targets int // the replicas the wider kind of quorum spans
}

func (e *TooManyTargetsError) Error() string {
	return fmt.Sprintf("cluster: item %q: quorums span %d replicas, more than the %d a quorum phase can track",
		e.Item, e.Targets, MaxQuorumTargets)
}

// ConflictError reports a lock conflict that exhausted the retry budget.
// It wraps ErrConflict, so errors.Is(err, ErrConflict) still matches;
// errors.As exposes the detail.
type ConflictError struct {
	// Item is the data item whose lock could not be acquired.
	Item string
	// Txn is the transaction that gave up.
	Txn TxnID
	// Phase is the quorum phase that conflicted ("read", "write",
	// "reconfigure"), or "validate": the version a lockless first read
	// returned had changed by the tree's next access.
	Phase string
	// Attempts is how many times the phase was tried (first try included).
	Attempts int
	// Responded lists the DMs that answered the final attempt (sorted);
	// DMs that reported the conflict are among them.
	Responded []string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf(
		"cluster: %s phase of %s on item %q hit a lock conflict after %d attempt(s) (responding DMs: %s); another transaction holds the lock — retry with backoff or raise WithLockRetries",
		e.Phase, e.Txn, e.Item, e.Attempts, dmList(e.Responded))
}

func (e *ConflictError) Unwrap() error { return ErrConflict }

// UnavailableError reports that a quorum phase could not assemble any
// read or write quorum from the replicas that answered. It wraps
// ErrUnavailable.
type UnavailableError struct {
	// Item is the data item being accessed.
	Item string
	// Txn is the transaction that failed.
	Txn TxnID
	// Phase is the quorum phase that failed ("read", "write",
	// "reconfigure", "commit", "abort").
	Phase string
	// Attempts is how many times the phase was tried.
	Attempts int
	// Responded lists the DMs that answered (sorted).
	Responded []string
	// Missing lists configured DMs that never answered (sorted) —
	// crashed, partitioned, or too slow for the call timeout.
	Missing []string
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf(
		"cluster: %s phase of %s on item %q found no quorum after %d attempt(s): heard from %s, missing %s — check partitions/crashes or raise WithCallTimeout",
		e.Phase, e.Txn, e.Item, e.Attempts, dmList(e.Responded), dmList(e.Missing))
}

func (e *UnavailableError) Unwrap() error { return ErrUnavailable }

// OverloadedError reports that a quorum phase failed because replicas shed
// the request at admission or discarded it expired-on-arrival. It wraps
// ErrOverloaded.
type OverloadedError struct {
	// Item is the data item being accessed.
	Item string
	// Txn is the transaction that was refused.
	Txn TxnID
	// Phase is the quorum phase that was shed ("read", "write").
	Phase string
	// Attempts is how many times the phase was tried.
	Attempts int
	// Shed lists the DMs that explicitly rejected the request (sorted).
	Shed []string
	// Expired reports that the rejection was expired-on-arrival: the
	// request outlived its propagated deadline in a replica queue.
	Expired bool
}

func (e *OverloadedError) Error() string {
	cause := "replicas shed the request at admission"
	if e.Expired {
		cause = "the request expired in a replica queue before service"
	}
	return fmt.Sprintf(
		"cluster: %s phase of %s on item %q overloaded after %d attempt(s): %s (shedding DMs: %s); retry with backoff once load drops",
		e.Phase, e.Txn, e.Item, e.Attempts, cause, dmList(e.Shed))
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

func dmList(dms []string) string {
	if len(dms) == 0 {
		return "none"
	}
	sorted := append([]string(nil), dms...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}
