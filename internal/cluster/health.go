package cluster

import (
	"sort"
	"sync"
	"time"

	"repro/internal/quorum"
)

// healthBoard is the per-replica failure detector: every call outcome
// accrues evidence, consecutive failures open a replica's circuit
// ("suspect"), and fan-outs steer around suspects — probing them with a
// single half-open trial every few phases instead of burning full fan-out
// and hedge budget on a replica that has not answered in a while. Latency
// EWMAs feed adaptive per-replica call timeouts so a dead replica is
// detected in milliseconds, not a full call timeout.
//
// All state transitions are counter-driven (N consecutive failures open,
// one success closes, every Kth planning pass probes), never timer-driven:
// under a seeded deterministic network the board's decisions are a pure
// function of the call outcome sequence, so chaos replay holds.
type healthBoard struct {
	mu sync.Mutex
	// failThreshold consecutive failures open a replica's circuit.
	failThreshold int
	// probeEvery is how many planning passes an open replica sits out
	// between half-open probe trials.
	probeEvery int
	// fixedTimeout suppresses latency-adaptive call timeouts (the one
	// wall-clock-measured input to the board's behavior); set when the store
	// runs on a manual clock, so a deterministic harness's replays cannot
	// fork on scheduler noise.
	fixedTimeout bool
	nodes        map[string]*nodeHealth

	stats *Stats
}

type nodeHealth struct {
	consecFails int
	open        bool
	sincePlan   int     // planning passes since the last probe while open
	ewma        float64 // smoothed round-trip estimate, nanoseconds
	successes   int64
	failures    int64
}

const (
	defaultFailThreshold = 3
	defaultProbeEvery    = 4
	// ewmaWeight is the weight of the newest sample.
	ewmaWeight = 0.2
	// adaptiveTimeoutMult scales the EWMA into a per-call timeout;
	// adaptiveTimeoutFloor keeps scheduler hiccups from failing healthy
	// calls.
	adaptiveTimeoutMult  = 5
	adaptiveTimeoutFloor = 3 * time.Millisecond
)

func newHealthBoard(stats *Stats, fixedTimeout bool) *healthBoard {
	return &healthBoard{
		failThreshold: defaultFailThreshold,
		probeEvery:    defaultProbeEvery,
		fixedTimeout:  fixedTimeout,
		nodes:         map[string]*nodeHealth{},
		stats:         stats,
	}
}

func (b *healthBoard) node(dm string) *nodeHealth {
	n := b.nodes[dm]
	if n == nil {
		n = &nodeHealth{}
		b.nodes[dm] = n
	}
	return n
}

// observe folds one call outcome in. ok means the replica answered at all
// — a lock-conflict refusal is proof of liveness. rtt is meaningful only
// when ok.
func (b *healthBoard) observe(dm string, ok bool, rtt time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.node(dm)
	if ok {
		n.successes++
		n.consecFails = 0
		if n.open {
			n.open = false
			if b.stats != nil {
				b.stats.SuspectReplicas.Add(-1)
			}
		}
		if n.ewma == 0 {
			n.ewma = float64(rtt)
		} else {
			n.ewma = (1-ewmaWeight)*n.ewma + ewmaWeight*float64(rtt)
		}
		return
	}
	n.failures++
	n.consecFails++
	if !n.open && n.consecFails >= b.failThreshold {
		n.open = true
		n.sincePlan = 0
		if b.stats != nil {
			b.stats.CircuitOpens.Inc()
			b.stats.SuspectReplicas.Add(1)
		}
	}
}

// suspect reports whether dm's circuit is open.
func (b *healthBoard) suspect(dm string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.nodes[dm]
	return n != nil && n.open
}

// plan decides which targets a fan-out should actually dial. If every
// target is healthy, or no quorum is coverable by healthy targets alone,
// everyone is dialed (availability first — a degraded cluster cannot
// afford to skip anyone). Otherwise the suspects are skipped, except that
// a suspect due for its half-open trial gets exactly one probe copy;
// probes maps those, so the fan-out exempts them from hedging. skipped
// counts the suspects left out entirely.
func (b *healthBoard) plan(targets []string, quorums []quorum.Set) (send []string, probes map[string]bool, skipped int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	healthy := make(map[string]bool, len(targets))
	anySuspect := false
	for _, dm := range targets {
		n := b.nodes[dm]
		if n != nil && n.open {
			anySuspect = true
		} else {
			healthy[dm] = true
		}
	}
	if !anySuspect {
		return targets, nil, 0
	}
	covered := false
	for _, q := range quorums {
		if q.SubsetOf(healthy) {
			covered = true
			break
		}
	}
	if !covered {
		return targets, nil, 0
	}
	for _, dm := range targets {
		if healthy[dm] {
			send = append(send, dm)
			continue
		}
		n := b.node(dm)
		n.sincePlan++
		if n.sincePlan >= b.probeEvery {
			n.sincePlan = 0
			if probes == nil {
				probes = map[string]bool{}
			}
			probes[dm] = true
			send = append(send, dm)
		} else {
			skipped++
		}
	}
	return send, probes, skipped
}

// orderQuorums stable-sorts quorums by how many suspect members each
// contains, fewest first — the steering of one-quorum-at-a-time plans: try the quorums
// most likely to answer before the ones that need a suspect.
func (b *healthBoard) orderQuorums(qs []quorum.Set) []quorum.Set {
	b.mu.Lock()
	count := func(q quorum.Set) int {
		n := 0
		for dm := range q {
			if h := b.nodes[dm]; h != nil && h.open {
				n++
			}
		}
		return n
	}
	counts := make(map[int]int, len(qs))
	for i, q := range qs {
		counts[i] = count(q)
	}
	b.mu.Unlock()
	out := append([]quorum.Set(nil), qs...)
	idx := make([]int, len(qs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, c int) bool { return counts[idx[a]] < counts[idx[c]] })
	for i, j := range idx {
		out[i] = qs[j]
	}
	return out
}

// timeout derives dm's adaptive call timeout from its latency EWMA,
// clamped to [adaptiveTimeoutFloor, base]. Unknown replicas get the full
// base timeout.
func (b *healthBoard) timeout(dm string, base time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.nodes[dm]
	if b.fixedTimeout || n == nil || n.ewma <= 0 {
		return base
	}
	d := time.Duration(adaptiveTimeoutMult * n.ewma)
	if d < adaptiveTimeoutFloor {
		d = adaptiveTimeoutFloor
	}
	if d > base {
		d = base
	}
	return d
}

// ReplicaHealth is one replica's scoreboard snapshot.
type ReplicaHealth struct {
	DM string
	// Suspect reports an open circuit: the replica failed its last
	// failThreshold calls and is only probed, not trusted.
	Suspect bool
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	Successes           int64
	Failures            int64
	// EWMA is the smoothed round-trip estimate; zero before any success.
	EWMA time.Duration
}

// Health returns the scoreboard snapshot, sorted by replica name. Empty
// unless WithHealthProbes is on.
func (s *Store) Health() []ReplicaHealth {
	if s.health == nil {
		return nil
	}
	b := s.health
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ReplicaHealth, 0, len(b.nodes))
	for dm, n := range b.nodes {
		out = append(out, ReplicaHealth{
			DM: dm, Suspect: n.open, ConsecutiveFailures: n.consecFails,
			Successes: n.successes, Failures: n.failures,
			EWMA: time.Duration(n.ewma),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DM < out[j].DM })
	return out
}
