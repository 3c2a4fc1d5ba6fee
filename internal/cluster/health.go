package cluster

import (
	"sort"
	"sync"

	"repro/internal/quorum"
)

// healthBoard is the per-replica failure detector, and the one place that
// decides whom a quorum phase dials. Every call outcome accrues evidence,
// consecutive failures open a replica's circuit ("suspect"), and a phase
// first asks one quorum with no suspect in it — a suspect only gets a
// single half-open trial every few phases. runPhase charges a first-quorum
// member still silent when the hedge timer first fires one failure, so a
// steady straggler becomes a suspect too and leaves the first quorums.
//
// All state transitions are counter-driven (N consecutive failures open,
// one success closes, every Kth planning pass probes), and the only timer
// any of them reads is the phase's own hedge timer, which the seeded
// harnesses turn off: under a seeded deterministic network the board's
// decisions are a pure function of the call outcome sequence, so chaos
// replay holds.
type healthBoard struct {
	mu sync.Mutex
	// failThreshold consecutive failures open a replica's circuit.
	failThreshold int
	// probeEvery is how many planning passes an open replica sits out
	// between half-open probe trials.
	probeEvery int
	nodes      map[string]*nodeHealth
	// turn rotates first quorums among equally small candidates.
	turn int

	stats *Stats
}

type nodeHealth struct {
	consecFails int
	open        bool
	sincePlan   int // planning passes since the last probe while open
	successes   int64
	failures    int64
}

const (
	defaultFailThreshold = 3
	defaultProbeEvery    = 4
)

func newHealthBoard(stats *Stats) *healthBoard {
	return &healthBoard{
		failThreshold: defaultFailThreshold,
		probeEvery:    defaultProbeEvery,
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
// — a lock-conflict refusal is proof of liveness.
func (b *healthBoard) observe(dm string, ok bool) {
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

// phasePlan is whom one quorum phase dials. send lists every target the
// phase may ask: suspects are left out, except one due for its half-open
// trial, which probes names. first is the quorum asked at once, together
// with the probes; the rest of send is asked only when the phase widens.
// A nil first asks all of send at once.
type phasePlan struct {
	send    []string
	first   quorum.Set
	probes  map[string]bool
	skipped int // suspects left out entirely
}

// plan decides whom a phase dials. The first quorum is the smallest quorum
// with no suspect member, taken in turn among equally small ones. When no
// quorum is free of suspects, everyone is dialed at once (availability
// first — a degraded cluster cannot afford to skip anyone). Otherwise the
// suspects are left out, except that one due for its half-open trial gets
// exactly one probe copy alongside the first quorum.
func (b *healthBoard) plan(targets []string, quorums []quorum.Set) phasePlan {
	b.mu.Lock()
	defer b.mu.Unlock()
	var suspects map[string]bool
	for _, dm := range targets {
		if n := b.nodes[dm]; n != nil && n.open {
			if suspects == nil {
				suspects = map[string]bool{}
			}
			suspects[dm] = true
		}
	}
	p := phasePlan{send: targets, first: b.firstQuorum(quorums, suspects)}
	if suspects == nil || p.first == nil {
		return p
	}
	p.send = make([]string, 0, len(targets))
	for _, dm := range targets {
		if !suspects[dm] {
			p.send = append(p.send, dm)
			continue
		}
		n := b.nodes[dm]
		n.sincePlan++
		if n.sincePlan < b.probeEvery {
			p.skipped++
			continue
		}
		n.sincePlan = 0
		if p.probes == nil {
			p.probes = map[string]bool{}
		}
		p.probes[dm] = true
		p.send = append(p.send, dm)
	}
	return p
}

// firstQuorum returns the smallest of qs with no member in suspects, or nil
// when every quorum has one. The scan starts one quorum further on each
// call, so equally small candidates take turns.
func (b *healthBoard) firstQuorum(qs []quorum.Set, suspects map[string]bool) quorum.Set {
	if len(qs) == 0 {
		return nil
	}
	var best quorum.Set
	b.turn++
	start := b.turn % len(qs)
next:
	for i := range qs {
		q := qs[(start+i)%len(qs)]
		if best != nil && len(q) >= len(best) {
			continue
		}
		for dm := range suspects {
			if q[dm] {
				continue next
			}
		}
		best = q
	}
	return best
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
}

// Health returns the failure detector's scoreboard, sorted by replica name:
// one entry per replica this client has called.
func (s *Store) Health() []ReplicaHealth {
	b := s.health
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ReplicaHealth, 0, len(b.nodes))
	for dm, n := range b.nodes {
		out = append(out, ReplicaHealth{
			DM: dm, Suspect: n.open, ConsecutiveFailures: n.consecFails,
			Successes: n.successes, Failures: n.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DM < out[j].DM })
	return out
}
