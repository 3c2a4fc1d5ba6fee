package cluster

import (
	"math/bits"
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
	// turn rotates first quorums among equally cheap candidates.
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

// phasePlan is whom one quorum phase dials, as bitmasks over the phase's
// targets (bit i for targets[i]). send holds every target the phase may
// ask: suspects are left out, except one due for its half-open trial, which
// probes names. first is the quorum asked at once, together with the probes;
// the rest of send is asked only when the phase widens. A zero first asks
// all of send at once.
type phasePlan struct {
	send, first, probes uint64
	skipped             int // suspects left out entirely
}

// plan decides whom a phase dials. The first quorum is the quorum with no
// suspect member that adds the fewest replicas to the transaction's tree
// (firstQuorum; quorums and held are masks over targets, held with bit i set
// when the tree already holds a grant at targets[i]). When no quorum is free
// of suspects, everyone is dialed at once (availability first — a degraded
// cluster cannot afford to skip anyone). Otherwise the suspects are left
// out, except that one due for its half-open trial gets exactly one probe
// copy alongside the first quorum.
func (b *healthBoard) plan(targets []string, quorums []uint64, held uint64) phasePlan {
	b.mu.Lock()
	defer b.mu.Unlock()
	var suspects uint64
	for i, dm := range targets {
		if n := b.nodes[dm]; n != nil && n.open {
			suspects |= 1 << i
		}
	}
	p := phasePlan{send: 1<<len(targets) - 1, first: b.firstQuorum(quorums, held, suspects)}
	if p.first == 0 {
		return p
	}
	for m := suspects; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		n := b.nodes[targets[i]]
		if n.sincePlan++; n.sincePlan < b.probeEvery {
			p.skipped++
			p.send &^= 1 << i
			continue
		}
		n.sincePlan = 0
		p.probes |= 1 << i
	}
	return p
}

// firstQuorum returns the quorum of qs with no member in suspects that adds
// the fewest replicas the transaction does not already hold, or 0 when every
// quorum has a suspect. A quorum's cost is its members not in held, so a
// tree that holds nothing takes the smallest quorum, and each later phase
// lands on replicas its earlier phases locked, which keeps the commit's
// participants to one quorum. Equally cheap quorums take turns: the first of
// them from one past the turn wins, and the turn moves on only when there
// was such a tie to break, so a transaction moves the rotation once, not
// once per phase, and every quorum gets its turn as some transaction's
// first.
func (b *healthBoard) firstQuorum(qs []uint64, held, suspects uint64) uint64 {
	var best uint64
	least, tied := 0, false
	for i := range qs {
		q := qs[(b.turn+1+i)%len(qs)]
		if q&suspects != 0 {
			continue
		}
		switch c := bits.OnesCount64(q &^ held); {
		case best == 0 || c < least:
			best, least, tied = q, c, false
		case c == least:
			tied = true
		}
	}
	if tied {
		b.turn++
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
