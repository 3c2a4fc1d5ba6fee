package cluster

import (
	"sort"

	"repro/internal/transport"
)

// ShardStat is one replica group's slice of the store's placement and
// admission counters — the per-shard view behind qcstore -inspect and the
// shard-scale experiment's load-balance check.
type ShardStat struct {
	// Group names the replica group.
	Group string
	// DMs is the group's replica set (sorted).
	DMs []string
	// Items counts the items the ring currently places on this group,
	// migration overrides included.
	Items int
	// Overload sums the admission counters of the group's DMs that this
	// store spawned (zero for replicas served by other processes).
	Overload transport.OverloadStats
}

// ShardStats aggregates placement and admission counters per replica
// group. Nil for unsharded stores. Safe to call concurrently with
// transactions and migrations: the ring and handle set are snapshotted
// under the store mutex and the admission counters are atomics the DM
// harnesses update lock-free.
func (s *Store) ShardStats() []ShardStat {
	ring := s.Ring()
	if ring == nil {
		return nil
	}
	s.mu.Lock()
	handles := make(map[string]*DMHost, len(s.dms))
	for id, h := range s.dms {
		handles[id] = h
	}
	counts := map[string]int{}
	for name := range s.items {
		counts[ring.Lookup(name)]++
	}
	s.mu.Unlock()

	names := ring.GroupNames()
	out := make([]ShardStat, 0, len(names))
	for _, name := range names {
		g, _ := ring.Group(name)
		dms := append([]string(nil), g.DMs...)
		sort.Strings(dms)
		stat := ShardStat{Group: name, DMs: dms, Items: counts[name]}
		for _, dm := range dms {
			h := handles[dm]
			if h == nil {
				continue
			}
			oh := h.harness()
			if oh == nil {
				continue
			}
			st := oh.Overload()
			stat.Overload.Admitted += st.Admitted
			stat.Overload.Shed += st.Shed
			stat.Overload.ExpiredDropped += st.ExpiredDropped
			stat.Overload.ServedExpired += st.ServedExpired
		}
		out = append(out, stat)
	}
	return out
}
