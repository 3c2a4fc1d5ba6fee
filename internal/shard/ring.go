// Package shard places item keys onto replica groups with a deterministic
// consistent-hash ring. The ring is pure state: it knows nothing about
// transactions, quorums, or transports — internal/cluster derives each
// item's initial replica set from it (ShardItems) and looks migration
// target groups up in it.
//
// Determinism is the contract. Placement is a function of (Seed, VNodes,
// group names, overrides) alone: the same ring state produces the same
// placement in every process, on every run. That is what lets a chaos
// campaign replay a sharded cluster bit-for-bit from one int64 seed, and
// lets separate OS processes agree on placement from nothing but the serve
// flags. No ring travels between processes: after startup, where an item
// lives is its configuration, which replicas carry and clients chase.
//
// A Ring is not synchronized. Every holder guards its own copy; Clone makes
// handing copies out cheap and safe.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Group is one replica group: a named set of data managers that jointly
// store every item placed on the group. Quorum configuration for the
// group's items lives in the cluster layer (each item keeps its own
// Gifford config and generation lineage); the ring only decides which
// group an item belongs to.
type Group struct {
	// Name identifies the group on the ring. Placement hashes the name,
	// so renaming a group moves all its keys.
	Name string
	// DMs are the data manager ids of the group's members.
	DMs []string
}

// Clone returns a deep copy of the group.
func (g Group) Clone() Group {
	return Group{Name: g.Name, DMs: append([]string(nil), g.DMs...)}
}

// point is one virtual node on the ring: the hash of (seed, group, index)
// owning the arc that ends at it.
type point struct {
	h     uint64
	group string
}

// Ring is the placement state. The sorted vnode points are derived from
// the exported fields and rebuilt lazily after a mutation or a Clone.
type Ring struct {
	// Seed perturbs every vnode hash, so independent rings (test
	// fixtures, disjoint clusters) get independent placements.
	Seed int64
	// VNodes is the number of virtual nodes per group. More vnodes
	// smooth the key distribution; 64 is plenty for a handful of groups.
	VNodes int
	// Epoch counts placement changes: every mutation (add/remove group,
	// pin a key) bumps it.
	Epoch int
	// Groups are the replica groups, in insertion order. Placement
	// depends only on the set of names, not the order.
	Groups []Group
	// Overrides pins individual keys to a named group regardless of the
	// hash placement.
	Overrides map[string]string

	points []point // derived from (Seed, VNodes, Groups); nil = rebuild
}

// New builds a ring over the given groups. VNodes must be positive and
// group names unique and non-empty. The initial epoch is 1.
func New(seed int64, vnodes int, groups []Group) (*Ring, error) {
	if vnodes <= 0 {
		return nil, fmt.Errorf("shard: vnodes must be positive, got %d", vnodes)
	}
	seen := make(map[string]bool, len(groups))
	for _, g := range groups {
		if g.Name == "" {
			return nil, fmt.Errorf("shard: group with empty name")
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("shard: duplicate group %q", g.Name)
		}
		seen[g.Name] = true
		if len(g.DMs) == 0 {
			return nil, fmt.Errorf("shard: group %q has no DMs", g.Name)
		}
	}
	r := &Ring{Seed: seed, VNodes: vnodes, Epoch: 1}
	for _, g := range groups {
		r.Groups = append(r.Groups, g.Clone())
	}
	r.rebuild()
	return r, nil
}

// hashParts folds null-separated parts through FNV-64a and finishes with
// a 64-bit avalanche mix. FNV is stable across Go versions and
// architectures (unlike maphash), which placement needs — but its
// dispersion on short, similar strings ("g0#1" vs "g0#2") is poor enough
// to skew vnode arcs by 3x, so the mix step spreads every input bit over
// the whole output.
func hashParts(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 finalizer: a bijective avalanche over uint64.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (r *Ring) rebuild() {
	r.points = make([]point, 0, len(r.Groups)*r.VNodes)
	seed := strconv.FormatInt(r.Seed, 10)
	for _, g := range r.Groups {
		for i := 0; i < r.VNodes; i++ {
			r.points = append(r.points, point{
				h:     hashParts(seed, g.Name, strconv.Itoa(i)),
				group: g.Name,
			})
		}
	}
	// Ties broken by group name so the sort is a total order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].group < r.points[j].group
	})
}

// ensure rebuilds the derived points when they are missing (fresh clone)
// or stale (group set changed size). Mutating methods also nil the slice
// explicitly, so a same-size rename cannot leave stale points behind.
func (r *Ring) ensure() {
	if want := len(r.Groups) * r.VNodes; len(r.points) != want || r.points == nil {
		r.rebuild()
	}
}

// Lookup returns the name of the group that owns key, or "" when the
// ring has no groups. Overrides win; otherwise the key hashes onto the
// ring and the first vnode clockwise owns it.
func (r *Ring) Lookup(key string) string {
	if g, ok := r.Overrides[key]; ok {
		return g
	}
	r.ensure()
	if len(r.points) == 0 {
		return ""
	}
	h := hashParts(strconv.FormatInt(r.Seed, 10), key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap: the smallest point owns the arc past the largest
	}
	return r.points[i].group
}

// GroupOf resolves key to its full group record.
func (r *Ring) GroupOf(key string) (Group, bool) {
	return r.Group(r.Lookup(key))
}

// Group returns the group with the given name.
func (r *Ring) Group(name string) (Group, bool) {
	for _, g := range r.Groups {
		if g.Name == name {
			return g.Clone(), true
		}
	}
	return Group{}, false
}

// GroupNames returns the group names, sorted.
func (r *Ring) GroupNames() []string {
	names := make([]string, 0, len(r.Groups))
	for _, g := range r.Groups {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}

// DMs returns every data manager id across all groups, sorted and
// deduplicated — the peer set a sharded cluster needs to serve.
func (r *Ring) DMs() []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range r.Groups {
		for _, dm := range g.DMs {
			if !seen[dm] {
				seen[dm] = true
				out = append(out, dm)
			}
		}
	}
	sort.Strings(out)
	return out
}

// AddGroup adds a replica group and bumps the epoch. Consistent hashing
// bounds the fallout: only keys whose arcs the new group's vnodes claim
// move, roughly 1/N of them for N resulting groups.
func (r *Ring) AddGroup(g Group) error {
	if g.Name == "" {
		return fmt.Errorf("shard: group with empty name")
	}
	if len(g.DMs) == 0 {
		return fmt.Errorf("shard: group %q has no DMs", g.Name)
	}
	if _, ok := r.Group(g.Name); ok {
		return fmt.Errorf("shard: duplicate group %q", g.Name)
	}
	r.Groups = append(r.Groups, g.Clone())
	r.Epoch++
	r.points = nil
	return nil
}

// RemoveGroup removes a replica group and bumps the epoch. Overrides
// pinning keys to the removed group are dropped: those keys fall back to
// hash placement on the remaining groups.
func (r *Ring) RemoveGroup(name string) error {
	idx := -1
	for i, g := range r.Groups {
		if g.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("shard: no group %q", name)
	}
	r.Groups = append(r.Groups[:idx], r.Groups[idx+1:]...)
	for k, g := range r.Overrides {
		if g == name {
			delete(r.Overrides, k)
		}
	}
	r.Epoch++
	r.points = nil
	return nil
}

// MoveKey pins key to the named group and bumps the epoch.
func (r *Ring) MoveKey(key, group string) error {
	if _, ok := r.Group(group); !ok {
		return fmt.Errorf("shard: no group %q", group)
	}
	if r.Overrides == nil {
		r.Overrides = make(map[string]string)
	}
	r.Overrides[key] = group
	r.Epoch++
	return nil
}

// Clone returns a deep copy sharing no mutable state with the original.
func (r *Ring) Clone() *Ring {
	c := &Ring{Seed: r.Seed, VNodes: r.VNodes, Epoch: r.Epoch}
	for _, g := range r.Groups {
		c.Groups = append(c.Groups, g.Clone())
	}
	if r.Overrides != nil {
		c.Overrides = make(map[string]string, len(r.Overrides))
		for k, v := range r.Overrides {
			c.Overrides[k] = v
		}
	}
	return c
}

// Spread counts how many of the given keys land on each group — the
// balance view -inspect prints and the rebalance-bound tests assert on.
func (r *Ring) Spread(keys []string) map[string]int {
	out := make(map[string]int, len(r.Groups))
	for _, g := range r.Groups {
		out[g.Name] = 0
	}
	for _, k := range keys {
		out[r.Lookup(k)]++
	}
	return out
}

// Keys generates n keys "prefix0" … "prefix<n-1>" — the fixed keyspaces
// the demos, experiments, and tests place on rings.
func Keys(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}
