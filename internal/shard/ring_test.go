package shard

import (
	"fmt"
	"reflect"
	"testing"
)

func testGroups(n int) []Group {
	var gs []Group
	for i := 0; i < n; i++ {
		gs = append(gs, Group{
			Name: fmt.Sprintf("g%d", i),
			DMs: []string{
				fmt.Sprintf("g%d-dm0", i),
				fmt.Sprintf("g%d-dm1", i),
				fmt.Sprintf("g%d-dm2", i),
			},
		})
	}
	return gs
}

func mustRing(t *testing.T, seed int64, vnodes, groups int) *Ring {
	t.Helper()
	r, err := New(seed, vnodes, testGroups(groups))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

// Same seed ⇒ identical placement, independently of construction order
// or process. Different seed ⇒ (almost surely) different placement.
func TestRingDeterminism(t *testing.T) {
	keys := Keys("k", 512)
	cases := []struct {
		name   string
		seed   int64
		vnodes int
		groups int
	}{
		{"small", 1, 16, 2},
		{"medium", 42, 64, 4},
		{"large", -7, 128, 8},
		{"one-group", 99, 64, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mustRing(t, tc.seed, tc.vnodes, tc.groups)
			b := mustRing(t, tc.seed, tc.vnodes, tc.groups)
			for _, k := range keys {
				if ga, gb := a.Lookup(k), b.Lookup(k); ga != gb {
					t.Fatalf("key %q: placements diverge (%q vs %q)", k, ga, gb)
				}
			}
			if tc.groups > 1 {
				spread := a.Spread(keys)
				for g, n := range spread {
					if n == 0 {
						t.Errorf("group %q got zero of %d keys: %v", g, len(keys), spread)
					}
				}
			}
		})
	}

	a := mustRing(t, 1, 64, 4)
	b := mustRing(t, 2, 64, 4)
	diff := 0
	for _, k := range keys {
		if a.Lookup(k) != b.Lookup(k) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("seeds 1 and 2 produced identical placement of %d keys", len(keys))
	}
}

// Adding one group to N moves at most ~(1/(N+1) + ε) of keys, and every
// key that moved went TO the new group — consistent hashing's whole point.
func TestRingRebalanceBound(t *testing.T) {
	keys := Keys("k", 2048)
	for _, n := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("groups=%d", n), func(t *testing.T) {
			before := mustRing(t, 5, 64, n)
			after := before.Clone()
			extra := Group{Name: "extra", DMs: []string{"extra-dm0", "extra-dm1", "extra-dm2"}}
			if err := after.AddGroup(extra); err != nil {
				t.Fatalf("AddGroup: %v", err)
			}
			if after.Epoch != before.Epoch+1 {
				t.Fatalf("epoch %d, want %d", after.Epoch, before.Epoch+1)
			}
			moved := 0
			for _, k := range keys {
				was, is := before.Lookup(k), after.Lookup(k)
				if was == is {
					continue
				}
				if is != "extra" {
					t.Fatalf("key %q moved %q->%q, not to the new group", k, was, is)
				}
				moved++
			}
			// Expect ~1/(n+1); allow ε = 50% relative slack for vnode
			// placement variance at 64 vnodes.
			frac := float64(moved) / float64(len(keys))
			bound := 1.0/float64(n+1)*1.5 + 0.01
			if frac > bound {
				t.Fatalf("adding 1 group to %d moved %.1f%% of keys (bound %.1f%%)",
					n, frac*100, bound*100)
			}
			if moved == 0 {
				t.Fatalf("adding a group moved zero keys")
			}
		})
	}
}

// A clone places exactly as its source (its derived points rebuild from the
// exported fields) and shares no state with it.
func TestRingClonePlacesIdentically(t *testing.T) {
	keys := Keys("k", 256)
	r := mustRing(t, 11, 64, 4)
	if err := r.MoveKey("k3", "g2"); err != nil {
		t.Fatalf("MoveKey: %v", err)
	}
	got := r.Clone()
	if got.Epoch != r.Epoch || got.Seed != r.Seed || got.VNodes != r.VNodes {
		t.Fatalf("identity changed: got %+v want %+v", got, r)
	}
	for _, k := range keys {
		if a, b := r.Lookup(k), got.Lookup(k); a != b {
			t.Fatalf("key %q: clone places at %q, original at %q", k, b, a)
		}
	}
	r.Overrides["k3"] = "g0"
	r.Groups[0].DMs[0] = "changed"
	if got.Lookup("k3") != "g2" || got.Groups[0].DMs[0] == "changed" {
		t.Fatalf("clone shares state with its source")
	}
}

func TestRingMoveKey(t *testing.T) {
	r := mustRing(t, 3, 64, 3)
	key := "k0"
	home := r.Lookup(key)
	var target string
	for _, g := range r.GroupNames() {
		if g != home {
			target = g
			break
		}
	}
	e0 := r.Epoch
	if err := r.MoveKey(key, target); err != nil {
		t.Fatalf("MoveKey: %v", err)
	}
	if got := r.Lookup(key); got != target {
		t.Fatalf("after MoveKey, Lookup = %q want %q", got, target)
	}
	if r.Epoch != e0+1 {
		t.Fatalf("epoch %d want %d", r.Epoch, e0+1)
	}
	if err := r.MoveKey(key, "nope"); err == nil {
		t.Fatalf("MoveKey to unknown group succeeded")
	}
}

func TestRingRemoveGroup(t *testing.T) {
	r := mustRing(t, 9, 64, 3)
	if err := r.MoveKey("pinned", "g1"); err != nil {
		t.Fatalf("MoveKey: %v", err)
	}
	if err := r.RemoveGroup("g1"); err != nil {
		t.Fatalf("RemoveGroup: %v", err)
	}
	if got := r.Lookup("pinned"); got == "g1" || got == "" {
		t.Fatalf("key pinned to removed group resolved to %q", got)
	}
	for _, k := range Keys("k", 256) {
		if g := r.Lookup(k); g == "g1" || g == "" {
			t.Fatalf("key %q resolved to %q after removal", k, g)
		}
	}
	if err := r.RemoveGroup("g1"); err == nil {
		t.Fatalf("removing a missing group succeeded")
	}
}

func TestRingValidation(t *testing.T) {
	cases := []struct {
		name   string
		vnodes int
		groups []Group
	}{
		{"zero-vnodes", 0, testGroups(2)},
		{"dup-group", 8, []Group{{Name: "g", DMs: []string{"a"}}, {Name: "g", DMs: []string{"b"}}}},
		{"empty-name", 8, []Group{{Name: "", DMs: []string{"a"}}}},
		{"no-dms", 8, []Group{{Name: "g", DMs: nil}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(1, tc.vnodes, tc.groups); err == nil {
				t.Fatalf("New accepted invalid input")
			}
		})
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []Group
		err  bool
	}{
		{
			name: "two-groups",
			spec: "g0=dm0:dm1:dm2,g1=dm3:dm4:dm5",
			want: []Group{
				{Name: "g0", DMs: []string{"dm0", "dm1", "dm2"}},
				{Name: "g1", DMs: []string{"dm3", "dm4", "dm5"}},
			},
		},
		{
			name: "spaces",
			spec: " a = x : y , b = z ",
			want: []Group{
				{Name: "a", DMs: []string{"x", "y"}},
				{Name: "b", DMs: []string{"z"}},
			},
		},
		{name: "empty", spec: "  ", err: true},
		{name: "no-equals", spec: "g0", err: true},
		{name: "no-dms", spec: "g0=", err: true},
		{name: "dup", spec: "g0=a,g0=b", err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseSpec(tc.spec)
			if tc.err {
				if err == nil {
					t.Fatalf("ParseSpec(%q) succeeded: %v", tc.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
			round, err := ParseSpec(FormatSpec(got))
			if err != nil {
				t.Fatalf("reparse FormatSpec: %v", err)
			}
			if len(round) != len(got) {
				t.Fatalf("FormatSpec round-trip lost groups")
			}
		})
	}
}
