package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wal"
)

// TestEveryStartPathWiresTheReplicaAlike: however a replica comes to exist —
// Open or ServeDM, volatile or durable, a restart, a rebuild through the
// Store or the one ServeDM runs on its own — its state machine ends up with
// the same lease clock, peer set and retention cap.
// ServeDM used to wire its replicas by hand and never armed retention.
func TestEveryStartPathWiresTheReplicaAlike(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2"}
	ring, err := shard.New(7, 8, []shard.Group{{Name: "g0", DMs: dms}})
	if err != nil {
		t.Fatal(err)
	}
	items, err := ShardItems(ring, []string{"x"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	clock := transport.NewManualClock(time.Unix(1700000000, 0))
	opts := func(dir string) []Option {
		return []Option{
			WithClock(clock), WithRing(ring), WithDurability(dir),
			WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)),
		}
	}
	openStore := func(t *testing.T, net *sim.Network, dir string) *Store {
		store, err := Open(net, items, opts(dir)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(store.Close)
		return store
	}
	serveAll := func(t *testing.T, net *sim.Network, dir string) map[string]*DMHost {
		hosts := map[string]*DMHost{}
		for _, dm := range dms {
			h, err := ServeDM(net, dm, items, opts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			hosts[dm] = h
		}
		t.Cleanup(func() {
			for _, h := range hosts {
				h.Close()
			}
		})
		return hosts
	}
	paths := []struct {
		name    string
		bringUp func(t *testing.T, net *sim.Network) *DMHost
	}{
		{"Open volatile", func(t *testing.T, net *sim.Network) *DMHost {
			return openStore(t, net, "").host("dm0")
		}},
		{"Open durable", func(t *testing.T, net *sim.Network) *DMHost {
			return openStore(t, net, t.TempDir()).host("dm0")
		}},
		{"ServeDM volatile", func(t *testing.T, net *sim.Network) *DMHost {
			return serveAll(t, net, "")["dm0"]
		}},
		{"ServeDM durable", func(t *testing.T, net *sim.Network) *DMHost {
			return serveAll(t, net, t.TempDir())["dm0"]
		}},
		{"RestartDM", func(t *testing.T, net *sim.Network) *DMHost {
			store := openStore(t, net, t.TempDir())
			if _, err := store.RestartDM("dm0"); err != nil {
				t.Fatal(err)
			}
			return store.host("dm0")
		}},
		{"RebuildReplica", func(t *testing.T, net *sim.Network) *DMHost {
			store := openStore(t, net, t.TempDir())
			if _, err := store.RebuildReplica(context.Background(), "dm0"); err != nil {
				t.Fatal(err)
			}
			return store.host("dm0")
		}},
		{"ServeDM automatic rebuild", func(t *testing.T, net *sim.Network) *DMHost {
			dir := t.TempDir()
			hosts := serveAll(t, net, dir)
			client, err := OpenClient(net, items, WithClock(clock))
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			ctx := context.Background()
			for i := 1; i <= 6; i++ {
				if err := client.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
					t.Fatal(err)
				}
			}
			hosts["dm0"].Close()
			if _, _, ok, err := wal.NewFaultFS(19).CorruptSegmentFrame(filepath.Join(dir, "dm0")); err != nil || !ok {
				t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
			}
			h, err := ServeDM(net, "dm0", items, opts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			hosts["dm0"] = h
			if h.Rebuilt == nil {
				t.Fatalf("host did not rebuild on its own: quarantined %v", h.Quarantined())
			}
			return h
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			net := sim.NewNetwork(sim.Config{Seed: 5, FateFeedback: true})
			t.Cleanup(net.Close) // registered first, so it runs after the hosts close
			h := path.bringUp(t, net)
			srv := h.srv
			if srv.clock != transport.Clock(clock) {
				t.Errorf("leases: clock %v, want the injected clock", srv.clock)
			}
			if !reflect.DeepEqual(h.peers, []string{"dm1", "dm2"}) {
				t.Errorf("peers = %v, want [dm1 dm2]", h.peers)
			}
			if srv.resolvedCap != defaultResolvedRetention {
				t.Errorf("retention cap = %d, want %d", srv.resolvedCap, defaultResolvedRetention)
			}
		})
	}
}

// TestOpenClosesItsHostsWhenTheEpochBumpFails: an Open that fails after its
// hosts are serving must close them — on a transport that refuses to serve
// a name twice, a retry with the same DM ids only works if it did.
func TestOpenClosesItsHostsWhenTheEpochBumpFails(t *testing.T) {
	tr := tcp.New()
	defer tr.Close()
	dms := []string{"dm0", "dm1", "dm2"}
	items := []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "epoch.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if store, err := Open(tr, items, WithDurability(dir), WithWALOptions(wal.WithFsync(false))); err == nil {
		store.Close()
		t.Fatal("Open succeeded although the client epoch could not be persisted")
	}
	store, err := Open(tr, items, WithDurability(t.TempDir()), WithWALOptions(wal.WithFsync(false)))
	if err != nil {
		t.Fatalf("second Open over the same transport and DM ids: %v", err)
	}
	store.Close()
}

// TestOneHandlerVolatileAndDurableAgree feeds the seeded request stream of
// TestIndexedResolutionMatchesFullScan to a volatile host and a durable
// host over the transport: both must answer like the full-scan reference
// and hold its state after every request, and a host restarted on the
// durable one's log must hold it too.
func TestOneHandlerVolatileAndDurableAgree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			specs, next := resolutionStream(seed)
			clock := transport.NewManualClock(time.Unix(1700000000, 0))
			net := sim.NewNetwork(sim.Config{Seed: seed})
			defer net.Close()
			st := resolve([]Option{WithClock(clock), WithWALOptions(wal.WithFsync(false))})
			volatile, err := start(net, "volatile", specs, nil, st, new(Stats))
			if err != nil {
				t.Fatal(err)
			}
			defer volatile.Close()
			st.walDir = t.TempDir()
			durable, err := start(net, "durable", specs, nil, st, new(Stats))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { durable.Close() }()
			reference := newDMState("reference", specs)
			reference.clock = clock
			client, err := net.Client("driver")
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			ctx := context.Background()
			for step := 0; step < resolutionSteps; step++ {
				req, _ := next(step)
				want, _ := fullScanApply(reference, req)
				wantReps, wantRes, wantAborted := snapshotState(reference)
				for _, h := range []*DMHost{volatile, durable} {
					got, err := client.Call(ctx, h.id, req)
					if err != nil {
						t.Fatalf("step %d %#v at %s: %v", step, req, h.id, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d %#v: %s answered %#v, the reference %#v", step, req, h.id, got, want)
					}
					// The answer is out, so the serving goroutine is done
					// writing; it may still be reading (a snapshot).
					gotReps, gotRes, gotAborted := snapshotState(h.srv)
					if !reflect.DeepEqual(gotReps, wantReps) || !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotAborted, wantAborted) {
						t.Fatalf("step %d %#v: %s diverged from the reference", step, req, h.id)
					}
				}
			}
			if m := durable.log.Metrics(); m.Appends.Value() == 0 {
				t.Fatal("the durable host logged nothing")
			}
			durable.Close()
			durable, err = start(net, "durable", specs, nil, st, new(Stats))
			if err != nil {
				t.Fatal(err)
			}
			if rec := durable.Recovery(); rec.Replayed == 0 && !rec.FromSnapshot {
				t.Fatalf("restart recovered nothing: %+v", rec)
			}
			gotReps, gotRes, gotAborted := snapshotState(durable.srv)
			wantReps, wantRes, wantAborted := snapshotState(reference)
			if !reflect.DeepEqual(gotAborted, wantAborted) {
				t.Fatalf("aborted subtransactions recovered from the log as %+v, the reference holds %+v", gotAborted, wantAborted)
			}
			if !reflect.DeepEqual(gotReps, wantReps) || !reflect.DeepEqual(gotRes, wantRes) {
				for name := range wantReps {
					if !reflect.DeepEqual(gotReps[name], wantReps[name]) {
						t.Fatalf("replica %s recovered from the log as\n %+v\nthe reference holds\n %+v", name, gotReps[name], wantReps[name])
					}
				}
				t.Fatalf("resolution records recovered from the log diverge:\n %+v\n %+v", gotRes, wantRes)
			}
		})
	}
}

// TestQuarantinedHostRefusesEveryMessage: once the verdict is set the one
// handler answers the typed refusal to every protocol message there is, the
// first verdict sticks, and it is counted once.
func TestQuarantinedHostRefusesEveryMessage(t *testing.T) {
	s := newDMState("dm0", []ItemSpec{{Name: "x", Initial: 0, Config: quorum.Majority([]string{"dm0"})}})
	h := &DMHost{id: "dm0", srv: s, Stats: new(Stats)}
	h.quarantine(errors.New("disk gone"))
	h.quarantine(errors.New("still gone"))
	if n := h.Stats.Quarantines.Value(); n != 1 {
		t.Fatalf("Quarantines = %d, want 1", n)
	}
	want := QuarantinedResp{DM: "dm0", Reason: "disk gone"}
	for _, wt := range wireTypes {
		var got any
		h.handle("c", wt.proto, func(r any) { got = r })
		if got != want {
			t.Errorf("%T answered %#v, want %#v", wt.proto, got, want)
		}
	}
	if len(s.touched) != 0 || len(s.Resolved) != 0 || len(s.Replicas["x"].Locks) != 0 {
		t.Error("a refused request reached the state machine")
	}
}
