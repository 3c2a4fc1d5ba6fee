package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
)

// TestStaleReplicaNeverSourcesARead: a copy that missed every write and the
// reconfiguration stays behind — nothing pushes state to it — and is still
// never what a read returns. Every read quorum meets the write quorum that
// holds the newest version, and a read returns the highest version it sees
// (Lemma 8); the same intersection hands every client the newest generation
// (Section 4). Each row cuts the writer off from replicas that cover no write
// quorum (ReadAllWriteOne cuts none: its one-replica writes leave the others
// behind on their own), commits three writes and a reconfiguration through
// the rest, heals, and then reads once through every read quorum, each time
// with a fresh client cut off from the replicas outside that quorum.
func TestStaleReplicaNeverSourcesARead(t *testing.T) {
	must := func(cfg quorum.Config, err error) quorum.Config {
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	names := func(n int) []string {
		dms := make([]string, n)
		for i := range dms {
			dms[i] = fmt.Sprintf("dm%d", i)
		}
		return dms
	}
	three, four, five, nine := names(3), names(4), names(5), names(9)
	votes := map[string]int{"dm0": 3, "dm1": 1, "dm2": 1, "dm3": 1, "dm4": 1}
	rows := []struct {
		name string
		dms  []string
		cfg  quorum.Config
		cut  []string // unreachable while the writes commit
	}{
		{"majority5", five, quorum.Majority(five), []string{"dm3", "dm4"}},
		{"voting", five, must(quorum.Voting(votes, 4, 4)), []string{"dm2", "dm3", "dm4"}},
		{"grid3x3", nine, must(quorum.Grid(nine, 3, 3)), []string{"dm4", "dm8"}},
		{"tree", four, must(quorum.TreeQuorum(four, 3)), []string{"dm3"}},
		{"rowa", three, quorum.ReadAllWriteOne(three), nil},
	}
	const k = 3
	newest := fmt.Sprint("v", k)
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			seed := int64(4300 + 100*i)
			dms, cfg := row.dms, row.cfg
			net := sim.NewNetwork(sim.Config{
				MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
				Seed: seed, FateFeedback: true,
			})
			items := []ItemSpec{{Name: "x", Initial: "v0", DMs: dms, Config: cfg}}
			writer, err := Open(net, items, WithSeed(seed), WithCallTimeout(time.Second))
			if err != nil {
				net.Close()
				t.Fatal(err)
			}
			t.Cleanup(func() {
				writer.Close()
				net.Close()
			})
			ctx := context.Background()
			for _, dm := range row.cut {
				net.Disconnect(writer.ClientNode(), dm)
			}
			for v := 1; v <= k; v++ {
				if err := writer.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", fmt.Sprint("v", v)) }); err != nil {
					t.Fatalf("write %d: %v", v, err)
				}
			}
			if err := writer.Reconfigure(ctx, "x", cfg); err != nil {
				t.Fatal(err)
			}
			gen := writer.config("x").gen
			for _, dm := range row.cut {
				net.Reconnect(writer.ClientNode(), dm)
			}
			settle(t, writer, net, dms)

			before := map[string]InspectResp{}
			stale := map[string]bool{}
			for _, dm := range dms {
				resp, err := writer.Inspect(ctx, dm, "x")
				if err != nil {
					t.Fatal(err)
				}
				before[dm] = resp
				if resp.VN < k || resp.Gen < gen {
					stale[dm] = true
				}
			}
			if len(stale) == 0 {
				t.Fatal("precondition: no replica is behind")
			}
			for _, dm := range row.cut {
				if !stale[dm] {
					t.Fatalf("precondition: cut-off %s is current: %+v", dm, before[dm])
				}
			}

			for j, q := range cfg.R {
				reader, err := OpenClient(net, items, WithSeed(seed+1+int64(j)), WithCallTimeout(time.Second))
				if err != nil {
					t.Fatal(err)
				}
				for _, dm := range dms {
					if !q[dm] {
						net.Disconnect(reader.ClientNode(), dm)
					}
				}
				var val any
				var vn int
				err = reader.Run(ctx, func(tx *Txn) error {
					var rerr error
					val, vn, rerr = tx.ReadVersioned(ctx, "x")
					return rerr
				})
				if err != nil {
					t.Errorf("read through %v: %v", q, err)
				} else if vn != k || val != newest {
					t.Errorf("read through %v returned (vn %d, %v), want (vn %d, %s)", q, vn, val, k, newest)
				}
				if got := reader.config("x").gen; got != gen {
					t.Errorf("client reading through %v believes generation %d, want %d", q, got, gen)
				}
				reader.Close()
			}

			settle(t, writer, net, dms)
			for _, dm := range dms {
				after, err := writer.Inspect(ctx, dm, "x")
				if err != nil {
					t.Fatal(err)
				}
				b := before[dm]
				if after.VN != b.VN || after.Val != b.Val || after.Gen != b.Gen {
					t.Errorf("%s moved from (vn %d, %v, gen %d) to (vn %d, %v, gen %d): reads pushed state to it",
						dm, b.VN, b.Val, b.Gen, after.VN, after.Val, after.Gen)
				}
			}
		})
	}
}

func TestInspectUnknownReplica(t *testing.T) {
	store, _, _ := testCluster(t, 3, quorum.Majority, fastNet(21))
	if _, err := store.Inspect(context.Background(), "dm0", "nope"); err == nil {
		t.Error("inspect of unknown item must fail")
	}
}
