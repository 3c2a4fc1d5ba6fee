package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// TestSlowDiskCompactionStallsNoRequest runs three durable replicas on a
// disk that discards freed blocks — a Remove or Truncate takes 100 ms, and
// the next sync after anything freed blocks sleeps 200 ms — with two
// writers across several snapshot cycles. A replica's compaction frees
// nothing and runs on its log's flusher, so no transaction comes near its
// call timeout and none fails. A replica that compacted on its request path
// by deleting what its snapshot superseded would stall every replica of
// the item at once (they log the same records) for longer than the timeout.
func TestSlowDiskCompactionStallsNoRequest(t *testing.T) {
	const timeout = 300 * time.Millisecond
	ffs := wal.NewFaultFS(23)
	ffs.SetOpLatency(wal.OpRemove, 100*time.Millisecond)
	ffs.SetOpLatency(wal.OpTruncate, 100*time.Millisecond)
	ffs.StallSyncAfterFree(200 * time.Millisecond)
	dms := []string{"dm0", "dm1", "dm2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 50 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: 23})
	items := []ItemSpec{
		{Name: "a", Initial: []byte(nil), DMs: dms, Config: quorum.Majority(dms)},
		{Name: "b", Initial: []byte(nil), DMs: dms, Config: quorum.Majority(dms)},
	}
	store, err := Open(net, items, WithSeed(23), WithCallTimeout(timeout),
		WithDurability(t.TempDir()), WithWALOptions(wal.WithFS(ffs)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { store.Close(); net.Close() }()

	ctx := context.Background()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var slowest time.Duration
	errs := make(chan error, 2)
	for _, item := range []string{"a", "b"} {
		wg.Add(1)
		go func(item string) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				val := bytes.Repeat([]byte{byte(i)}, 2048)
				start := time.Now()
				if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, item, val) }); err != nil {
					errs <- fmt.Errorf("write %d of %s: %w", i, item, err)
					return
				}
				mu.Lock()
				slowest = max(slowest, time.Since(start))
				mu.Unlock()
			}
		}(item)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if slowest >= timeout {
		t.Fatalf("the slowest transaction took %v, a call timeout's worth", slowest)
	}
	for _, dm := range dms {
		if n := store.WALMetrics(dm).Snapshots.Value(); n < 3 {
			t.Fatalf("%s took %d snapshots, want at least 3 cycles", dm, n)
		}
	}
	if n := ffs.Frees(); n != 0 {
		t.Fatalf("the replicas freed blocks %d times while serving", n)
	}
	t.Logf("slowest of 240 transactions: %v", slowest)
}

// TestRestartsReplayFromASnapshot: a replica restarted after many writes
// recovers from a snapshot and replays only the log since it — a fraction
// of the records it appended (wal's TestReplayIsBoundedBySnapshotSize pins
// the byte bound), not the whole history.
func TestRestartsReplayFromASnapshot(t *testing.T) {
	net, store, dms := openDurable(t, 171)
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()
	for i := 0; i < 600; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 1024)
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", val) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, dm := range dms {
		appended := store.WALMetrics(dm).Appends.Value()
		if rs := amnesia(t, store, dm); !rs.FromSnapshot || int64(rs.Replayed)*3 > appended {
			t.Fatalf("%s recovered %+v after appending %d records", dm, rs, appended)
		}
	}
}

// TestForeignLogFormatQuarantines: a log whose records or snapshot carry
// another build's layout fingerprint is never replayed. The replica comes
// up quarantined with a typed error wrapping wire.ErrLayout — the path a
// scrambled disk takes — and a peer rebuild brings it back.
func TestForeignLogFormatQuarantines(t *testing.T) {
	for _, what := range []string{"record", "snapshot"} {
		t.Run(what, func(t *testing.T) {
			dir := t.TempDir()
			foreign := binary.LittleEndian.AppendUint64(nil, wire.Fingerprint()+1)
			rec, err := wire.Append(foreign, WriteReq{Txn: "c1.t1", Item: "x", VN: 1, Val: 5})
			if err != nil {
				t.Fatal(err)
			}
			log, _, err := wal.Open(filepath.Join(dir, "dm0"), wal.WithFsync(false))
			if err != nil {
				t.Fatal(err)
			}
			if what == "record" {
				err = log.Append(rec)
			} else {
				err = log.WriteSnapshot(rec)
			}
			if err != nil {
				t.Fatal(err)
			}
			log.Close()

			dms := []string{"dm0", "dm1", "dm2"}
			net := sim.NewNetwork(sim.Config{Seed: 181})
			store, err := Open(net, []ItemSpec{{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)}},
				WithSeed(181), WithDurability(dir), WithWALOptions(wal.WithFsync(false)))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { store.Close(); net.Close() }()
			var ce *wal.CorruptionError
			if q := store.host("dm0").Quarantined(); !errors.As(q, &ce) || !errors.Is(q, wire.ErrLayout) {
				t.Fatalf("dm0 opened a foreign %s with verdict %v, want a CorruptionError wrapping wire.ErrLayout", what, q)
			}
			ctx := context.Background()
			if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 7) }); err != nil {
				t.Fatalf("the two healthy replicas did not commit: %v", err)
			}
			if _, err := store.RebuildReplica(ctx, "dm0"); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if r := store.host("dm0").srv.Replicas["x"]; r == nil || r.Val != 7 {
				t.Fatalf("the rebuilt dm0 holds %#v", r)
			}
		})
	}
}

// TestUnencodableWriteFailsAtOnce: a value no codec can carry reaches the
// replicas in-process, where the log's codec is the first to see it. Every
// replica must refuse it at once, before apply — never leave the writer
// waiting out its timeout, never serve a state its log lacks — and stay
// healthy: the next write commits and reads back.
func TestUnencodableWriteFailsAtOnce(t *testing.T) {
	const timeout = 2 * time.Second
	net, store, dms := openDurable(t, 191, WithCallTimeout(timeout))
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()
	start := time.Now()
	err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", make(chan int)) })
	if took := time.Since(start); err == nil || took >= timeout/2 {
		t.Fatalf("the write returned %v after %v; want a failure well inside the %v timeout", err, took, timeout)
	}
	for _, dm := range dms {
		if q := store.host(dm).Quarantined(); q != nil {
			t.Fatalf("%s quarantined on a refused request: %v", dm, q)
		}
	}
	if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", 7) }); err != nil {
		t.Fatalf("the write after the refusal: %v", err)
	}
	var got any
	if err := store.Run(ctx, func(tx *Txn) error {
		var err error
		got, err = tx.Read(ctx, "x")
		return err
	}); err != nil || got != 7 {
		t.Fatalf("read x = %v, %v; want 7", got, err)
	}
}

// TestLayoutsArePinnedToTheWireVersion: the fingerprint of every registered
// layout — the identity each log record carries, and the shape of every TCP
// frame's payload — is pinned to the TCP wire version. A change to a
// registered type's fields, to a tag, or to package wire's plans moves the
// fingerprint; this test then fails until the version byte in
// internal/transport/tcp/frame.go is bumped and the new fingerprint pinned
// under it, so no layout change ships without one.
func TestLayoutsArePinnedToTheWireVersion(t *testing.T) {
	pinned := map[byte]uint64{5: 0x812f188c18dc5810, 6: 0xda64edff278986c3, 7: 0x2f514b13f7eeaad8}
	want, ok := pinned[tcp.WireVersion]
	if got := wire.Fingerprint(); !ok || got != want {
		t.Fatalf("registered layouts have fingerprint %#x; wire version %d pins %#x (pinned: %v). "+
			"A layout changed: bump the wire version and pin the new fingerprint under it.", got, tcp.WireVersion, want, ok)
	}
}
