package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wal"
)

// Probes are short microbenchmarks of single layers, called through their
// public functions before any workload's set-up starts. They give each
// layer a floor to hold the workload numbers against: what a frame costs
// to encode, what one hop costs on each transport, what one fsync costs.

// timeBatches runs fn in batches of `batch` calls for about budget and
// returns the median batch's cost per call in ns.
func timeBatches(budget time.Duration, batch int, fn func()) float64 {
	var per []float64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// timeCalls runs fn one call at a time for about budget and returns the
// median call in µs.
func timeCalls(budget time.Duration, fn func() error) (float64, error) {
	var each []float64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		each = append(each, us(int64(time.Since(t0))))
	}
	return median(each), nil
}

// probeFrame is one representative wire frame.
type probeFrame struct {
	name  string
	frame tcp.Frame
}

func probeFrameSet(filler string) []probeFrame {
	txn := cluster.TxnID("c1.t123456/1")
	return []probeFrame{
		{"readreq", tcp.Frame{Kind: frameCall, ID: 7, From: "client-c1-1", Deadline: time.Unix(1700000000, 0),
			Req: cluster.ReadReq{Txn: txn, Item: "k512", Lock: cluster.LockRead, Seq: 3}}},
		{"readresp", tcp.Frame{Kind: frameReply, ID: 7,
			Resp: cluster.ReadResp{OK: true, VN: 41, Val: filler[:16], Gen: 0}}},
		{"writereq1k", tcp.Frame{Kind: frameCall, ID: 8, From: "client-c1-1", Deadline: time.Unix(1700000000, 0),
			Req: cluster.WriteReq{Txn: txn, Item: "k512", VN: 42, Val: filler[:1024], Seq: 4}}},
		{"committop", tcp.Frame{Kind: frameCall, ID: 9, From: "client-c1-1", Deadline: time.Unix(1700000000, 0),
			Req: cluster.CommitTopReq{Txn: txn.Top(), Subs: []cluster.TxnID{txn, txn.Top() + "/2"},
				Final: map[string]int{"k512": 42, "k77": 9}}}},
	}
}

// probeFrames measures tcp.EncodeFrame and tcp.DecodeFrame on the probe
// frames. It first proves that all three frame kinds still round-trip and
// that every probe frame decodes back equal to what was encoded.
func probeFrames(out metricSet, filler string, budget time.Duration) error {
	for _, kind := range []int{frameCall, frameNotify, frameReply} {
		b, err := tcp.EncodeFrame(tcp.Frame{Kind: kind, ID: 1, From: "p", Req: cluster.PingReq{Seq: 1}})
		if err != nil {
			return fmt.Errorf("frame probe: kind %d: %w", kind, err)
		}
		if f, err := tcp.DecodeFrame(b); err != nil || f.Kind != kind {
			return fmt.Errorf("frame probe: kind %d no longer round-trips (decoded kind %d): %v", kind, f.Kind, err)
		}
	}
	for _, pf := range probeFrameSet(filler) {
		body, err := tcp.EncodeFrame(pf.frame)
		if err != nil {
			return fmt.Errorf("frame probe %s: %w", pf.name, err)
		}
		back, err := tcp.DecodeFrame(body)
		if err != nil {
			return fmt.Errorf("frame probe %s: %w", pf.name, err)
		}
		if !back.Deadline.Equal(pf.frame.Deadline) {
			return fmt.Errorf("frame probe %s: deadline decoded as %v", pf.name, back.Deadline)
		}
		back.Deadline = pf.frame.Deadline // same instant; gob does not keep the Location pointer
		if !reflect.DeepEqual(back, pf.frame) {
			return fmt.Errorf("frame probe %s: round trip decoded %+v, encoded %+v", pf.name, back, pf.frame)
		}
		const batch = 64
		var sink int
		out.set("tcp.frame_bytes."+pf.name, float64(len(body)))
		out.set("tcp.frame_encode_ns."+pf.name, timeBatches(budget, batch, func() {
			b, _ := tcp.EncodeFrame(pf.frame)
			sink += len(b)
		}))
		out.set("tcp.frame_decode_ns."+pf.name, timeBatches(budget, batch, func() {
			f, _ := tcp.DecodeFrame(body)
			sink += f.Kind
		}))
		var before, after runtime.MemStats
		const rounds = 200
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			b, _ := tcp.EncodeFrame(pf.frame)
			f, _ := tcp.DecodeFrame(b)
			sink += f.Kind
		}
		runtime.ReadMemStats(&after)
		out.set("tcp.frame_allocs."+pf.name, float64(after.Mallocs-before.Mallocs)/rounds)
		if sink == 0 {
			return fmt.Errorf("frame probe %s: codec produced nothing", pf.name)
		}
	}
	return nil
}

// probeEcho measures the bare round trip of one transport: a ReadReq to a
// handler that answers a ReadResp at once, no cluster code in between.
func probeEcho(tr transport.Transport, filler string, budget time.Duration) (float64, error) {
	srv, err := tr.Serve("echo", func(_ string, _ any, reply func(any)) {
		reply(cluster.ReadResp{OK: true, VN: 1, Val: filler[:16]})
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	c, err := tr.Client("probe")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	req := cluster.ReadReq{Txn: "c1.t1", Item: "k1", Lock: cluster.LockRead, Seq: 1}
	call := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, err := c.Call(ctx, "echo", req)
		return err
	}
	for i := 0; i < 50; i++ { // dial, first-use allocations
		if err := call(); err != nil {
			return 0, err
		}
	}
	return timeCalls(budget, call)
}

// probeWALSolo measures one serial 256-byte Log.Append under the default
// flush policy (fsync on): the device floor no group commit can beat.
func probeWALSolo(dir string, budget time.Duration) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	log, _, err := wal.Open(dir)
	if err != nil {
		return 0, err
	}
	payload := bytes.Repeat([]byte{0xA5}, 256)
	p50, err := timeCalls(budget, func() error { return log.Append(payload) })
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return p50, err
}

// runProbes fills out with every probe metric. scratch is a directory the
// WAL probe may use.
func runProbes(out metricSet, filler, scratch string, budget time.Duration) error {
	if err := probeFrames(out, filler, budget/8); err != nil {
		return err
	}
	t := tcp.New()
	rtt, err := probeEcho(t, filler, budget)
	t.Close()
	if err != nil {
		return fmt.Errorf("tcp echo probe: %w", err)
	}
	out.set("tcp.echo_rtt_us_p50", rtt)

	n := sim.NewNetwork(sim.Config{Seed: 1})
	rtt, err = probeEcho(n, filler, budget)
	n.Close()
	if err != nil {
		return fmt.Errorf("sim echo probe: %w", err)
	}
	out.set("sim.echo_rtt_us_p50", rtt)

	solo, err := probeWALSolo(scratch, budget)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	out.set("wal.append_us_p50.solo", solo)

	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	cfg := quorum.Majority(dms)
	have := map[string]bool{"dm0": true, "dm2": true, "dm4": true}
	granted := 0
	out.set("quorum.has_quorum_ns", timeBatches(budget/8, 256, func() {
		if cfg.HasReadQuorum(have) {
			granted++
		}
	}))
	if granted == 0 {
		return fmt.Errorf("quorum probe: three of five grants were not a majority read quorum")
	}
	return nil
}
