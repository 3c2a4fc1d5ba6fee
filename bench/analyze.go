package main

import (
	"sort"
	"time"

	"repro/internal/transport/tcp"
)

// interval is a half-open [lo,hi) stretch of trace time, in ns.
type interval struct{ lo, hi int64 }

// selfTime is a span's duration minus the part of it its children cover:
// the children are clipped to the span, merged where they overlap, and the
// merged length subtracted.
func selfTime(s interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.lo < s.lo {
			c.lo = s.lo
		}
		if c.hi > s.hi {
			c.hi = s.hi
		}
		if c.lo < c.hi {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	covered, end := int64(0), s.lo
	for _, c := range clipped {
		if c.lo > end {
			end = c.lo
		}
		if c.hi > end {
			covered += c.hi - end
			end = c.hi
		}
	}
	return (s.hi - s.lo) - covered
}

func ival(s span) interval { return interval{s.Start, s.End} }

// sendKey identifies what a replica can see of a request: who sent it to
// whom, its type, and the transaction and phase it carries. Hedged copies
// and control retries share a key and are told apart by time.
type sendKey struct {
	from, to, kind, txn string
	seq                 int
}

// matchHandles gives every dm.handle span its parent: the rpc or notify
// span with the same key that was sent last before the handler started
// and has not been claimed. It returns how many spans stayed unmatched —
// handlers with no sender, and calls that got a reply no handler produced.
func matchHandles(spans []span) (unmatched int) {
	sends := map[sendKey][]int{}
	var handles []int
	for i, s := range spans {
		switch s.Name {
		case "rpc", "notify":
			k := sendKey{s.Node, s.Peer, s.Kind, s.Txn, s.Seq}
			sends[k] = append(sends[k], i)
		case "dm.handle":
			handles = append(handles, i)
		}
	}
	for _, list := range sends {
		sort.Slice(list, func(a, b int) bool { return spans[list[a]].Start < spans[list[b]].Start })
	}
	sort.Slice(handles, func(a, b int) bool { return spans[handles[a]].Start < spans[handles[b]].Start })
	claimed := map[int]bool{}
	for _, h := range handles {
		hs := &spans[h]
		list := sends[sendKey{hs.Peer, hs.Node, hs.Kind, hs.Txn, hs.Seq}]
		best := -1
		for _, i := range list {
			if spans[i].Start > hs.Start {
				break
			}
			if !claimed[i] {
				best = i
			}
		}
		if best < 0 {
			unmatched++
			continue
		}
		claimed[best] = true
		hs.Parent, hs.Root = spans[best].ID, spans[best].Root
	}
	for _, list := range sends {
		for _, i := range list {
			if s := spans[i]; s.Name == "rpc" && !s.Failed && !claimed[i] {
				unmatched++
			}
		}
	}
	return unmatched
}

// attachWAL parents every wal.* span to the dm.handle span on the same
// replica that contains its start, the longest-waiting one when several
// do (group commit flushes for all of them at once).
func attachWAL(spans []span) {
	byDM := map[string][]int{}
	for i, s := range spans {
		if s.Name == "dm.handle" {
			byDM[s.Node] = append(byDM[s.Node], i)
		}
	}
	for _, list := range byDM {
		sort.Slice(list, func(a, b int) bool { return spans[list[a]].Start < spans[list[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if len(s.Name) < 4 || s.Name[:4] != "wal." {
			continue
		}
		for _, h := range byDM[s.Node] {
			hs := spans[h]
			if hs.Start > s.Start {
				break
			}
			if hs.End > s.Start {
				s.Parent, s.Root = hs.ID, hs.Root
				break
			}
		}
	}
}

func us(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

// spanMetrics are the per-layer numbers computed from one traced pass.
type spanMetrics struct {
	txns int

	coordSelfUsPerTxn float64
	dmHandleUsP50     float64
	dmHandleUsPerTxn  float64
	notifiesPerTxn    float64

	rpcUsP50, rpcUsP99 float64
	wireUsP50          float64
	wireBytesPerTxn    float64

	walSyncMsP50      float64
	walWriteBytes     int64
	walSnapshots      int
	walSnapshotMsP50  float64
	unmatched         int
	rpcsPerTxn        float64
	frameEncodeFailed int
}

// analyze links the spans of a traced pass (matchHandles, attachWAL,
// mutating spans in place) and reduces them to per-layer metrics. wire
// says whether the transport encodes frames, i.e. whether wire sizes and
// wire time mean anything.
func analyze(spans []span, wire bool) spanMetrics {
	var m spanMetrics
	m.unmatched = matchHandles(spans)
	attachWAL(spans)

	byID := map[int32]int{}
	for i, s := range spans {
		byID[s.ID] = i
	}
	rpcOf := map[int32][]interval{} // txn span -> its rpc intervals
	walOf := map[int32][]interval{} // dm.handle span -> its wal intervals
	var handleDur, rpcDur, wireDur, syncDur, snapDur []float64
	var rpcs, notifies int
	for _, s := range spans {
		switch s.Name {
		case "rpc":
			rpcs++
			if s.Root >= 0 {
				rpcOf[s.Root] = append(rpcOf[s.Root], ival(s))
			}
			if !s.Failed {
				rpcDur = append(rpcDur, us(s.dur()))
			}
		case "notify":
			notifies++
		case "wal.write", "wal.sync", "wal.snapshot":
			if s.Parent >= 0 {
				walOf[s.Parent] = append(walOf[s.Parent], ival(s))
			}
			switch s.Name {
			case "wal.sync":
				syncDur = append(syncDur, ms(time.Duration(s.dur())))
			case "wal.snapshot":
				m.walSnapshots++
				snapDur = append(snapDur, ms(time.Duration(s.dur())))
			}
			m.walWriteBytes += int64(s.Bytes)
		}
	}
	var coordSelf, handleSelf int64
	for _, s := range spans {
		switch s.Name {
		case "txn":
			if s.Failed {
				continue
			}
			m.txns++
			coordSelf += selfTime(ival(s), rpcOf[s.ID])
		case "dm.handle":
			handleDur = append(handleDur, us(s.dur()))
			handleSelf += selfTime(ival(s), walOf[s.ID])
			if i, ok := byID[s.Parent]; ok && spans[i].Name == "rpc" && !spans[i].Failed {
				wireDur = append(wireDur, us(spans[i].dur()-s.dur()))
			}
		}
	}
	if m.txns == 0 {
		return m
	}
	n := float64(m.txns)
	m.coordSelfUsPerTxn = us(coordSelf) / n
	m.dmHandleUsP50 = percentile(sorted(handleDur), 0.5)
	m.dmHandleUsPerTxn = us(handleSelf) / n
	m.notifiesPerTxn = float64(notifies) / n
	m.rpcsPerTxn = float64(rpcs) / n
	m.walSyncMsP50 = percentile(sorted(syncDur), 0.5)
	m.walSnapshotMsP50 = percentile(sorted(snapDur), 0.5)
	if wire {
		asc := sorted(rpcDur)
		m.rpcUsP50, m.rpcUsP99 = percentile(asc, 0.5), percentile(asc, 0.99)
		m.wireUsP50 = percentile(sorted(wireDur), 0.5)
		bytes := 0
		for _, s := range spans {
			if s.Name != "rpc" && s.Name != "notify" {
				continue
			}
			b, failed := frameBytes(s)
			bytes += b
			m.frameEncodeFailed += failed
		}
		m.wireBytesPerTxn = float64(bytes) / n
	}
	return m
}

// The three frame kinds tcp.DecodeFrame accepts. The constants are
// unexported there; probeFrames fails the run if a round trip through any
// of them stops decoding, so a renumbering cannot silently zero a metric.
const (
	frameCall   = 1
	frameNotify = 2
	frameReply  = 3
)

// frameBytes sizes the frames one rpc or notify span put on the wire: the
// request as the transport would encode it, and the reply if one came.
func frameBytes(s span) (bytes, failed int) {
	req := tcp.Frame{Kind: frameCall, ID: uint64(s.ID) + 1, From: s.Node, Req: s.req}
	if s.Name == "notify" {
		req.Kind, req.ID = frameNotify, 0
	}
	if s.hasDeadline {
		req.Deadline = time.Unix(0, s.End)
	}
	const lengthPrefix = 4 // the transport writes a 4-byte body length before every frame
	b, err := tcp.EncodeFrame(req)
	if err != nil {
		failed++
	}
	bytes += lengthPrefix + len(b)
	if s.resp != nil {
		b, err := tcp.EncodeFrame(tcp.Frame{Kind: frameReply, ID: uint64(s.ID) + 1, Resp: s.resp})
		if err != nil {
			failed++
		}
		bytes += lengthPrefix + len(b)
	}
	return bytes, failed
}
