package sim

import (
	"time"

	"repro/internal/transport"
)

// Overload admission control is transport-neutral machinery: the bounded
// priority queue itself lives in internal/transport (transport.Queue), so
// the sim and TCP backends share one implementation and their shed counts,
// displacement order and expiry semantics cannot drift. sim re-exports the
// configuration types and wires the queue into its Node.

// Priority is a request's admission class at an overload-protected node.
type Priority = transport.Priority

const (
	// PrioRead is fresh read traffic: first to be shed under pressure.
	PrioRead = transport.PrioRead
	// PrioWrite is write-intent traffic: may displace a queued read.
	PrioWrite = transport.PrioWrite
	// PrioControl is must-finish traffic: always admitted, served first.
	PrioControl = transport.PrioControl
)

// AdmissionConfig bounds and prioritizes a node's service queue; see
// transport.AdmissionConfig.
type AdmissionConfig = transport.AdmissionConfig

// OverloadStats are one node's admission counters.
type OverloadStats = transport.OverloadStats

// Overload returns the node's admission counters. Zero for nodes without
// an admission config.
func (n *Node) Overload() OverloadStats {
	if n.adm == nil {
		return OverloadStats{}
	}
	return n.adm.Stats()
}

// HoldService pauses the node's service goroutine: delivered requests keep
// being admitted (or shed) but none are served until ResumeService. A
// harness device — deterministic overload campaigns hold a replica, offer
// a seeded burst against the bounded queue, and resume, so the shed and
// expiry counts are a pure function of the burst. No-op without admission.
func (n *Node) HoldService() {
	if n.adm != nil {
		n.adm.Hold()
	}
}

// ResumeService undoes HoldService.
func (n *Node) ResumeService() {
	if n.adm != nil {
		n.adm.Resume()
	}
}

// WaitServiceIdle blocks until every request the network has delivered to
// the node so far was admitted (or shed), the admission queue is empty and
// no request is being served. The first part matters after a
// Network.Quiesce, which only promises delivery into the inbox: a request
// the loop has not offered yet (a duplicated copy nobody waits for, say)
// would otherwise take its queue slot at some later, unseeded moment.
// Callers must not hold the service (ResumeService first). No-op without
// admission.
func (n *Node) WaitServiceIdle() {
	if n.adm == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case n.drain <- ack:
		<-ack
	case <-n.done: // stopped: Shutdown drained the inbox itself
	}
	n.adm.WaitIdle()
}

// Inject offers a request straight to the node's admission queue, as if it
// had arrived from `from` with the given deadline, bypassing the network.
// Returns whether the request was admitted. A harness device for seeded
// overload bursts: no lanes, no drops, no scheduler — admission's verdict
// depends only on the queue state the harness controls. Requests injected
// this way are fire-and-forget (no reply is sent). No-op (false) without
// admission.
func (n *Node) Inject(from string, req any, deadline time.Time) bool {
	if n.adm == nil {
		return false
	}
	return n.adm.Offer(transport.Queued{From: from, ID: 0, Req: req, Deadline: deadline})
}
