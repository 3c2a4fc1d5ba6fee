package cluster

import (
	"encoding/gob"
	"reflect"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// Wire registration: every protocol request and response type is registered
// exactly once, here, with package wire, the one codec of both the TCP
// transport's frames and the write-ahead log's records (durability.go), and
// with gob, which carries a protocol value stored inside an item's `any`.
// A type missing from this table would work in-process over the sim backend
// and then fail the moment it crossed a real socket or a log, so the table
// is exhaustive by construction: msgs.go types appear here in declaration
// order, both registrations read the one table, and TestWireRoundTrip walks
// them all.
//
// The tag is the type's identity on the wire. Tags are append-only: a new
// type takes the next free number, a retired type's number is never
// reused, and a duplicate panics at start-up.
//
// The third column is a request's admission class at an overloaded DM, and
// the only place one is written: the rows are positional, so a request
// cannot be registered without one. Control traffic — everything that
// finishes transactions and frees locks — must always get through: an
// overloaded replica that sheds a commit, a release, a lease renewal or a
// resolver's probe strands locks the whole cluster waits on. The Paxos
// Commit rounds, a decision and a rebuild pull are control for
// the same reason: each stands between a lock holder and its resolution,
// and shedding one stalls it exactly like a shed renewal would.
// Write-intent traffic outranks fresh reads because writers usually hold
// locks elsewhere already. Everything else (reads, pings, inspections,
// migration and ring upkeep) is the bulk that admission exists to bound.
var wireTypes = []struct {
	tag   uint16
	proto any
	prio  transport.Priority
}{
	// Requests.
	{1, ReadReq{}, transport.PrioRead},
	{2, WriteReq{}, transport.PrioWrite},
	{3, ConfigWriteReq{}, transport.PrioWrite},
	{4, ReleaseReq{}, transport.PrioControl},
	// 5 is retired (it was CommitSubReq: a subtransaction's commit is no
	// longer a message).
	{6, AbortReq{}, transport.PrioControl},
	{7, CommitTopReq{}, transport.PrioControl},
	// 8 is retired (it was RepairReq, the push of a newer committed copy to
	// a stale one: read repair and the anti-entropy sweeper are gone).
	{9, PingReq{}, transport.PrioRead},
	{10, InspectReq{}, transport.PrioRead},
	{11, RenewLeaseReq{}, transport.PrioControl},
	// 12 and 13 are retired (they were ResolutionQueryReq and
	// ResolutionAnswer, the replica-to-replica inquiry: the blocked client
	// asks with ResolutionProbeReq instead).
	// 14–16 are retired (they were the freshness-hint read lane's read,
	// grant and fence requests; the lane is gone, DESIGN.md §9).
	// 17 is retired (it was ReapReq, which DecisionReq absorbed).
	{18, AdoptItemReq{}, transport.PrioRead},
	{19, RetireItemReq{}, transport.PrioRead},
	{20, RingReq{}, transport.PrioRead},
	{21, RingUpdateReq{}, transport.PrioRead},
	{22, PaxosAcceptReq{}, transport.PrioControl},
	{23, PaxosPrepareReq{}, transport.PrioControl},
	{24, DecisionReq{}, transport.PrioControl},
	// 25–28 are retired (they were PaxosRecoverQuery, PaxosRecoverPromise,
	// PaxosRecoverAccept and PaxosRecoverAccepted, the replica-side proposer's
	// fire-and-forget wrappers of tags 23 and 22).
	{29, ResolutionProbeReq{}, transport.PrioControl},
	{30, RebuildPullReq{}, transport.PrioControl},
	// Responses.
	{31, ReadResp{}, notRequest},
	{32, WriteResp{}, notRequest},
	{33, Ack{}, notRequest},
	{34, OverloadedResp{}, notRequest},
	{35, InspectResp{}, notRequest},
	// 36 is retired (it was the freshness-hint lane's refusal of a read).
	{37, WrongShardResp{}, notRequest},
	{38, RingResp{}, notRequest},
	{39, PaxosAcceptResp{}, notRequest},
	{40, ResolutionProbeResp{}, notRequest},
	{41, QuarantinedResp{}, notRequest},
	{42, RebuildPullResp{}, notRequest},
	{43, PaxosPrepareResp{}, notRequest},
}

// snapshotTag is the tag of dmState, the hard state a log snapshot holds.
// No message carries it: it is registered so the log and the network share
// one codec, and it takes its number from the same append-only sequence.
const snapshotTag = 44

// notRequest fills the admission column of a response row: a DM never
// queues one.
const notRequest transport.Priority = -1

// admitClass is the admission column of wireTypes, by request type.
var admitClass = map[reflect.Type]transport.Priority{}

func init() {
	for _, t := range wireTypes {
		gob.Register(t.proto)
		wire.Register(t.tag, t.proto)
		if t.prio != notRequest {
			admitClass[reflect.TypeOf(t.proto)] = t.prio
		}
	}
	wire.Register(snapshotTag, dmState{})
}

// classifyRequest maps a wire request to its admission priority at a DM: a
// lookup of the wireTypes table. (Anything else a harness injects queues as
// bulk.)
func classifyRequest(req any) transport.Priority {
	return admitClass[reflect.TypeOf(req)]
}
