package cluster

import (
	"encoding/gob"

	"repro/internal/transport/wire"
)

// Wire registration: every protocol request and response type is registered
// exactly once, here, with both codecs that carry it through an interface
// field — gob for the write-ahead log (walRecord) and package wire for the
// TCP transport (frames). A type missing from this table would work
// in-process over the sim backend and then fail the moment it crossed a
// real socket or a log replay, so the table is exhaustive by construction:
// msgs.go types appear here in declaration order, both registrations read
// the one table (no type can have one without the other), and
// TestWireRoundTrip walks them all.
//
// The tag is the type's identity on the wire. Tags are append-only: a new
// type takes the next free number, a retired type's number is never
// reused, and a duplicate panics at start-up.
var wireTypes = []struct {
	tag   uint16
	proto any
}{
	// Requests.
	{1, ReadReq{}},
	{2, WriteReq{}},
	{3, ConfigWriteReq{}},
	{4, ReleaseReq{}},
	{5, CommitSubReq{}},
	{6, AbortReq{}},
	{7, CommitTopReq{}},
	{8, RepairReq{}},
	{9, PingReq{}},
	{10, InspectReq{}},
	{11, RenewLeaseReq{}},
	{12, ResolutionQueryReq{}},
	{13, ResolutionAnswer{}},
	{14, HintReadReq{}},
	{15, HintGrantReq{}},
	{16, HintFenceReq{}},
	{17, ReapReq{}},
	{18, AdoptItemReq{}},
	{19, RetireItemReq{}},
	{20, RingReq{}},
	{21, RingUpdateReq{}},
	{22, PaxosAcceptReq{}},
	{23, PaxosPrepareReq{}},
	{24, PaxosDecisionReq{}},
	{25, PaxosRecoverQuery{}},
	{26, PaxosRecoverPromise{}},
	{27, PaxosRecoverAccept{}},
	{28, PaxosRecoverAccepted{}},
	{29, ResolutionProbeReq{}},
	{30, RebuildPullReq{}},
	// Responses.
	{31, ReadResp{}},
	{32, WriteResp{}},
	{33, Ack{}},
	{34, OverloadedResp{}},
	{35, InspectResp{}},
	{36, HintMissResp{}},
	{37, WrongShardResp{}},
	{38, RingResp{}},
	{39, PaxosAcceptResp{}},
	{40, ResolutionProbeResp{}},
	{41, QuarantinedResp{}},
	{42, RebuildPullResp{}},
}

func init() {
	for _, t := range wireTypes {
		gob.Register(t.proto)
		wire.Register(t.tag, t.proto)
	}
}
