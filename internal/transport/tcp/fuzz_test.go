package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// shapedMsg has the shapes of the cluster's messages — a commit record's
// slice and map, a read reply's value and quorum configuration — without
// importing them (this package must not know the protocol above it).
type shapedMsg struct {
	Txn   string
	Item  string
	VN    int
	OK    bool
	Val   any
	Subs  []string
	Final map[string]int
	Cfg   struct{ R, W []map[string]bool }
	Blob  []byte
}

func shapedFrame() Frame {
	m := shapedMsg{
		Txn: "c1.t42/0", Item: "k512", VN: 41, OK: true, Val: "sixteen bytes ok",
		Subs: []string{"c1.t42/0", "c1.t42/1"}, Final: map[string]int{"k512": 42, "k77": 9},
		Blob: []byte{1, 2, 3},
	}
	m.Cfg.R = []map[string]bool{{"dm0": true, "dm1": true}, {"dm1": true, "dm2": true}}
	m.Cfg.W = []map[string]bool{{"dm0": true, "dm2": true}}
	return Frame{Kind: kindCall, ID: 7, From: "client-c1-1", Req: m, Deadline: time.Unix(1700000000, 0)}
}

// hugeCountBody is a 20-byte body whose shapedMsg announces a slice of 2³¹
// strings where Subs should start.
func hugeCountBody() []byte {
	b := []byte{wireVersion, kindCall, 1, 0, 0} // ID 1, no sender, no deadline
	b = binary.AppendUvarint(b, 60003)          // shapedMsg's tag
	b = append(b, 0, 0, 0, 0, 0)                // Txn "", Item "", VN 0, OK false, Val nil
	b = binary.AppendUvarint(b, 1<<31)          // len(Subs)
	return append(b, make([]byte, 20-len(b))...)
}

// stream is what a link puts on its connection for frames.
func stream(t testing.TB, frames ...Frame) []byte {
	var w recordingWriter
	fw := newFrameWriter(&w, new(linkCounters))
	for _, fr := range frames {
		if err := fw.writeFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	fw.close()
	return w.Bytes()
}

// FuzzEnvelope holds the frame codec to its two contracts: a well-formed
// frame round-trips exactly, and a malformed byte stream — truncated,
// bit-flipped, over-length, or adversarial — produces a typed *DecodeError
// (or a clean io.EOF at a frame boundary), never a panic.
func FuzzEnvelope(f *testing.F) {
	// Seed with real encoded frames of each kind…
	seedFrames := []Frame{
		{Kind: kindCall, ID: 1, From: "client-a", Req: echoReq{N: 7}, Deadline: time.Unix(1700000000, 0).UTC()},
		{Kind: kindNotify, From: "dm0", Req: echoReq{N: -1}},
		{Kind: kindReply, ID: 9, Resp: echoResp{N: 42}},
		shapedFrame(),
	}
	for _, fr := range seedFrames {
		body, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		// …and their length-prefixed stream forms.
		f.Add(stream(f, fr))
	}
	// …and all of them back to back, as one coalesced Write carries them.
	f.Add(stream(f, seedFrames...))
	// A cluster-shaped frame cut at every byte offset.
	shaped, err := EncodeFrame(shapedFrame())
	if err != nil {
		f.Fatal(err)
	}
	for cut := range shaped {
		f.Add(shaped[:cut])
	}
	// Adversarial seeds: an over-limit length announcement, a lying header,
	// a count no body could hold.
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, MaxFrame+1)
	f.Add(huge)
	f.Add([]byte{0, 0, 0, 200, 1, 2, 3}) // announces 200 bytes, ships 3
	f.Add([]byte{})
	f.Add(hugeCountBody())

	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeFrame must return a frame or a *DecodeError — no panics, no
		// raw codec errors.
		if fr, err := DecodeFrame(data); err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("DecodeFrame error is %T, want *DecodeError: %v", err, err)
			}
		} else {
			// A frame that decodes re-encodes, and from then on its bytes
			// are a fixed point: one value, one encoding.
			body, err := EncodeFrame(fr)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			fr2, err := DecodeFrame(body)
			if err != nil {
				t.Fatalf("re-decode of re-encoded frame failed: %v", err)
			}
			if fr2.Kind != fr.Kind || fr2.ID != fr.ID || fr2.From != fr.From || !fr2.Deadline.Equal(fr.Deadline) {
				t.Fatalf("round trip changed envelope: %+v vs %+v", fr, fr2)
			}
			if body2, err := EncodeFrame(fr2); err != nil || !bytes.Equal(body, body2) {
				t.Fatalf("re-encoding is not byte-stable (%v):\n %x\n %x", err, body, body2)
			}
		}

		// readFrame over the same bytes as a stream: frame, *DecodeError,
		// or io.EOF — never a panic, never a raw error.
		if _, err := newFrameReader(bytes.NewReader(data)).readFrame(); err != nil {
			var de *DecodeError
			if !errors.As(err, &de) && !errors.Is(err, io.EOF) {
				t.Fatalf("readFrame error is %T, want *DecodeError or io.EOF: %v", err, err)
			}
		}
	})
}

// TestEnvelopeRoundTrip is the deterministic companion of FuzzEnvelope:
// every frame kind survives the stream codec bit-for-bit in meaning.
func TestEnvelopeRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: kindCall, ID: 3, From: "c", Req: echoReq{N: 5}, Deadline: time.Now().Add(time.Second).Truncate(0)},
		{Kind: kindNotify, From: "dm1", Req: echoReq{N: 0}},
		{Kind: kindReply, ID: 3, Resp: echoResp{N: 6}},
		{Kind: kindReply, ID: 4}, // a handler may answer nil
		shapedFrame(),
	}
	fr := newFrameReader(bytes.NewReader(stream(t, frames...)))
	for i, want := range frames {
		got, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !got.Deadline.Equal(want.Deadline) {
			t.Fatalf("frame %d deadline: %v != %v", i, got.Deadline, want.Deadline)
		}
		got.Deadline = want.Deadline // same instant, another Location
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := fr.readFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end gave %v, want io.EOF", err)
	}
}

// TestMalformedFramesFailTyped pins the refusals FuzzEnvelope's seeds aim
// at, so they are checked on every plain `go test` too.
func TestMalformedFramesFailTyped(t *testing.T) {
	good, err := EncodeFrame(shapedFrame())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(i int, c byte) []byte {
		b := bytes.Clone(good)
		b[i] = c
		return b
	}
	cases := map[string][]byte{
		"unknown version":  mutate(0, wireVersion+1),
		"unknown kind":     mutate(1, 9),
		"trailing bytes":   append(bytes.Clone(good), 0),
		"huge slice count": hugeCountBody(),
		"unknown type tag": {wireVersion, kindReply, 1, 0, 0, 0, 0xff, 0xff, 0x7f},
		"missing Resp":     good[:len(good)-1],
	}
	for cut := range good {
		cases[fmt.Sprintf("cut at %d", cut)] = good[:cut]
	}
	for name, body := range cases {
		var de *DecodeError
		if _, err := DecodeFrame(body); !errors.As(err, &de) {
			t.Errorf("%s: DecodeFrame gave %v, want *DecodeError", name, err)
		}
	}
	// Unknown value kind: the byte after Txn, Item, VN and OK is Val's.
	idx := bytes.Index(good, []byte("k512")) + len("k512") + 2
	var de *DecodeError
	if _, err := DecodeFrame(mutate(idx, 0x7f)); !errors.As(err, &de) {
		t.Errorf("unknown value kind: DecodeFrame gave %v, want *DecodeError", err)
	}
}

// TestAnnouncedLengthIsNotTrusted: a header announcing the largest legal
// body, followed by three bytes, must not make the reader allocate the
// announcement.
func TestAnnouncedLengthIsNotTrusted(t *testing.T) {
	in := binary.BigEndian.AppendUint32(nil, MaxFrame)
	in = append(in, 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := newFrameReader(bytes.NewReader(in)).readFrame()
	runtime.ReadMemStats(&after)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("short body gave %v, want *DecodeError", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reader allocated %d bytes for a 3-byte body announced as %d", grew, MaxFrame)
	}
}
