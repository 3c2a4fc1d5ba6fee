package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport/wire"
)

// The wire format: every message is one frame, a 4-byte big-endian body
// length followed by the body —
//
//	version   1 byte, wireVersion
//	kind      1 byte: call, notify or reply
//	ID        uvarint, 0 on a notify
//	From      uvarint length + bytes
//	Deadline  uvarint unix nanoseconds, 0 = none
//	Req       package wire's type tag and positional fields; tag 0 = nil
//	Resp      the same
//
// and nothing after it. Frames are self-contained: a reader can join, drop
// or replay a stream at any frame boundary, and a corrupted frame poisons
// nothing beyond itself. Nothing in a frame describes its own layout — the
// version byte and the type tag are the whole negotiation — so every
// process of a cluster runs one build, and a payload type must have been
// registered with package wire by the protocol layer (internal/cluster does
// this in wire.go, for its frames and its write-ahead log alike).

// wireVersion is the first byte of every frame body. A change to the
// header, to package wire's encodings, or to the meaning of a registered
// tag bumps it; a peer speaking another version is refused, frame by frame.
const wireVersion = 7

// WireVersion is the version byte this build speaks. The protocol layer
// pins the fingerprint of its registered layouts to it (package wire's
// Fingerprint), so a layout that changes without a bump fails its tests.
const WireVersion = wireVersion

// Frame kinds.
const (
	// kindCall is a request that expects exactly one kindReply with the
	// same ID on the same connection.
	kindCall = 1 + iota
	// kindNotify is fire-and-forget: ID 0, never answered.
	kindNotify
	// kindReply answers one kindCall.
	kindReply
)

// MaxFrame bounds one frame's body. A peer announcing a larger body is
// malformed (or malicious) and fails decoding before any allocation.
const MaxFrame = 8 << 20

// Frame is one wire message. A call or notify carries Req, a reply Resp;
// the field a kind does not use is nil and costs one byte.
type Frame struct {
	Kind     int
	ID       uint64
	From     string
	Req      any
	Resp     any
	Deadline time.Time
}

// DecodeError is the typed failure for any malformed inbound frame: a
// corrupt length prefix, an over-limit announcement, a truncated body, an
// unknown version, kind or type tag, a count the body cannot hold, or bytes
// after the payload. It is a decoding verdict, never a panic — the fuzz
// harness holds the codec to that.
type DecodeError struct {
	Reason string
	Err    error // underlying cause, when one exists
}

func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("tcp: bad frame: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("tcp: bad frame: %s", e.Reason)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// appendFrame appends f's body to dst.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	switch f.Kind {
	case kindCall, kindNotify, kindReply:
	default:
		return dst, fmt.Errorf("tcp: encode frame: unknown frame kind %d", f.Kind)
	}
	dst = append(dst, wireVersion, byte(f.Kind))
	dst = binary.AppendUvarint(dst, f.ID)
	dst = binary.AppendUvarint(dst, uint64(len(f.From)))
	dst = append(dst, f.From...)
	var deadline uint64
	if !f.Deadline.IsZero() {
		deadline = uint64(f.Deadline.UnixNano())
	}
	dst = binary.AppendUvarint(dst, deadline)
	dst, err := wire.Append(dst, f.Req)
	if err == nil {
		dst, err = wire.Append(dst, f.Resp)
	}
	if err != nil {
		return dst[:start], fmt.Errorf("tcp: encode frame: %w", err)
	}
	if len(dst)-start > MaxFrame {
		return dst[:start], fmt.Errorf("tcp: encode frame: body %d exceeds MaxFrame", len(dst)-start)
	}
	return dst, nil
}

// EncodeFrame serializes one frame body (no length prefix). It fails only
// on unencodable payloads — a concrete type nobody registered — which is a
// programming error surfaced to the caller, not hidden in transit.
func EncodeFrame(f Frame) ([]byte, error) {
	bp := getBuf()
	defer putBuf(bp)
	buf, err := appendFrame((*bp)[:0], f)
	*bp = buf
	if err != nil {
		return nil, err
	}
	return bytes.Clone(buf), nil
}

// DecodeFrame reverses EncodeFrame. Every failure is a *DecodeError. The
// frame shares no memory with b.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) > MaxFrame {
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("body %d exceeds MaxFrame", len(b))}
	}
	if len(b) < 2 {
		return Frame{}, &DecodeError{Reason: "short header"}
	}
	if b[0] != wireVersion {
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("wire version %d, this build speaks %d", b[0], wireVersion)}
	}
	f := Frame{Kind: int(b[1])}
	switch f.Kind {
	case kindCall, kindNotify, kindReply:
	default:
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("unknown frame kind %d", f.Kind)}
	}
	b = b[2:]
	uvarint := func() (uint64, bool) {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return x, true
	}
	id, ok1 := uvarint()
	fromLen, ok2 := uvarint()
	if !ok1 || !ok2 || fromLen > uint64(len(b)) {
		return Frame{}, &DecodeError{Reason: "short header"}
	}
	f.ID, f.From = id, string(b[:fromLen])
	b = b[fromLen:]
	deadline, ok := uvarint()
	if !ok {
		return Frame{}, &DecodeError{Reason: "short header"}
	}
	if deadline != 0 {
		f.Deadline = time.Unix(0, int64(deadline))
	}
	var err error
	if f.Req, b, err = wire.Decode(b); err == nil {
		f.Resp, b, err = wire.Decode(b)
	}
	if err != nil {
		return Frame{}, &DecodeError{Reason: "payload", Err: err}
	}
	if len(b) != 0 {
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("%d bytes after the payloads", len(b))}
	}
	return f, nil
}

// errUnencodable marks a writeFrame failure that happened before any byte
// was written: the frame, not the connection, is at fault.
var errUnencodable = errors.New("tcp: unencodable frame")

// frameBufs recycles encode buffers between frames. Buffers that grew past
// keepBuf for one large frame are not kept.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const keepBuf = 64 << 10

func getBuf() *[]byte { return frameBufs.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= keepBuf {
		frameBufs.Put(bp)
	}
}

// linkBound is how many queued bytes make a link's buffer full: a sender that
// finds it at or over the bound waits for the writer to take it, as it used
// to wait inside Write, so a peer that stops reading still stops its senders
// (TCP's back-pressure, one buffer further up). A notify waits like a call: it
// may be the only release a lock will get, and a busy peer is no reason to
// lose it. A frame is queued whole, so the buffer can exceed the bound by one
// frame.
const linkBound = 1 << 20

// errLinkClosed fails a frame sent on a link that was closed in good order.
var errLinkClosed = errors.New("tcp: link closed")

// linkCounters count what the links of one transport handed to their
// sockets: Frames/Writes is the coalescing ratio. dropped counts the notifies
// that never reached a socket: refused by a broken or closed link, or queued
// on one whose Write — or dial — then failed.
type linkCounters struct {
	frames, writes, bytes, dropped atomic.Uint64
}

// frameWriter is the write side of one connection, the only routine that
// writes to it. A sender encodes its frame into the link's buffer and
// returns; the link's goroutine hands everything queued to the connection
// in one Write. "Sent" therefore means encoded and queued in order: what
// happens to the bytes afterwards is the connection's fate, reported the
// way a peer's death is — the first failed Write is sticky, closes the
// connection (which the read side sees at once) and fails every later
// writeFrame.
type frameWriter struct {
	c  io.WriteCloser
	st *linkCounters

	mu       sync.Mutex
	work     sync.Cond // the writer waits here for a frame
	room     sync.Cond // senders wait here while the buffer is full
	buf      []byte    // whole frames, length prefixes included
	frames   int       // how many
	notifies int       // how many of them are notifies
	spare    []byte    // the buffer the last Write used, for the next swap
	err      error     // the first Write failure
	closed   bool
	done     chan struct{} // closed when the writer goroutine has exited
}

// newFrameWriter starts the writer goroutine of one connection; close reaps
// it.
func newFrameWriter(c io.WriteCloser, st *linkCounters) *frameWriter {
	fw := &frameWriter{c: c, st: st, done: make(chan struct{})}
	fw.work.L, fw.room.L = &fw.mu, &fw.mu
	go fw.run()
	return fw
}

// writeFrame encodes f, length prefix and body, behind the frames already
// queued, waiting for room while the link is full. An error wrapping
// errUnencodable means the frame was refused and the link is as it was; any
// other is the connection's.
func (fw *frameWriter) writeFrame(f Frame) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for fw.err == nil && !fw.closed && len(fw.buf) >= linkBound {
		fw.room.Wait()
	}
	if fw.err != nil {
		return fw.err
	}
	if fw.closed {
		return errLinkClosed
	}
	start := len(fw.buf)
	buf, err := appendFrame(append(fw.buf, 0, 0, 0, 0), f)
	if err != nil {
		fw.buf = buf[:start]
		return fmt.Errorf("%w: %w", errUnencodable, err)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	fw.buf = buf
	fw.frames++
	if f.Kind == kindNotify {
		fw.notifies++
	}
	if start == 0 {
		fw.work.Signal()
	}
	return nil
}

// run is the writer goroutine. Woken by the first frame of an empty buffer,
// it yields once, so that the goroutines runnable beside it — the other
// callers of this scheduler turn, a handler about to queue the next reply —
// get their frames in as well, then writes all of it at once, and again
// while more arrived during the Write. There is no timer: an idle link
// sends a lone frame as soon as the scheduler comes back to it.
func (fw *frameWriter) run() {
	defer close(fw.done)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for {
		for len(fw.buf) == 0 {
			if fw.closed {
				return
			}
			fw.work.Wait()
		}
		fw.mu.Unlock()
		runtime.Gosched()
		fw.mu.Lock()
		for len(fw.buf) > 0 {
			out, n, notifies := fw.buf, fw.frames, fw.notifies
			fw.buf, fw.frames, fw.notifies, fw.spare = fw.spare[:0], 0, 0, nil
			fw.room.Broadcast()
			fw.mu.Unlock()
			_, err := fw.c.Write(out)
			if err != nil {
				fw.c.Close()
				fw.mu.Lock()
				fw.st.dropped.Add(uint64(notifies + fw.notifies))
				fw.err, fw.buf, fw.frames, fw.notifies = err, nil, 0, 0
				fw.room.Broadcast()
				return
			}
			fw.mu.Lock()
			fw.st.frames.Add(uint64(n))
			fw.st.writes.Add(1)
			fw.st.bytes.Add(uint64(len(out)))
			if cap(out) <= keepBuf {
				fw.spare = out
			}
		}
	}
}

// close refuses further frames, lets the writer hand what is queued to the
// connection, and returns when its goroutine has exited. It does not close
// the connection: an owner that wants the queue dropped closes the
// connection first, and one that wants it delivered closes it after.
func (fw *frameWriter) close() {
	fw.mu.Lock()
	fw.closed = true
	fw.work.Signal()
	fw.room.Broadcast()
	fw.mu.Unlock()
	<-fw.done
}

// frameReader reads frames off one connection through a buffered reader,
// so a run of small frames costs one read, into a body buffer it reuses.
type frameReader struct {
	br   *bufio.Reader
	body []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r)}
}

// readFrame reads one length-prefixed frame. io.EOF at a frame boundary is
// returned as-is (a clean connection close); everything else malformed is
// a *DecodeError.
func (fr *frameReader) readFrame() (Frame, error) {
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if len(hdr) == 0 && errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, &DecodeError{Reason: "short header", Err: err}
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("announced body %d exceeds MaxFrame", n)}
	}
	fr.br.Discard(4) // cannot fail: Peek just buffered them
	// The announced length is only a claim: the buffer grows as bytes
	// actually arrive, a chunk at a time.
	body := fr.body[:0]
	for len(body) < n {
		chunk := min(n-len(body), keepBuf)
		body = slices.Grow(body, chunk)[:len(body)+chunk]
		if _, err := io.ReadFull(fr.br, body[len(body)-chunk:]); err != nil {
			return Frame{}, &DecodeError{Reason: "short body", Err: err}
		}
	}
	if cap(body) <= keepBuf {
		fr.body = body
	}
	return DecodeFrame(body)
}
