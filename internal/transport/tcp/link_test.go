package tcp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// recordingWriter is a connection that keeps what it was handed and where
// each Write ended.
type recordingWriter struct {
	mu sync.Mutex
	bytes.Buffer
	ends []int // stream offset after each Write
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.Buffer.Write(p)
	w.ends = append(w.ends, w.Buffer.Len())
	return n, err
}

func (w *recordingWriter) Close() error { return nil }

// checkWholeFrames fails unless every Write recorded in ends stopped on a
// frame boundary of stream.
func checkWholeFrames(t *testing.T, stream []byte, ends []int) {
	t.Helper()
	boundary := map[int]bool{}
	for off := 0; off < len(stream); {
		off += 4 + int(binary.BigEndian.Uint32(stream[off:]))
		boundary[off] = true
	}
	for i, end := range ends {
		if !boundary[end] {
			t.Fatalf("write %d of %d ended at offset %d, inside a frame", i+1, len(ends), end)
		}
	}
}

// waitFor polls cond until it holds; the deadline only bounds a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// gatedConn is one end of a net.Pipe whose Write reports that it was entered
// and, once broken, fails without touching the pipe.
type gatedConn struct {
	net.Conn
	entered chan struct{} // one token per Write, never blocking
	broken  atomic.Bool
}

func newGatedConn(c net.Conn) *gatedConn {
	return &gatedConn{Conn: c, entered: make(chan struct{}, 1)}
}

func (g *gatedConn) Write(p []byte) (int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	if g.broken.Load() {
		return 0, errors.New("gatedConn: broken")
	}
	return g.Conn.Write(p)
}

// sendAll has `senders` goroutines queue `each` call frames apiece on fw,
// sender s numbering its frames s*1000, s*1000+1, …; done counts frames
// queued.
func sendAll(fw *frameWriter, senders, each int, blob []byte, done *atomic.Int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f := Frame{Kind: kindCall, From: fmt.Sprint("s", s), Req: shapedMsg{VN: s*1000 + i, Blob: blob}}
				if err := fw.writeFrame(f); err != nil {
					return
				}
				done.Add(1)
			}
		}(s)
	}
	return &wg
}

// readInOrder reads n frames and fails unless each sender's arrive intact
// and in its send order.
func readInOrder(t *testing.T, r io.Reader, n int, blob []byte) {
	t.Helper()
	fr := newFrameReader(r)
	next := map[string]int{}
	for i := 0; i < n; i++ {
		f, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i+1, n, err)
		}
		m := f.Req.(shapedMsg)
		if want := next[f.From]; m.VN%1000 != want {
			t.Fatalf("sender %s: frame %d arrived where %d was due", f.From, m.VN%1000, want)
		}
		next[f.From]++
		if !bytes.Equal(m.Blob, blob) {
			t.Fatalf("sender %s frame %d: body damaged", f.From, m.VN%1000)
		}
	}
}

// TestLinkCoalescesBehindABlockedWrite: frames queued while the writer is
// inside Write leave together in the next one.
func TestLinkCoalescesBehindABlockedWrite(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	g := newGatedConn(near)
	var st linkCounters
	fw := newFrameWriter(g, &st)
	if err := fw.writeFrame(Frame{Kind: kindNotify, From: "s9", Req: shapedMsg{}}); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the writer is in Write, and nobody reads the pipe yet
	const senders, each = 8, 25
	var queued atomic.Int64
	sendAll(fw, senders, each, nil, &queued).Wait()
	if queued.Load() != senders*each {
		t.Fatalf("%d of %d frames queued behind the blocked write", queued.Load(), senders*each)
	}
	readInOrder(t, far, 1+senders*each, nil)
	fw.close()
	if f, w := st.frames.Load(), st.writes.Load(); f != 1+senders*each || w >= f {
		t.Fatalf("Frames = %d, Writes = %d: want %d frames in fewer writes", f, w, 1+senders*each)
	}
}

// TestLinkBoundBlocksSenders: a peer that stops reading stops its callers
// once the buffer is full, and loses none of their frames when it reads
// again.
func TestLinkBoundBlocksSenders(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	fw := newFrameWriter(near, new(linkCounters))
	blob := bytes.Repeat([]byte{0x5A}, 64<<10)
	const senders = 4
	each := 3 * linkBound / len(blob) / senders // three buffers' worth in all
	var queued atomic.Int64
	wg := sendAll(fw, senders, each, blob, &queued)
	full := func() bool {
		fw.mu.Lock()
		defer fw.mu.Unlock()
		return len(fw.buf) >= linkBound
	}
	waitFor(t, "the buffer to fill", full)
	time.Sleep(20 * time.Millisecond) // senders that were going to overrun would have
	fw.mu.Lock()
	held := len(fw.buf)
	fw.mu.Unlock()
	if over := held - linkBound; over > len(blob)+1024 {
		t.Fatalf("buffer holds %d bytes, more than one frame over the bound %d", held, linkBound)
	}
	if q := queued.Load(); q >= int64(senders*each) {
		t.Fatalf("all %d frames were queued with nobody reading", q)
	}
	readInOrder(t, far, senders*each, blob)
	wg.Wait()
	if q := queued.Load(); q != int64(senders*each) {
		t.Fatalf("%d of %d sends completed after the peer read again", q, senders*each)
	}
	fw.close()
}

// TestWriteFailureAfterSendIsErrLost: a link that breaks after send has
// returned fails every call pending on it at once, and the pool redials.
func TestWriteFailureAfterSendIsErrLost(t *testing.T) {
	tr := New()
	defer tr.Close()
	if _, err := tr.Serve("s", echo); err != nil {
		t.Fatal(err)
	}
	cl, _ := tr.Client("c")
	c := cl.(*Client).caller
	// The pooled connection to "s" is a pipe whose far end swallows requests
	// and never answers.
	near, far := net.Pipe()
	defer far.Close()
	go io.Copy(io.Discard, far)
	g := newGatedConn(near)
	c.mu.Lock()
	c.adopt("s", g)
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	call := func() {
		_, err := cl.Call(ctx, "s", echoReq{N: 1})
		errs <- err
	}
	pending := c.calls.Len
	go call()
	waitFor(t, "the first call to be written", func() bool { return tr.Stats().Frames == 1 })
	g.broken.Store(true)
	go call() // queued fine; the Write that carries it fails
	start := time.Now()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, transport.ErrLost) {
			t.Fatalf("call on the broken link gave %v, want ErrLost", err)
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("pending calls took %v to fail: a timeout was burned", took)
	}
	if n := pending(); n != 0 {
		t.Fatalf("%d calls still pending on the dead link", n)
	}
	resp, err := cl.Call(ctx, "s", echoReq{N: 41})
	if err != nil || resp.(echoResp).N != 42 {
		t.Fatalf("call after the loss gave %v, %v: the pool did not redial", resp, err)
	}
}

// TestNotifiesSurviveCloseAndQuiesce: fire-and-forget frames handed to a
// link are delivered by an orderly Close, and handled by the time Quiesce
// returns.
func TestNotifiesSurviveCloseAndQuiesce(t *testing.T) {
	tr := New()
	defer tr.Close()
	var handled atomic.Int64
	if _, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		handled.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	const k = 200
	for round := 0; round < 20; round++ {
		handled.Store(0)
		c, _ := tr.Client("c")
		for i := 0; i < k; i++ {
			c.Notify("s", echoReq{N: i})
		}
		c.Close()
		waitFor(t, "every notify sent before Close", func() bool { return handled.Load() == k })

		c, _ = tr.Client("c")
		c.Notify("s", echoReq{N: round})
		tr.Quiesce()
		if got := handled.Load(); got != k+1 {
			t.Fatalf("round %d: Quiesce returned with the notify unhandled (%d of %d)", round, got, k+1)
		}
		c.Close()
	}
}

// TestNoGoroutineOutlivesItsConnection: a link's writer and reader, on both
// ends, exit with their connection.
func TestNoGoroutineOutlivesItsConnection(t *testing.T) {
	tr := New()
	defer tr.Close()
	if _, err := tr.Serve("s", echo); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		c, _ := tr.Client("c")
		if _, err := c.Call(ctx, "s", echoReq{N: 1}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	waitFor(t, "the goroutines of 100 closed connections to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestOneWritePerFrameAndLargeBodies: a lone frame costs one Write, a Write
// never ends inside a frame however senders interleave, and a body of the
// largest legal size — eight times the buffer bound — round-trips.
func TestOneWritePerFrameAndLargeBodies(t *testing.T) {
	big := shapedFrame()
	m := big.Req.(shapedMsg)
	m.Blob = bytes.Repeat([]byte{0xA5}, MaxFrame-1024) // spans many read chunks
	big.Req = m
	frames := []Frame{shapedFrame(), big, {Kind: kindReply, ID: 1, Resp: echoResp{N: 1}}}
	var w recordingWriter
	var st linkCounters
	fw := newFrameWriter(&w, &st)
	for i, f := range frames {
		if err := fw.writeFrame(f); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the frame to be written", func() bool { return st.frames.Load() == uint64(i+1) })
		if got := st.writes.Load(); got != uint64(i+1) {
			t.Fatalf("%d lone frames took %d writes", i+1, got)
		}
	}
	var queued atomic.Int64
	sendAll(fw, 8, 200, []byte("interleaved"), &queued).Wait()
	fw.close()
	if got, want := st.frames.Load(), uint64(len(frames)+8*200); got != want {
		t.Fatalf("Frames = %d, want %d", got, want)
	}
	if st.bytes.Load() != uint64(w.Len()) {
		t.Fatalf("Bytes = %d, the connection got %d", st.bytes.Load(), w.Len())
	}
	checkWholeFrames(t, w.Bytes(), w.ends)

	fr := newFrameReader(&w.Buffer)
	for i, want := range frames {
		got, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got.Deadline = want.Deadline
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d did not survive the stream", i)
		}
	}
	if cap(fr.body) > keepBuf {
		t.Fatalf("reader kept a %d-byte buffer after one large frame", cap(fr.body))
	}
	readInOrder(t, fr.br, 8*200, []byte("interleaved"))
}

// TestNotifyNeverWaitsOnADial: a notify to a peer with no pooled link returns
// while the link is still dialing. Once the dial completes, what was queued
// behind it is delivered in order; if the dial fails, it is counted dropped.
func TestNotifyNeverWaitsOnADial(t *testing.T) {
	const goneAddr = "127.0.0.1:1"
	tr := New(WithPeers(map[string]string{"gone": goneAddr}))
	defer tr.Close()
	got := make(chan int, 4)
	if _, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		got <- req.(echoReq).N
	}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	dial := tr.dial
	tr.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		<-release
		if addr == goneAddr {
			return nil, errors.New("connection refused")
		}
		return dial(ctx, addr)
	}
	c, _ := tr.Client("c")
	defer c.Close()
	for _, to := range []string{"s", "gone"} {
		start := time.Now()
		c.Notify(to, echoReq{N: 1})
		// The dial is held until release closes, so any return at all proves
		// the notify did not wait on it; the bound only catches a hang.
		if took := time.Since(start); took >= 500*time.Millisecond {
			t.Fatalf("a notify to dialing %q took %v", to, took)
		}
		c.Notify(to, echoReq{N: 2})
	}
	select {
	case n := <-got:
		t.Fatalf("notify %d delivered before its dial completed", n)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for want := 1; want <= 2; want++ {
		select {
		case n := <-got:
			if n != want {
				t.Fatalf("notify %d arrived where %d was due", n, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("notify %d never delivered after the dial completed", want)
		}
	}
	waitFor(t, "the failed dial's notifies to be counted", func() bool { return tr.Stats().DroppedNotifies == 2 })
}

// TestNotifyWaitsForRoomOnAFullLink: a notify on a live link whose peer has
// stopped reading waits for room once the buffer is full, as a call does —
// it may be a lock's only release — and every one of them arrives, in order,
// when the peer reads again. None is counted dropped.
func TestNotifyWaitsForRoomOnAFullLink(t *testing.T) {
	tr := New()
	defer tr.Close()
	cl, _ := tr.Client("c")
	c := cl.(*Client).caller
	near, far := net.Pipe()
	defer far.Close()
	c.mu.Lock()
	cc := c.adopt("s", near)
	c.mu.Unlock()

	blob := bytes.Repeat([]byte{0x5A}, 64<<10)
	n := 3 * linkBound / len(blob) // the writer holds one buffer's worth in Write, the link one more
	var queued atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			cl.Notify("s", shapedMsg{VN: i, Blob: blob})
			queued.Add(1)
		}
	}()
	waitFor(t, "the buffer to fill", func() bool {
		cc.fw.mu.Lock()
		defer cc.fw.mu.Unlock()
		return len(cc.fw.buf) >= linkBound
	})
	time.Sleep(20 * time.Millisecond) // a notify that was going to be dropped would have been
	select {
	case <-done:
		t.Fatalf("all %d notifies returned with nobody reading", n)
	default:
	}
	readInOrder(t, far, n, blob)
	<-done
	if q := queued.Load(); q != int64(n) {
		t.Fatalf("%d of %d notifies returned after the peer read again", q, n)
	}
	if d := tr.Stats().DroppedNotifies; d != 0 {
		t.Fatalf("%d notifies counted dropped on a live link", d)
	}
}

// TestCloseWaitsOneGraceForDialingLinks: closing an endpoint whose links are
// all still dialing unreachable peers waits closeGrace once, not once per
// link, and counts what was queued on them dropped.
func TestCloseWaitsOneGraceForDialingLinks(t *testing.T) {
	peers := map[string]string{"a": "127.0.0.1:1", "b": "127.0.0.1:2", "c": "127.0.0.1:3"}
	tr := New(WithPeers(peers), WithDialTimeout(time.Minute))
	defer tr.Close()
	tr.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		<-ctx.Done() // unreachable: only the close deadline ends it
		return nil, ctx.Err()
	}
	cl, _ := tr.Client("x")
	for to := range peers {
		cl.Notify(to, echoReq{N: 1})
	}
	start := time.Now()
	cl.Close()
	if took := time.Since(start); took >= 2*closeGrace {
		t.Fatalf("Close over %d dialing links took %v, want about one closeGrace (%v)", len(peers), took, closeGrace)
	}
	if d := tr.Stats().DroppedNotifies; d != uint64(len(peers)) {
		t.Fatalf("%d notifies counted dropped, want the %d queued on the abandoned dials", d, len(peers))
	}
}
