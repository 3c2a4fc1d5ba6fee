package tcp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/wire"
)

type echoReq struct{ N int }
type echoResp struct{ N int }

// unregistered is a payload type package wire has never heard of.
type unregistered struct{ N int }

// Test tags sit far above the protocol's (internal/cluster counts up from 1).
func init() {
	wire.Register(60001, echoReq{})
	wire.Register(60002, echoResp{})
	wire.Register(60003, shapedMsg{})
}

func echo(from string, req any, reply func(any)) {
	reply(echoResp{N: req.(echoReq).N + 1})
}

func TestCallReply(t *testing.T) {
	tr := New()
	defer tr.Close()
	if _, err := tr.Serve("s", echo); err != nil {
		t.Fatal(err)
	}
	c, err := tr.Client("c")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		resp, err := c.Call(ctx, "s", echoReq{N: i})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(echoResp).N; got != i+1 {
			t.Fatalf("call %d answered %d", i, got)
		}
	}
}

func TestConcurrentCallsMatchReplies(t *testing.T) {
	tr := New()
	defer tr.Close()
	if _, err := tr.Serve("s", echo); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		go func(n int) {
			resp, err := c.Call(ctx, "s", echoReq{N: n})
			if err != nil {
				errs <- err
				return
			}
			if resp.(echoResp).N != n+1 {
				errs <- errors.New("reply routed to wrong caller")
				return
			}
			errs <- nil
		}(g * 100)
	}
	for g := 0; g < 32; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownPeerFailsTyped(t *testing.T) {
	tr := New()
	defer tr.Close()
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Call(ctx, "nobody", echoReq{}); err == nil {
		t.Fatal("call to unknown peer succeeded")
	}
}

func TestDeadPeerIsErrLost(t *testing.T) {
	tr := New()
	defer tr.Close()
	srv, err := tr.Serve("s", echo)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // address stays resolvable; dial is refused
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = c.Call(ctx, "s", echoReq{})
	if !errors.Is(err, transport.ErrLost) {
		t.Fatalf("dead peer gave %v, want ErrLost", err)
	}
}

func TestMidCallConnectionLossIsErrLost(t *testing.T) {
	tr := New()
	defer tr.Close()
	gate := make(chan struct{})
	srv, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		close(gate) // request arrived; never reply
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "s", echoReq{})
		done <- err
	}()
	<-gate
	srv.Close() // severs the connection under the pending call
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrLost) {
			t.Fatalf("severed call gave %v, want ErrLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call did not fail on connection loss")
	}
}

func TestContextExpiryIsErrTimeout(t *testing.T) {
	tr := New()
	defer tr.Close()
	if _, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		// Never reply; the connection stays healthy.
	}); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, "s", echoReq{})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("expired call gave %v, want ErrTimeout", err)
	}
}

// TestDeadlinePropagatesOnWire proves a Call's context deadline rides the
// frame: a request held in an admission queue past its caller's deadline is
// discarded expired-on-arrival at dequeue — which can only happen when the
// receiver knows the deadline.
func TestDeadlinePropagatesOnWire(t *testing.T) {
	tr := New()
	defer tr.Close()
	srv, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		reply(echoResp{})
	}, transport.WithAdmission(transport.AdmissionConfig{Capacity: 8}))
	if err != nil {
		t.Fatal(err)
	}
	oh := srv.(transport.OverloadHarness)
	oh.HoldService()
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "s", echoReq{}); !errors.Is(err, transport.ErrTimeout) {
		// The held queue cannot answer before the deadline; the caller
		// times out locally while the request waits with its wire deadline.
		t.Fatalf("held call gave %v, want ErrTimeout", err)
	}
	// The offer happens on the reader goroutine; wait for it to land, then
	// let the wire deadline lapse before resuming service.
	deadlineAdmit := time.Now().Add(2 * time.Second)
	for oh.Overload().Admitted == 0 {
		if time.Now().After(deadlineAdmit) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	oh.ResumeService()
	oh.WaitServiceIdle()
	if st := oh.Overload(); st.ExpiredDropped != 1 {
		t.Fatalf("expired-on-arrival = %d, want 1 (deadline did not propagate)", st.ExpiredDropped)
	}
}

func TestServerRestartUnderSameName(t *testing.T) {
	tr := New()
	defer tr.Close()
	srv, err := tr.Serve("s", echo)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, "s", echoReq{N: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := tr.Serve("s", echo); err != nil {
		t.Fatalf("re-serve after close: %v", err)
	}
	// The pooled connection died with the old server; the next call must
	// redial and reach the new incarnation.
	var lastErr error
	for i := 0; i < 20; i++ {
		if _, lastErr = c.Call(ctx, "s", echoReq{N: 2}); lastErr == nil {
			return
		}
	}
	t.Fatalf("calls never reached restarted server: %v", lastErr)
}

func TestNotifyReachesServer(t *testing.T) {
	tr := New()
	defer tr.Close()
	got := make(chan int, 1)
	if _, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		got <- req.(echoReq).N
	}); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	c.Notify("s", echoReq{N: 42})
	select {
	case n := <-got:
		if n != 42 {
			t.Fatalf("notify delivered %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notify never delivered")
	}
}

func TestAsyncReplyAfterHandlerReturns(t *testing.T) {
	tr := New()
	defer tr.Close()
	if _, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		go func() {
			time.Sleep(10 * time.Millisecond)
			reply(echoResp{N: 99})
		}()
	}); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Call(ctx, "s", echoReq{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).N != 99 {
		t.Fatalf("async reply = %v", resp)
	}
}

func TestQuiesceWaitsForDispatchedWork(t *testing.T) {
	tr := New()
	defer tr.Close()
	var served atomic.Int64
	if _, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		time.Sleep(time.Millisecond)
		served.Add(1)
		reply(echoResp{})
	}); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const n = 20
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() {
			c.Call(ctx, "s", echoReq{})
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	tr.Quiesce()
	if got := served.Load(); got != n {
		t.Fatalf("after Quiesce served = %d, want %d", got, n)
	}
}

func TestDuplicateServeRejected(t *testing.T) {
	tr := New()
	defer tr.Close()
	if _, err := tr.Serve("s", echo); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Serve("s", echo); err == nil {
		t.Fatal("duplicate serve of a live name succeeded")
	}
}

// TestUnencodablePayloads: a request the codec refuses fails its Call at
// once, with the encode error and not the lost fate, and leaves the
// connection usable; a reply the codec refuses is counted at the server
// (its caller can only time out — nothing can be sent in its place that
// the caller's protocol layer would understand).
func TestUnencodablePayloads(t *testing.T) {
	tr := New()
	defer tr.Close()
	srv, err := tr.Serve("s", func(from string, req any, reply func(any)) {
		if req.(echoReq).N < 0 {
			reply(unregistered{N: 1})
			return
		}
		echo(from, req, reply)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Client("c")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	_, err = c.Call(ctx, "s", unregistered{N: 1})
	if err == nil || errors.Is(err, transport.ErrLost) || errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("unencodable request gave %v, want the encode error", err)
	}
	if _, err := c.Call(ctx, "s", echoReq{N: 1}); err != nil {
		t.Fatalf("connection unusable after a refused request: %v", err)
	}

	short, cancelShort := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelShort()
	if _, err := c.Call(short, "s", echoReq{N: -1}); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("call answered by an unencodable reply gave %v, want ErrTimeout", err)
	}
	if got := srv.(*Server).DroppedReplies(); got != 1 {
		t.Fatalf("DroppedReplies = %d, want 1", got)
	}
	if _, err := c.Call(ctx, "s", echoReq{N: 2}); err != nil {
		t.Fatalf("connection unusable after a dropped reply: %v", err)
	}
}
