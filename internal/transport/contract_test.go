package transport_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

// probe is the request of the contract tests: the server answers it with
// itself, banks its reply when Hold is set, and never answers it when
// Silent is.
type probe struct {
	N      int
	Hold   bool
	Silent bool
}

// Test tags sit far above the protocol's (internal/cluster counts up from 1).
func init() { wire.Register(60101, probe{}) }

// asyncBackend is one backend under the contract: serve starts a server
// "srv" with h and opts and returns a client, and crash takes the server
// away the way the backend loses a peer.
type asyncBackend struct {
	name  string
	serve func(t *testing.T, h transport.Handler, opts ...transport.ServeOption) (cl transport.Client, crash func())
}

var backends = []asyncBackend{
	{"sim", func(t *testing.T, h transport.Handler, opts ...transport.ServeOption) (transport.Client, func()) {
		// Fate feedback is the sim's analogue of a reset connection: without
		// it a lost message is only ever a timeout.
		net := sim.NewNetwork(sim.Config{Seed: 1, FateFeedback: true})
		srv, _ := net.Serve("srv", h, opts...)
		cl, _ := net.Client("cli")
		t.Cleanup(func() { cl.Close(); srv.Close(); net.Close() })
		return cl, func() { net.Crash("srv") }
	}},
	{"tcp", func(t *testing.T, h transport.Handler, opts ...transport.ServeOption) (transport.Client, func()) {
		tr := tcp.New()
		srv, err := tr.Serve("srv", h, opts...)
		if err != nil {
			t.Fatal(err)
		}
		cl, _ := tr.Client("cli")
		t.Cleanup(tr.Close)
		return cl, srv.Close
	}},
}

// server answers probes as probe documents and banks the held replies.
type server struct {
	mu   sync.Mutex
	held []func(any)
}

func (s *server) handle(_ string, req any, reply func(any)) {
	p := req.(probe)
	switch {
	case p.Silent:
	case p.Hold:
		s.mu.Lock()
		s.held = append(s.held, reply)
		s.mu.Unlock()
	default:
		reply(p)
	}
}

func (s *server) holding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.held)
}

// release answers every banked request.
func (s *server) release() {
	s.mu.Lock()
	held := s.held
	s.held = nil
	s.mu.Unlock()
	for _, reply := range held {
		reply(probe{})
	}
}

func pending(t *testing.T, cl transport.Client) int {
	t.Helper()
	p, ok := cl.(interface{ Pending() int })
	if !ok {
		t.Fatalf("%T does not report its pending calls", cl)
	}
	return p.Pending()
}

func receive(t *testing.T, done <-chan transport.Reply, within time.Duration) transport.Reply {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(within):
		t.Fatalf("no reply within %v", within)
		return transport.Reply{}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestAsyncContract holds both backends to the AsyncClient contract: Go
// delivers exactly one Reply — the answer, ErrLost when the peer is gone,
// ErrTimeout once its deadline passes — keeps no pending entry past it and
// puts its deadline on the wire; Call, which is a call plus a wait, still
// returns the moment its context ends.
func TestAsyncContract(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			t.Run("answer", func(t *testing.T) {
				cl, _ := b.serve(t, (&server{}).handle)
				done := make(chan transport.Reply, 1)
				cl.(transport.AsyncClient).Go(time.Time{}, "srv", probe{N: 41}, 7, done)
				r := receive(t, done, 5*time.Second)
				if r.Err != nil || r.Tag != 7 || r.Resp != (probe{N: 41}) {
					t.Fatalf("Go answered %+v, want tag 7 and the probe back", r)
				}
				if n := pending(t, cl); n != 0 {
					t.Fatalf("%d calls pending after the answer", n)
				}
			})

			t.Run("lost", func(t *testing.T) {
				srv := &server{}
				cl, crash := b.serve(t, srv.handle)
				deadline := time.Now().Add(time.Minute)
				done := make(chan transport.Reply, 2)
				// One call waits at the server when the peer goes away, one is
				// sent after: neither has an answer coming, and neither waits
				// out its deadline to say so.
				cl.(transport.AsyncClient).Go(deadline, "srv", probe{Hold: true}, 1, done)
				waitUntil(t, "the held request to reach the server", func() bool { return srv.holding() == 1 })
				crash()
				srv.release() // a reply from a crashed peer goes nowhere
				cl.(transport.AsyncClient).Go(deadline, "srv", probe{N: 2}, 2, done)
				seen := map[int]bool{}
				for i := 0; i < 2; i++ {
					r := receive(t, done, 10*time.Second)
					if !errors.Is(r.Err, transport.ErrLost) || seen[r.Tag] {
						t.Fatalf("call %d to a lost peer gave %+v, want one ErrLost each", r.Tag, r)
					}
					seen[r.Tag] = true
				}
				waitUntil(t, "no pending calls", func() bool { return pending(t, cl) == 0 })
			})

			t.Run("timeout", func(t *testing.T) {
				cl, _ := b.serve(t, (&server{}).handle)
				done := make(chan transport.Reply, 1)
				start := time.Now()
				cl.(transport.AsyncClient).Go(start.Add(20*time.Millisecond), "srv", probe{Silent: true}, 3, done)
				r := receive(t, done, 5*time.Second)
				if !errors.Is(r.Err, transport.ErrTimeout) || r.Tag != 3 {
					t.Fatalf("silent call gave %+v, want ErrTimeout under tag 3", r)
				}
				if took := time.Since(start); took < 20*time.Millisecond {
					t.Fatalf("timed out after %v, before its deadline", took)
				}
				if n := pending(t, cl); n != 0 {
					t.Fatalf("%d calls pending after the timeout", n)
				}
			})

			t.Run("exactly-once", func(t *testing.T) {
				cl, _ := b.serve(t, (&server{}).handle)
				const n = 64
				done := make(chan transport.Reply, n)
				// Half answered under a far deadline, half silent under a near
				// one, interleaved so each near deadline comes after a far
				// one: the table's one timer must time out only the silent.
				far, near := time.Now().Add(time.Minute), time.Now().Add(50*time.Millisecond)
				for i := 0; i < n; i++ {
					deadline, silent := far, i%2 == 1
					if silent {
						deadline = near
					}
					cl.(transport.AsyncClient).Go(deadline, "srv", probe{N: i, Silent: silent}, i, done)
				}
				seen := make([]bool, n)
				for i := 0; i < n; i++ {
					r := receive(t, done, 5*time.Second)
					if r.Tag < 0 || r.Tag >= n || seen[r.Tag] {
						t.Fatalf("reply %+v: unknown or already delivered", r)
					}
					seen[r.Tag] = true
					if r.Tag%2 == 0 && (r.Err != nil || r.Resp != (probe{N: r.Tag})) {
						t.Fatalf("answered call gave %+v", r)
					}
					if r.Tag%2 == 1 && !errors.Is(r.Err, transport.ErrTimeout) {
						t.Fatalf("silent call gave %+v, want ErrTimeout", r)
					}
				}
				if time.Now().Before(near) {
					t.Fatal("silent calls timed out before their deadline")
				}
				if n := pending(t, cl); n != 0 {
					t.Fatalf("%d calls pending after their deadline", n)
				}
				select {
				case r := <-done:
					t.Fatalf("a call delivered twice: %+v", r)
				case <-time.After(20 * time.Millisecond):
				}
			})

			t.Run("dead-deadline", func(t *testing.T) {
				srv := &server{}
				cl, _ := b.serve(t, srv.handle)
				// A deadline already past sends nothing and answers at once; a
				// Call whose context is already done sends nothing either.
				done := make(chan transport.Reply, 2)
				cl.(transport.AsyncClient).Go(time.Now().Add(-time.Millisecond), "srv", probe{Hold: true}, 1, done)
				if r := receive(t, done, time.Second); !errors.Is(r.Err, transport.ErrTimeout) || r.Tag != 1 {
					t.Fatalf("Go past its deadline gave %+v", r)
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := cl.Call(ctx, "srv", probe{Hold: true}); !errors.Is(err, transport.ErrTimeout) {
					t.Fatalf("Call on a dead context gave %v, want ErrTimeout", err)
				}
				// A later call on the same path is answered; by then neither
				// held request has reached the server.
				cl.(transport.AsyncClient).Go(time.Time{}, "srv", probe{N: 2}, 2, done)
				if r := receive(t, done, 5*time.Second); r.Err != nil || r.Tag != 2 {
					t.Fatalf("live call gave %+v", r)
				}
				time.Sleep(20 * time.Millisecond)
				if n := srv.holding(); n != 0 {
					t.Fatalf("%d requests reached the server past their deadline or context", n)
				}
				if n := pending(t, cl); n != 0 {
					t.Fatalf("%d calls pending", n)
				}
			})

			t.Run("deadline-on-wire", func(t *testing.T) {
				// The server's admission clock stands at at: a request whose
				// wire deadline is before it is discarded at dequeue with the
				// explicit rejection, one whose deadline is after it is
				// served. Only the deadline Go was given can tell them apart.
				at := time.Now().Add(time.Hour)
				cl, _ := b.serve(t, (&server{}).handle, transport.WithAdmission(transport.AdmissionConfig{
					Capacity: 8,
					Clock:    transport.NewManualClock(at),
					Reject:   func(any, bool) any { return probe{N: -1} },
				}))
				done := make(chan transport.Reply, 2)
				cl.(transport.AsyncClient).Go(at.Add(-time.Millisecond), "srv", probe{N: 1}, 1, done)
				cl.(transport.AsyncClient).Go(at.Add(time.Millisecond), "srv", probe{N: 2}, 2, done)
				want := map[int]probe{1: {N: -1}, 2: {N: 2}}
				for i := 0; i < 2; i++ {
					r := receive(t, done, 5*time.Second)
					if r.Err != nil || r.Resp != want[r.Tag] {
						t.Fatalf("call %d gave %+v, want %+v", r.Tag, r, want[r.Tag])
					}
					delete(want, r.Tag)
				}
			})

			t.Run("call-cancel", func(t *testing.T) {
				cl, _ := b.serve(t, (&server{}).handle)
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(20*time.Millisecond, cancel)
				start := time.Now()
				_, err := cl.Call(ctx, "srv", probe{Silent: true})
				if !errors.Is(err, transport.ErrTimeout) {
					t.Fatalf("cancelled Call gave %v, want ErrTimeout", err)
				}
				if took := time.Since(start); took > 2*time.Second {
					t.Fatalf("cancelled Call took %v to return", took)
				}
				if n := pending(t, cl); n != 0 {
					t.Fatalf("%d calls pending after a cancelled Call", n)
				}
			})
		})
	}
}

// plainClient hides its backend's Go, as a wrapper that embeds Client does.
type plainClient struct{ transport.Client }

// TestGoFallsBackToCall: a Client without Go gets the same contract from
// transport.Go, through its Call.
func TestGoFallsBackToCall(t *testing.T) {
	cl, _ := backends[0].serve(t, (&server{}).handle)
	done := make(chan transport.Reply, 2)
	transport.Go(plainClient{cl}, time.Time{}, "srv", probe{N: 5}, 1, done)
	transport.Go(plainClient{cl}, time.Now().Add(10*time.Millisecond), "srv", probe{Silent: true}, 2, done)
	for i := 0; i < 2; i++ {
		switch r := receive(t, done, 5*time.Second); r.Tag {
		case 1:
			if r.Err != nil || r.Resp != (probe{N: 5}) {
				t.Fatalf("fallback answer %+v", r)
			}
		case 2:
			if !errors.Is(r.Err, transport.ErrTimeout) {
				t.Fatalf("fallback timeout %+v", r)
			}
		default:
			t.Fatalf("unknown tag %+v", r)
		}
	}
}
