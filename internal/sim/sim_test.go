package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSendDeliver(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	defer net.Close()
	inbox := net.Register("b")
	net.Send("a", "b", "hello")
	select {
	case m := <-inbox:
		if m.From != "a" || m.To != "b" || m.Payload != "hello" {
			t.Errorf("message = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLatencyBounds(t *testing.T) {
	const min, max = 2 * time.Millisecond, 10 * time.Millisecond
	net := NewNetwork(Config{MinLatency: min, MaxLatency: max, Seed: 2})
	defer net.Close()
	inbox := net.Register("b")
	start := time.Now()
	net.Send("a", "b", 1)
	<-inbox
	elapsed := time.Since(start)
	if elapsed < min {
		t.Errorf("delivered after %v, below min latency %v", elapsed, min)
	}
}

func TestCrashDropsMessages(t *testing.T) {
	net := NewNetwork(Config{Seed: 3})
	defer net.Close()
	inbox := net.Register("b")
	net.Crash("b")
	net.Send("a", "b", 1)
	select {
	case m := <-inbox:
		t.Fatalf("crashed node received %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	net.Restart("b")
	net.Send("a", "b", 2)
	select {
	case <-inbox:
	case <-time.After(time.Second):
		t.Fatal("restarted node should receive")
	}
	if net.Crashed("b") {
		t.Error("Crashed after restart")
	}
}

func TestCrashedSenderDrops(t *testing.T) {
	net := NewNetwork(Config{Seed: 4})
	defer net.Close()
	inbox := net.Register("b")
	net.Crash("a")
	net.Send("a", "b", 1)
	select {
	case <-inbox:
		t.Fatal("message from crashed sender delivered")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPartition(t *testing.T) {
	net := NewNetwork(Config{Seed: 5})
	defer net.Close()
	inbox := net.Register("b")
	net.Disconnect("a", "b")
	net.Send("a", "b", 1)
	select {
	case <-inbox:
		t.Fatal("message across severed link delivered")
	case <-time.After(50 * time.Millisecond):
	}
	net.Reconnect("a", "b")
	net.Send("a", "b", 2)
	select {
	case <-inbox:
	case <-time.After(time.Second):
		t.Fatal("message after reconnect lost")
	}
}

func TestDropProbability(t *testing.T) {
	net := NewNetwork(Config{DropProb: 1, Seed: 6})
	defer net.Close()
	inbox := net.Register("b")
	for i := 0; i < 10; i++ {
		net.Send("a", "b", i)
	}
	select {
	case <-inbox:
		t.Fatal("DropProb=1 delivered a message")
	case <-time.After(50 * time.Millisecond):
	}
	if st := net.Stats(); st.Dropped != 10 {
		t.Errorf("dropped = %d", st.Dropped)
	}
}

func TestStatsByType(t *testing.T) {
	net := NewNetwork(Config{Seed: 7})
	defer net.Close()
	net.Register("b")
	net.Send("a", "b", 42)
	net.Send("a", "b", "str")
	// RPC traffic counts under its wrapper and the type inside it, so two
	// runs that diverge say in which kind of message.
	srv := NewNode(net, "srv", func(from string, req any) any { return len(req.(string)) })
	defer srv.Shutdown()
	cli := NewNode(net, "cli", nil)
	defer cli.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if resp, err := cli.Call(ctx, "srv", "ping"); err != nil || resp != 4 {
		t.Fatalf("call = %v, %v", resp, err)
	}
	cli.Notify("srv", "bye")
	want := map[string]int64{"int": 1, "string": 1, "sim.envelope/string": 2, "sim.reply/int": 1}
	if st := net.Stats(); !reflect.DeepEqual(st.ByType, want) || st.Sent != 5 {
		t.Errorf("sent %d, byType = %v, want %v", st.Sent, st.ByType, want)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	net := NewNetwork(Config{Seed: 8})
	defer net.Close()
	server := NewNode(net, "server", func(from string, req any) any {
		return req.(int) * 2
	})
	defer server.Shutdown()
	client := NewNode(net, "client", nil)
	defer client.Shutdown()

	resp, err := client.Call(context.Background(), "server", 21)
	if err != nil {
		t.Fatal(err)
	}
	if resp != 42 {
		t.Errorf("resp = %v", resp)
	}
}

func TestRPCTimeout(t *testing.T) {
	net := NewNetwork(Config{Seed: 9})
	defer net.Close()
	client := NewNode(net, "client", nil)
	defer client.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, "nobody", 1)
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("want ErrRPCTimeout, got %v", err)
	}
}

func TestRPCConcurrentCalls(t *testing.T) {
	net := NewNetwork(Config{MinLatency: 100 * time.Microsecond, MaxLatency: time.Millisecond, Seed: 10})
	defer net.Close()
	server := NewNode(net, "server", func(from string, req any) any { return req })
	defer server.Shutdown()
	client := NewNode(net, "client", nil)
	defer client.Shutdown()

	var wg sync.WaitGroup
	errs := make([]error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Call(context.Background(), "server", i)
			if err != nil {
				errs[i] = err
				return
			}
			if resp != i {
				errs[i] = errors.New("reply routed to wrong caller")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestServerStatePerActorDiscipline(t *testing.T) {
	net := NewNetwork(Config{Seed: 11})
	defer net.Close()
	// Handler mutates unsynchronized state; safe because handlers run on
	// the node's single loop goroutine.
	counter := 0
	server := NewNode(net, "server", func(from string, req any) any {
		counter++
		return counter
	})
	defer server.Shutdown()
	client := NewNode(net, "client", nil)
	defer client.Shutdown()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Call(context.Background(), "server", 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if counter != 20 {
		t.Errorf("counter = %d", counter)
	}
}

func TestCloseStopsDeliveries(t *testing.T) {
	net := NewNetwork(Config{Seed: 12})
	net.Register("b")
	net.Close()
	net.Send("a", "b", 1) // must not panic or deliver
	if st := net.Stats(); st.Delivered != 0 {
		t.Errorf("delivered after close: %+v", st)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	net := NewNetwork(Config{Seed: 13})
	defer net.Close()
	n := NewNode(net, "n", nil)
	n.Shutdown()
	n.Shutdown() // second call must not panic
}

func TestSetNodeLatencyStraggler(t *testing.T) {
	net := NewNetwork(Config{MinLatency: 10 * time.Microsecond, MaxLatency: 50 * time.Microsecond, Seed: 9})
	defer net.Close()
	fast := net.Register("fast")
	slow := net.Register("slow")
	net.SetNodeLatency("slow", 20*time.Millisecond, 25*time.Millisecond)

	start := time.Now()
	net.Send("a", "fast", 1)
	<-fast
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("fast node took %v; override leaked onto other nodes", elapsed)
	}

	// The override applies to messages the straggler receives …
	start = time.Now()
	net.Send("a", "slow", 1)
	<-slow
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("message to straggler took %v, want >= 20ms", elapsed)
	}
	// … and to messages it sends.
	start = time.Now()
	net.Send("slow", "fast", 1)
	<-fast
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("message from straggler took %v, want >= 20ms", elapsed)
	}

	// Clearing the override restores the base latency.
	net.SetNodeLatency("slow", 0, 0)
	start = time.Now()
	net.Send("a", "slow", 1)
	<-slow
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("cleared straggler still took %v", elapsed)
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	net := NewNetwork(Config{DupProb: 1, Seed: 20})
	defer net.Close()
	inbox := net.Register("b")
	net.Send("a", "b", "once")
	for i := 0; i < 2; i++ {
		select {
		case m := <-inbox:
			if m.Payload != "once" {
				t.Errorf("copy %d payload = %v", i, m.Payload)
			}
		case <-time.After(time.Second):
			t.Fatalf("copy %d not delivered", i)
		}
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 2 || st.Duplicated != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReorderLetsOtherLanesOvertake(t *testing.T) {
	net := NewNetwork(Config{ReorderProb: 1, ReorderDelay: 30 * time.Millisecond, Seed: 21})
	defer net.Close()
	inbox := net.Register("b")
	net.Send("a", "b", "held") // reordered: held back 30ms
	net.SetReorder(0, 0)
	net.Send("c", "b", "fast") // different lane, no hold-back
	first := <-inbox
	second := <-inbox
	if first.Payload != "fast" || second.Payload != "held" {
		t.Errorf("delivery order = %v, %v; want fast before held", first.Payload, second.Payload)
	}
	if st := net.Stats(); st.Reordered != 1 {
		t.Errorf("reordered = %d, want 1", st.Reordered)
	}
}

func TestLaneFIFO(t *testing.T) {
	// Even with randomized latency, one directed link delivers in order.
	net := NewNetwork(Config{MinLatency: 10 * time.Microsecond, MaxLatency: 2 * time.Millisecond, Seed: 22})
	defer net.Close()
	inbox := net.Register("b")
	const msgs = 50
	for i := 0; i < msgs; i++ {
		net.Send("a", "b", i)
	}
	for i := 0; i < msgs; i++ {
		select {
		case m := <-inbox:
			if m.Payload != i {
				t.Fatalf("message %d arrived out of order: %v", i, m.Payload)
			}
		case <-time.After(time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
}

func TestQuiesceWaitsForTransit(t *testing.T) {
	net := NewNetwork(Config{MinLatency: 5 * time.Millisecond, MaxLatency: 5 * time.Millisecond, Seed: 23})
	defer net.Close()
	net.Register("b")
	net.Send("a", "b", 1)
	net.Quiesce()
	if st := net.Stats(); st.Delivered != 1 {
		t.Errorf("after Quiesce: %+v", st)
	}
}

func TestFateStreamsAreDeterministic(t *testing.T) {
	// Two networks built from the same seed must sample identical fates
	// for the same per-lane traffic, regardless of node naming: that is
	// the property the chaos harness's replay guarantee rests on.
	run := func(prefix string) Stats {
		net := NewNetwork(Config{
			DropProb: 0.3, DupProb: 0.3, ReorderProb: 0.3,
			ReorderDelay: 100 * time.Microsecond, Seed: 77,
		})
		defer net.Close()
		for _, id := range []string{"x", "y", "z"} {
			net.Register(prefix + id)
		}
		for i := 0; i < 200; i++ {
			net.Send(prefix+"x", prefix+"y", i)
			net.Send(prefix+"y", prefix+"z", i)
			net.Send(prefix+"z", prefix+"x", i)
		}
		net.Quiesce()
		return net.Stats()
	}
	a, b := run("run1-"), run("run2-")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different fates:\n%+v\n%+v", a, b)
	}
}

func TestFateStreamsIgnoreOtherKindsOnTheLane(t *testing.T) {
	// Two kinds of message share one link. Whether they interleave or one
	// kind goes first — the order two racing senders on a node happen to
	// reach the link in — each kind must meet the same fates, or two rounds
	// a client runs at once against one replica (a phase's requests and a
	// resolver's probes, say) fork the chaos harness's exact replay.
	run := func(interleave bool) (ints, strs int) {
		net := NewNetwork(Config{DropProb: 0.3, DupProb: 0.3, Seed: 78})
		defer net.Close()
		inbox := net.Register("b")
		const n = 100
		if interleave {
			for i := 0; i < n; i++ {
				net.Send("a", "b", i)
				net.Send("a", "b", "s")
			}
		} else {
			for i := 0; i < n; i++ {
				net.Send("a", "b", "s")
			}
			for i := 0; i < n; i++ {
				net.Send("a", "b", i)
			}
		}
		net.Quiesce()
		for {
			select {
			case m := <-inbox:
				if _, ok := m.Payload.(int); ok {
					ints++
				} else {
					strs++
				}
			default:
				return ints, strs
			}
		}
	}
	i1, s1 := run(true)
	i2, s2 := run(false)
	if i1 != i2 || s1 != s2 {
		t.Errorf("send order changed per-kind fates: interleaved %d/%d, batched %d/%d", i1, s1, i2, s2)
	}
	if i1 == 0 || i1 == 100 || s1 == 0 || s1 == 100 || i1 == s1 {
		t.Errorf("fates not exercised or not independent per kind: %d ints, %d strings", i1, s1)
	}
}

func TestNotifyFireAndForget(t *testing.T) {
	net := NewNetwork(Config{Seed: 10})
	defer net.Close()
	got := make(chan any, 1)
	server := NewNode(net, "srv", func(from string, req any) any {
		got <- req
		return "reply-that-must-not-be-sent"
	})
	defer server.Shutdown()
	client := NewNode(net, "cli", nil)
	defer client.Shutdown()

	client.Notify("srv", "ping")
	select {
	case req := <-got:
		if req != "ping" {
			t.Errorf("server saw %v", req)
		}
	case <-time.After(time.Second):
		t.Fatal("notify not delivered")
	}
	// No reply envelope may come back: the network's per-type counters
	// would show a reply if one was sent.
	time.Sleep(20 * time.Millisecond)
	for kind, n := range net.Stats().ByType {
		if strings.HasPrefix(kind, "sim.reply") {
			t.Errorf("notify generated %d replies of kind %s, want none", n, kind)
		}
	}
	// Calls on the same pair still work, so notify and RPC coexist.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := client.Call(ctx, "srv", "ping2")
	if err != nil || resp != "reply-that-must-not-be-sent" {
		t.Errorf("call after notify = %v, %v", resp, err)
	}
}
