package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// admissionReject is the explicit reject payload the admission tests use.
type admissionReject struct {
	Expired bool
}

// echoServer builds an admission-protected node whose handler records the
// requests it actually served, in order.
type echoServer struct {
	mu     sync.Mutex
	served []any
}

func (e *echoServer) handle(from string, req any) any {
	e.mu.Lock()
	e.served = append(e.served, req)
	e.mu.Unlock()
	return "ok"
}

func (e *echoServer) order() []any {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]any(nil), e.served...)
}

// classifyTag maps string requests by prefix: "c:" control, "w:" write,
// anything else read.
func classifyTag(req any) Priority {
	s, _ := req.(string)
	switch {
	case len(s) > 1 && s[:2] == "c:":
		return PrioControl
	case len(s) > 1 && s[:2] == "w:":
		return PrioWrite
	}
	return PrioRead
}

func TestAdmissionCapacityShedsExplicitly(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	defer net.Close()
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity: 2,
		Classify: classifyTag,
		Reject:   func(req any, expired bool) any { return admissionReject{Expired: expired} },
	}))
	defer node.Shutdown()

	node.HoldService()
	for i := 0; i < 5; i++ {
		if got := node.Inject("harness", fmt.Sprintf("r%d", i), time.Time{}); got != (i < 2) {
			t.Errorf("inject %d admitted = %v", i, got)
		}
	}
	st := node.Overload()
	if st.Admitted != 2 || st.Shed != 3 {
		t.Errorf("overload stats = %+v, want 2 admitted / 3 shed", st)
	}
	node.ResumeService()
	node.WaitServiceIdle()
	if got := srv.order(); len(got) != 2 || got[0] != "r0" || got[1] != "r1" {
		t.Errorf("served = %v, want the two admitted reads in order", got)
	}
}

// TestWaitServiceIdleCoversTheInbox: Quiesce promises delivery into the
// inbox only, so the barrier a seeded burst starts from must also cover
// requests the loop has not offered to the queue yet.
func TestWaitServiceIdleCoversTheInbox(t *testing.T) {
	net := NewNetwork(Config{Seed: 9})
	defer net.Close()
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{Capacity: 64, Classify: classifyTag}))
	defer node.Shutdown()
	client := NewNode(net, "c", nil)
	defer client.Shutdown()

	for round := 0; round < 50; round++ {
		for i := 0; i < 8; i++ {
			client.Notify("s", fmt.Sprintf("r%d", i))
		}
		net.Quiesce()
		node.WaitServiceIdle()
		if got, want := len(srv.order()), 8*(round+1); got != want {
			t.Fatalf("round %d: %d requests served after the barrier, want %d", round, got, want)
		}
	}
}

func TestAdmissionRejectRepliesToCalls(t *testing.T) {
	net := NewNetwork(Config{Seed: 2})
	defer net.Close()
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity: 1,
		Classify: classifyTag,
		Reject:   func(req any, expired bool) any { return admissionReject{Expired: expired} },
	}))
	defer node.Shutdown()
	client := NewNode(net, "c", nil)
	defer client.Shutdown()

	node.HoldService()
	// First call occupies the queue; the second must be rejected while the
	// service is held, and the caller must hear the rejection immediately —
	// not via its timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	firstDone := make(chan error, 1)
	go func() {
		_, err := client.Call(ctx, "s", "r-first")
		firstDone <- err
	}()
	// Wait until the first request is actually queued before offering the
	// second, so the shed verdict is not racy.
	deadline := time.Now().Add(2 * time.Second)
	for node.Overload().Admitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first call never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	raw, err := client.Call(ctx, "s", "r-second")
	if err != nil {
		t.Fatalf("shed call errored (%v), want explicit reject reply", err)
	}
	if rej, ok := raw.(admissionReject); !ok || rej.Expired {
		t.Fatalf("shed call reply = %#v, want admissionReject{Expired: false}", raw)
	}
	if time.Since(start) > time.Second {
		t.Errorf("reject took %v, want immediate", time.Since(start))
	}
	node.ResumeService()
	if err := <-firstDone; err != nil {
		t.Fatalf("admitted call failed: %v", err)
	}
}

func TestAdmissionPriorityLadder(t *testing.T) {
	net := NewNetwork(Config{Seed: 3})
	defer net.Close()
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity: 4,
		Classify: classifyTag,
	}))
	defer node.Shutdown()

	node.HoldService()
	node.Inject("h", "r0", time.Time{})
	node.Inject("h", "w:0", time.Time{})
	node.Inject("h", "r1", time.Time{})
	node.Inject("h", "c:commit", time.Time{})
	node.ResumeService()
	node.WaitServiceIdle()
	want := []any{"c:commit", "w:0", "r0", "r1"}
	got := srv.order()
	if len(got) != len(want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("served %v, want %v (control first, then writes, then reads)", got, want)
		}
	}
}

func TestAdmissionControlExemptFromCapacity(t *testing.T) {
	net := NewNetwork(Config{Seed: 4})
	defer net.Close()
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity: 1,
		Classify: classifyTag,
	}))
	defer node.Shutdown()

	node.HoldService()
	node.Inject("h", "r0", time.Time{}) // fills the bulk capacity
	for i := 0; i < 5; i++ {
		if !node.Inject("h", fmt.Sprintf("c:%d", i), time.Time{}) {
			t.Fatalf("control request %d shed; control traffic must always be admitted", i)
		}
	}
	node.ResumeService()
	node.WaitServiceIdle()
	if st := node.Overload(); st.Shed != 0 || st.Admitted != 6 {
		t.Errorf("overload stats = %+v, want no sheds", st)
	}
}

func TestAdmissionWriteDisplacesQueuedRead(t *testing.T) {
	net := NewNetwork(Config{Seed: 5})
	defer net.Close()
	srv := &echoServer{}
	var shed []any
	var shedMu sync.Mutex
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity: 2,
		Classify: classifyTag,
		OnShed: func(req any) {
			shedMu.Lock()
			shed = append(shed, req)
			shedMu.Unlock()
		},
	}))
	defer node.Shutdown()

	node.HoldService()
	node.Inject("h", "r0", time.Time{})
	node.Inject("h", "r1", time.Time{})
	if !node.Inject("h", "w:0", time.Time{}) {
		t.Fatal("write shed; it should displace the newest queued read")
	}
	node.ResumeService()
	node.WaitServiceIdle()
	shedMu.Lock()
	defer shedMu.Unlock()
	if len(shed) != 1 || shed[0] != "r1" {
		t.Errorf("shed = %v, want the newest queued read r1", shed)
	}
	got := srv.order()
	if len(got) != 2 || got[0] != "w:0" || got[1] != "r0" {
		t.Errorf("served = %v, want [w:0 r0]", got)
	}
}

func TestAdmissionExpiredOnArrivalDiscardedAtDequeue(t *testing.T) {
	net := NewNetwork(Config{Seed: 6})
	defer net.Close()
	clk := NewManualClock(time.Unix(1000, 0))
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity: 8,
		Classify: classifyTag,
		Clock:    clk,
	}))
	defer node.Shutdown()

	node.HoldService()
	now := clk.Now()
	node.Inject("h", "r-expired", now.Add(-time.Nanosecond)) // already past deadline
	node.Inject("h", "r-live", now.Add(time.Hour))
	node.Inject("h", "r-nodeadline", time.Time{})
	node.ResumeService()
	node.WaitServiceIdle()
	st := node.Overload()
	if st.ExpiredDropped != 1 {
		t.Errorf("ExpiredDropped = %d, want 1", st.ExpiredDropped)
	}
	got := srv.order()
	if len(got) != 2 || got[0] != "r-live" || got[1] != "r-nodeadline" {
		t.Errorf("served = %v, want the two unexpired requests only", got)
	}
}

func TestAdmissionServeExpiredAblation(t *testing.T) {
	net := NewNetwork(Config{Seed: 7})
	defer net.Close()
	clk := NewManualClock(time.Unix(1000, 0))
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity:     8,
		Classify:     classifyTag,
		Clock:        clk,
		ServeExpired: true,
	}))
	defer node.Shutdown()

	node.HoldService()
	node.Inject("h", "r-expired", clk.Now().Add(-time.Nanosecond))
	node.ResumeService()
	node.WaitServiceIdle()
	if st := node.Overload(); st.ServedExpired != 1 || st.ExpiredDropped != 0 {
		t.Errorf("overload stats = %+v, want the dead work served and counted", st)
	}
	if got := srv.order(); len(got) != 1 {
		t.Errorf("served = %v, want the expired request served anyway", got)
	}
}

func TestAdmissionShutdownDrainsQueue(t *testing.T) {
	net := NewNetwork(Config{Seed: 8})
	srv := &echoServer{}
	node := NewNode(net, "s", srv.handle, WithAdmission(AdmissionConfig{
		Capacity: 8,
		Classify: classifyTag,
	}))
	node.HoldService()
	node.Inject("h", "r0", time.Time{})
	node.Inject("h", "c:commit", time.Time{})
	// Shutdown with the service held: the drain must override the hold so
	// an orderly departure never strands delivered protocol messages.
	node.Shutdown()
	net.Close()
	if got := srv.order(); len(got) != 2 {
		t.Errorf("served = %v, want both queued requests drained at shutdown", got)
	}
}

func TestAdmissionDeadlineStampedFromContext(t *testing.T) {
	net := NewNetwork(Config{Seed: 9})
	defer net.Close()
	clk := NewManualClock(time.Unix(1000, 0))
	node := NewNode(net, "s", func(from string, req any) any { return "ok" },
		WithAdmission(AdmissionConfig{
			Capacity: 8,
			Clock:    clk,
		}))
	defer node.Shutdown()
	client := NewNode(net, "c", nil)
	defer client.Shutdown()

	dl := time.Now().Add(30 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	if _, err := client.Call(ctx, "s", "r0"); err != nil {
		t.Fatalf("call: %v", err)
	}
	// The deadline rode the envelope: a manual-clock receiver far in the
	// past must NOT treat the wall-clock deadline as expired, and the
	// admission bookkeeping must show the request served, not dropped.
	if st := node.Overload(); st.Admitted != 1 || st.ExpiredDropped != 0 {
		t.Errorf("overload stats = %+v", st)
	}
}
