package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// armedAt is when the table's timer fires; zero when it is not armed.
func (c *Calls) armedAt() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed
}

func expect(t *testing.T, done <-chan Reply, within time.Duration) Reply {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(within):
		t.Fatalf("no reply within %v", within)
		return Reply{}
	}
}

func silentFor(t *testing.T, done <-chan Reply, d time.Duration) {
	t.Helper()
	select {
	case r := <-done:
		t.Fatalf("unexpected reply %+v", r)
	case <-time.After(d):
	}
}

// TestCallsDeadlines pins the pending-call table's one timer: it is armed at
// the earliest deadline the table knows, re-armed earlier by an earlier
// deadline and at the next deadline after each sweep, never for a call
// without a deadline, and it completes each call exactly once, racing
// replies included.
func TestCallsDeadlines(t *testing.T) {
	t.Run("earlier deadline re-arms earlier", func(t *testing.T) {
		var c Calls
		done := make(chan Reply, 2)
		late, early := time.Now().Add(time.Hour), time.Now().Add(30*time.Millisecond)
		c.Add(late, 1, done, nil)
		if got := c.armedAt(); !got.Equal(late) {
			t.Fatalf("armed at %v, want the hour-away deadline", got)
		}
		c.Add(early, 2, done, nil)
		if got := c.armedAt(); !got.Equal(early) {
			t.Fatalf("armed at %v after an earlier deadline, want it", got)
		}
		if r := expect(t, done, 5*time.Second); r.Tag != 2 || !errors.Is(r.Err, ErrTimeout) {
			t.Fatalf("first expiry %+v, want call 2 timed out", r)
		}
		if time.Now().Before(early) {
			t.Fatal("timed out before its deadline")
		}
		if got := c.armedAt(); !got.Equal(late) || c.Len() != 1 {
			t.Fatalf("after the sweep: armed at %v with %d pending, want the hour-away call re-armed", got, c.Len())
		}
		c.Close(ErrLost)
	})

	t.Run("sweep re-arms at the next deadline", func(t *testing.T) {
		var c Calls
		done := make(chan Reply, 3)
		start := time.Now()
		first, second := start.Add(20*time.Millisecond), start.Add(200*time.Millisecond)
		c.Add(first, 1, done, nil)
		c.Add(second, 2, done, nil)
		c.Add(first, 3, done, nil)
		for want := 2; want > 0; want-- {
			if r := expect(t, done, 5*time.Second); r.Tag == 2 || !errors.Is(r.Err, ErrTimeout) {
				t.Fatalf("first sweep delivered %+v, want calls 1 and 3 timed out", r)
			}
		}
		if got := c.armedAt(); !got.Equal(second) {
			t.Fatalf("after the first sweep the timer is armed at %v, want the next deadline", got)
		}
		if r := expect(t, done, 5*time.Second); r.Tag != 2 || time.Now().Before(second) {
			t.Fatalf("second sweep delivered %+v at %v, want call 2 at its deadline", r, time.Since(start))
		}
		if got := c.armedAt(); !got.IsZero() || c.Len() != 0 {
			t.Fatalf("an empty table is armed at %v with %d pending", got, c.Len())
		}
	})

	t.Run("reply racing its deadline", func(t *testing.T) {
		var c Calls
		const n = 200
		done := make(chan Reply, 2*n)
		deadline := time.Now().Add(10 * time.Millisecond)
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = c.Add(deadline, i, done, nil)
		}
		var wg sync.WaitGroup
		for _, half := range [][]uint64{ids[:n/2], ids[n/2:]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Until(deadline))
				for _, id := range half {
					c.Finish(id, "answer", nil)
				}
			}()
		}
		wg.Wait()
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			r := expect(t, done, 5*time.Second)
			if seen[r.Tag] || (r.Err == nil) != (r.Resp == "answer") || (r.Err != nil && !errors.Is(r.Err, ErrTimeout)) {
				t.Fatalf("reply %+v: twice, or neither the answer nor a timeout", r)
			}
			seen[r.Tag] = true
		}
		silentFor(t, done, 20*time.Millisecond)
		if c.Len() != 0 {
			t.Fatalf("%d calls pending", c.Len())
		}
	})

	t.Run("zero deadline never expires", func(t *testing.T) {
		var c Calls
		done := make(chan Reply, 2)
		id := c.Add(time.Time{}, 1, done, nil)
		if got := c.armedAt(); !got.IsZero() {
			t.Fatalf("a call without a deadline armed the timer at %v", got)
		}
		c.Add(time.Now().Add(10*time.Millisecond), 2, done, nil)
		if r := expect(t, done, 5*time.Second); r.Tag != 2 {
			t.Fatalf("sweep delivered %+v, want only call 2", r)
		}
		silentFor(t, done, 30*time.Millisecond)
		if got := c.armedAt(); !got.IsZero() || c.Len() != 1 {
			t.Fatalf("armed at %v with %d pending, want the deadline-free call pending and no timer", got, c.Len())
		}
		if !c.Finish(id, "late", nil) || expect(t, done, time.Second).Resp != "late" {
			t.Fatal("the deadline-free call did not take its answer")
		}
	})

	t.Run("close fails the pending", func(t *testing.T) {
		var c Calls
		done := make(chan Reply, 3)
		c.Add(time.Time{}, 1, done, nil)
		c.Add(time.Now().Add(time.Hour), 2, done, nil)
		errClosed := errors.New("closed")
		c.Close(errClosed)
		for i := 0; i < 2; i++ {
			if r := expect(t, done, time.Second); !errors.Is(r.Err, errClosed) {
				t.Fatalf("pending call at Close gave %+v", r)
			}
		}
		if id := c.Add(time.Now().Add(time.Hour), 3, done, nil); id != 0 {
			t.Fatalf("a call added after Close got ID %d", id)
		}
		if r := expect(t, done, time.Second); r.Tag != 3 || !errors.Is(r.Err, errClosed) {
			t.Fatalf("call after Close gave %+v", r)
		}
		if c.Len() != 0 {
			t.Fatalf("%d calls pending after Close", c.Len())
		}
	})

	t.Run("past deadline sends nothing", func(t *testing.T) {
		var c Calls
		done := make(chan Reply, 1)
		if id := c.Add(time.Now().Add(-time.Millisecond), 1, done, nil); id != 0 {
			t.Fatalf("a call past its deadline got ID %d: its caller would send it", id)
		}
		select {
		case r := <-done:
			if r.Tag != 1 || !errors.Is(r.Err, ErrTimeout) {
				t.Fatalf("call past its deadline gave %+v", r)
			}
		default:
			t.Fatal("a call past its deadline was not completed at once")
		}
		if got := c.armedAt(); !got.IsZero() || c.Len() != 0 {
			t.Fatalf("armed at %v with %d pending after a refused call", got, c.Len())
		}
	})

	t.Run("wait returns when its context ends", func(t *testing.T) {
		var c Calls
		done := make(chan Reply, 1)
		id := c.Add(time.Time{}, 0, done, nil)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel)
		if _, err := c.Wait(ctx, id, done); !errors.Is(err, ErrTimeout) {
			t.Fatalf("Wait on an ended context gave %v, want ErrTimeout", err)
		}
		if c.Len() != 0 || c.Finish(id, "late", nil) {
			t.Fatal("the call Wait gave up on is still pending")
		}
	})
}
