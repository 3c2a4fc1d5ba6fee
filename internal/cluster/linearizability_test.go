package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/quorum"
	"repro/internal/sim"
)

// TestLinearizableUnderChaos is the capstone systems test: several clients
// hammer one replicated register concurrently while the harness crashes
// and restarts replicas, drops messages and reconfigures quorums online.
// Every committed operation is recorded with its version number, and the
// resulting history must verify as a linearizable atomic register — the
// logical-data-item abstraction the paper's algorithm promises.
func TestLinearizableUnderChaos(t *testing.T) {
	dms := []string{"dm0", "dm1", "dm2", "dm3", "dm4"}
	items := []ItemSpec{{Name: "x", Initial: "v0", DMs: dms, Config: quorum.Majority(dms)}}
	net := sim.NewNetwork(sim.Config{
		MinLatency: 50 * time.Microsecond,
		MaxLatency: 800 * time.Microsecond,
		DropProb:   0.01,
		Seed:       99,
	})
	defer net.Close()
	opts := func(seed int64) []Option {
		return []Option{WithCallTimeout(10 * time.Millisecond), WithSeed(seed)}
	}
	main, err := Open(net, items, opts(99)...)
	if err != nil {
		t.Fatal(err)
	}
	defer main.Close()
	second, err := OpenClient(net, items, opts(100)...)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var (
		mu      sync.Mutex
		history = checker.History{Item: "x", Initial: "v0"}
	)
	record := func(e checker.Event) {
		mu.Lock()
		history.Events = append(history.Events, e)
		mu.Unlock()
	}

	const workers, opsPerWorker = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			store := main
			if w%2 == 1 {
				store = second
			}
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				isRead := rng.Float64() < 0.5
				val := fmt.Sprintf("w%d-%d", w, i)
				start := time.Now()
				var (
					vn   int
					got  any
					kind checker.Kind
				)
				err := store.Run(ctx, func(tx *Txn) error {
					var err error
					if isRead {
						kind = checker.OpRead
						got, vn, err = tx.ReadVersioned(ctx, "x")
					} else {
						kind = checker.OpWrite
						got = val
						vn, err = tx.WriteVersioned(ctx, "x", val)
					}
					return err
				})
				if err != nil {
					// Unavailability or exhausted retries under chaos is
					// acceptable; the history only tracks committed ops.
					continue
				}
				record(checker.Event{
					Kind: kind, Item: "x", Value: got, VN: vn,
					Start: start, End: time.Now(),
				})
			}
		}(w)
	}

	// Chaos controller: crash/restart minorities and reconfigure.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		time.Sleep(5 * time.Millisecond)
		net.Crash("dm4")
		time.Sleep(10 * time.Millisecond)
		net.Crash("dm3")
		time.Sleep(10 * time.Millisecond)
		_ = main.Reconfigure(ctx, "x", quorum.Majority(dms[:3]))
		time.Sleep(10 * time.Millisecond)
		net.Restart("dm3")
		net.Restart("dm4")
		time.Sleep(10 * time.Millisecond)
		_ = main.Reconfigure(ctx, "x", quorum.Majority(dms))
	}()
	wg.Wait()
	<-chaosDone

	mu.Lock()
	defer mu.Unlock()
	// Linearizability is a property of the committed operations; under
	// heavy host load (e.g. the full benchmark run) timeouts shrink the
	// committed set, so the floor here is deliberately loose.
	if len(history.Events) < workers*opsPerWorker/4 {
		t.Fatalf("too few committed ops under chaos: %d", len(history.Events))
	}
	if err := history.Verify(); err != nil {
		for _, e := range history.Events {
			t.Logf("%+v", e)
		}
		t.Fatalf("history not linearizable: %v", err)
	}
	t.Logf("linearizable history of %d committed ops under crashes, drops and reconfiguration", len(history.Events))
}
