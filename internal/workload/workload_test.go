package workload

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/quorum"
	"repro/internal/sim"
)

func testStore(t *testing.T, seed int64) *cluster.Store {
	t.Helper()
	dms := []string{"d0", "d1", "d2"}
	net := sim.NewNetwork(sim.Config{MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond, Seed: seed})
	store, err := cluster.Open(net, []cluster.ItemSpec{
		{Name: "x", Initial: 0, DMs: dms, Config: quorum.Majority(dms)},
	}, cluster.WithCallTimeout(25*time.Millisecond), cluster.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		store.Close()
		net.Close()
	})
	return store
}

func TestRunCommitsAll(t *testing.T) {
	store := testStore(t, 1)
	res, err := Run(context.Background(), store, Profile{
		ReadFraction: 0.5, OpsPerTxn: 2, Items: []string{"x"}, Seed: 1,
	}, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 20 || res.Failed != 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestNestedWorkloadToleratesAborts(t *testing.T) {
	store := testStore(t, 2)
	res, err := Run(context.Background(), store, Profile{
		ReadFraction: 0, OpsPerTxn: 3, NestDepth: 2, SubAbortProb: 0.5,
		Items: []string{"x"}, Seed: 2,
	}, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 20 {
		t.Errorf("committed = %d", res.Committed)
	}
	if res.Tolerated == 0 {
		t.Error("expected some tolerated subtransaction aborts")
	}
}

func TestFlatWorkloadNeverInjectsTopLevelAborts(t *testing.T) {
	store := testStore(t, 3)
	res, err := Run(context.Background(), store, Profile{
		ReadFraction: 0, OpsPerTxn: 2, NestDepth: 0, SubAbortProb: 1,
		Items: []string{"x"}, Seed: 3,
	}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tolerated != 0 || res.Failed != 0 {
		t.Errorf("flat workload must not inject aborts: %+v", res)
	}
}

func TestNoItemsRejected(t *testing.T) {
	store := testStore(t, 4)
	if _, err := Run(context.Background(), store, Profile{}, 1, 1); err == nil {
		t.Error("empty item list must fail")
	}
}

func TestProfileDefaults(t *testing.T) {
	p := Profile{}.withDefaults()
	if p.OpsPerTxn != 2 {
		t.Errorf("default OpsPerTxn = %d", p.OpsPerTxn)
	}
}

func TestZipfianDeterministicAndSkewed(t *testing.T) {
	z, err := newZipfian(100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []int {
		rng := rand.New(rand.NewSource(42))
		counts := make([]int, 100)
		for i := 0; i < 20000; i++ {
			r := z.next(rng)
			if r < 0 || r >= 100 {
				t.Fatalf("rank %d out of range", r)
			}
			counts[r]++
		}
		return counts
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at rank %d: %d vs %d", i, a[i], b[i])
		}
	}
	// YCSB-grade skew: rank 0 dominates, and the head vastly outdraws an
	// equal-width slice of the tail.
	if a[0] <= a[1] || a[0] < 1000 {
		t.Fatalf("rank 0 drew %d (rank 1 %d); zipfian head too cold", a[0], a[1])
	}
	head, tail := 0, 0
	for i := 0; i < 10; i++ {
		head += a[i]
		tail += a[90+i]
	}
	if head < 10*tail {
		t.Fatalf("head 10 ranks drew %d, tail 10 drew %d; skew too weak for theta .99", head, tail)
	}
}

func TestZipfianThetaZeroIsNearUniform(t *testing.T) {
	z, err := newZipfian(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[z.next(rng)]++
	}
	for i, c := range counts {
		if c < 3500 || c > 6500 {
			t.Fatalf("theta=0 rank %d drew %d of 50000; expected ~5000", i, c)
		}
	}
}

func TestZipfianValidation(t *testing.T) {
	if _, err := newZipfian(0, 0.5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := newZipfian(10, 1); err == nil {
		t.Error("theta=1 accepted")
	}
	if _, err := newZipfian(10, -0.1); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := (Profile{Items: []string{"x"}, Distribution: "pareto"}).withDefaults().picker(); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestZipfianProfileDefaults(t *testing.T) {
	p := Profile{Distribution: DistZipfian}.withDefaults()
	if p.Theta != DefaultTheta {
		t.Errorf("zipfian default theta = %v, want %v", p.Theta, DefaultTheta)
	}
	if q := (Profile{}).withDefaults(); q.Distribution != DistUniform {
		t.Errorf("default distribution = %q", q.Distribution)
	}
}

func TestZipfianWorkloadRuns(t *testing.T) {
	store := testStore(t, 9)
	res, err := Run(context.Background(), store, Profile{
		ReadFraction: 0.95, OpsPerTxn: 2, Items: []string{"x"},
		Distribution: DistZipfian, Theta: 0.99, Seed: 9,
	}, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 20 {
		t.Errorf("committed = %d", res.Committed)
	}
}
