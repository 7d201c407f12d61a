package harness

import (
	"context"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
)

// BenchmarkAllocs measures whole-system allocations per request on the
// 16×1 pipeline path: 16 closed-loop clients at depth 1 on the default
// configuration (sta_mac_allbig_batch), 1 KiB echo. Every goroutine
// counts: clients, ingress verifiers, protocol loops, exec shards,
// reapers, the simulated network. It is the guard rail of the hot-path
// memory discipline (pooled writers, sealed-envelope release-after-send,
// pooled HMAC states, single-copy transport fan-out).
func BenchmarkAllocs(b *testing.B) {
	const inflight = 16
	c, err := NewCluster(ClusterOptions{
		Opts:       BenchOptionsFor(LibConfig{Static: true, MACs: true, AllBig: true, Batch: true}),
		NumClients: inflight,
		Seed:       42,
		App:        NewEchoFactory(1024),
		Bandwidth:  938e6 / 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	clients := make([]*client.Client, inflight)
	for i := range clients {
		cl, err := c.Client(i, client.WithPipelineDepth(1))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cl.Close() })
		clients[i] = cl
	}
	payload := make([]byte, 1024)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var failed atomic.Bool
	ops := make(chan struct{}, inflight)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for range ops {
				if _, err := cl.Invoke(ctx, payload); err != nil {
					failed.Store(true)
					return
				}
			}
		}(clients[w])
	}
	for i := 0; i < b.N; i++ {
		ops <- struct{}{}
	}
	close(ops)
	wg.Wait()
	if failed.Load() {
		b.Fatal("invoke failed")
	}
}

// TestAllocBudget is the CI assertion behind BenchmarkAllocs: it fails
// when allocs/op on the 16×1 pipeline path exceeds the budget in the
// PBFT_MAX_ALLOCS_PER_OP environment variable. Unset, the test skips —
// local `go test ./...` stays timing-robust while CI pins the budget.
func TestAllocBudget(t *testing.T) {
	budgetStr := os.Getenv("PBFT_MAX_ALLOCS_PER_OP")
	if budgetStr == "" {
		t.Skip("PBFT_MAX_ALLOCS_PER_OP not set")
	}
	budget, err := strconv.ParseInt(budgetStr, 10, 64)
	if err != nil {
		t.Fatalf("bad PBFT_MAX_ALLOCS_PER_OP %q: %v", budgetStr, err)
	}
	res := testing.Benchmark(BenchmarkAllocs)
	if got := res.AllocsPerOp(); got > budget {
		t.Fatalf("allocs/op = %d, budget %d (ns/op %d, B/op %d): the hot path regressed",
			got, budget, res.NsPerOp(), res.AllocedBytesPerOp())
	}
	t.Logf("allocs/op = %d within budget %d (ns/op %d, B/op %d)",
		res.AllocsPerOp(), budget, res.NsPerOp(), res.AllocedBytesPerOp())
}
