package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// swarmTestOpts is fastOpts with a session cap small enough that a modest
// client population overflows it, and a hello cadence fast enough that an
// evicted client readmits itself within the test budget.
func swarmTestOpts(cap int) core.Options {
	o := fastOpts()
	o.MaxClientSessions = cap
	o.HelloInterval = 50 * time.Millisecond
	o.CheckpointInterval = 16
	return o
}

// swarmSample is one probe of the cluster's session tables.
type swarmSample struct {
	sessions  int    // largest live session count over the replicas
	evictions uint64 // evictions summed over the replicas
}

// swarmProbe reads the live session counts and eviction counters off the
// cluster.
func swarmProbe(c *Cluster) swarmSample {
	var s swarmSample
	for _, r := range c.Replicas {
		if r == nil {
			continue
		}
		info := r.Info()
		s.sessions = max(s.sessions, info.ClientSessions)
		s.evictions += info.Stats.SessionsEvicted
	}
	return s
}

// TestSessionEvictionChurn overflows a capped session table with more
// clients than it can hold and proves the eviction contract: the table
// never exceeds its cap, evictions actually happen, every operation
// completes (evicted clients readmit via hello and retransmit), and the
// dedup windows survive eviction — each increment lands exactly once.
func TestSessionEvictionChurn(t *testing.T) {
	const (
		cap        = 8
		numClients = 24
		incs       = 20
		churnIncs  = 3 // per client incarnation in the concurrent round
	)
	c, err := NewCluster(ClusterOptions{
		Opts:       swarmTestOpts(cap),
		NumClients: numClients,
		Seed:       11,
		App:        NewCounterFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Every client performs one keyed bump. With 24 identities over an
	// 8-session cap, admission of the later clients must evict the
	// earlier ones.
	for i := 0; i < numClients; i++ {
		cl, err := c.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		invokeMust(t, cl, "bump key-"+string(rune('a'+i%16)))
		cl.Close()
	}

	s := swarmProbe(c)
	if s.sessions > cap {
		t.Fatalf("session table holds %d sessions, cap is %d", s.sessions, cap)
	}
	if s.evictions == 0 {
		t.Fatalf("%d clients over a cap of %d must evict, counter is 0", numClients, cap)
	}

	// Concurrent round: all clients at once, each closing and recreating
	// itself once (fresh session keys, fresh hello), so admissions and
	// evictions interleave with requests in flight. A sampler watches the
	// session tables for the whole round.
	stop := make(chan struct{})
	peak := make(chan int, 1)
	go func() {
		most := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			most = max(most, swarmProbe(c).sessions)
			select {
			case <-stop:
				peak <- most
				return
			case <-tick.C:
			}
		}
	}()
	errs := make(chan error, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for incarnation := 0; incarnation < 2; incarnation++ {
				cl, err := c.Client(i)
				if err != nil {
					errs <- fmt.Errorf("client %d incarnation %d: %w", i, incarnation, err)
					return
				}
				for j := 0; j < churnIncs; j++ {
					if _, err := cl.Invoke(context.Background(), []byte("inc")); err != nil {
						errs <- fmt.Errorf("client %d incarnation %d inc %d: %w", i, incarnation, j, err)
						cl.Close()
						return
					}
				}
				cl.Close()
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if most := <-peak; most > cap {
		t.Fatalf("session table reached %d sessions during the concurrent round, cap is %d", most, cap)
	}

	// Client 0 was evicted long ago. Its increments must still complete
	// (readmission via hello + retransmission) and land exactly once
	// despite the retransmissions eviction forces.
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < incs; i++ {
		invokeMust(t, cl, "inc")
	}
	resp := invokeMust(t, cl, "get")
	want := uint64(numClients*2*churnIncs + incs)
	if got := binary.BigEndian.Uint64(resp); got != want {
		t.Fatalf("counter = %d, want %d: increments were dropped or replayed", got, want)
	}
}
