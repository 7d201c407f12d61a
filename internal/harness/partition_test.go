package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
)

func partitionedCluster(t *testing.T, groups, clients int) *PartitionedCluster {
	t.Helper()
	pc, err := NewPartitionedCluster(PartitionedClusterOptions{
		Groups:          groups,
		Opts:            fastOpts(),
		ClientsPerGroup: clients,
		Seed:            411,
		App:             NewCounterFactory(),
		Keys:            CounterKeys,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pc.Stop)
	return pc
}

// TestPartitionedClusterFanOut exercises the client contract end to
// end: unkeyed writes land on the home group, keyed writes land on the
// owning group, and an unkeyed read fans out to every group, observing
// each group's independent history.
func TestPartitionedClusterFanOut(t *testing.T) {
	pc := partitionedCluster(t, 2, 1)
	cl, err := pc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Unkeyed inc is a barrier op: no keyset, so it routes to the home
	// group (group 0) and bumps ITS unnamed counter.
	for want := uint64(1); want <= 3; want++ {
		resp, err := cl.Invoke(ctx, []byte("inc"))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(resp); got != want {
			t.Fatalf("home-group inc %d executed as %d", want, got)
		}
	}
	// Drive group 1 directly through its session: its unnamed counter
	// advances independently of group 0's.
	for want := uint64(1); want <= 2; want++ {
		resp, err := cl.Session(1).Invoke(ctx, []byte("inc"))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(resp); got != want {
			t.Fatalf("group-1 inc %d executed as %d", want, got)
		}
	}

	// Unkeyed read: fans out to all groups and reports each group's own
	// value — 3 on the home group, 2 on its sibling.
	results, err := cl.FanOutReadOnly(ctx, []byte("get"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("unkeyed fan-out hit %d groups, want 2", len(results))
	}
	want := []uint64{3, 2}
	for i, r := range results {
		if r.Group != i {
			t.Fatalf("fan-out result %d came from group %d", i, r.Group)
		}
		if got := binary.BigEndian.Uint64(r.Resp); got != want[i] {
			t.Fatalf("group %d reads %d, want %d", r.Group, got, want[i])
		}
	}

	// Keyed ops: the router's placement and the executed state agree —
	// the same key always increments the same group's counter.
	op := []byte("inc part-key")
	g, err := pc.Router().Route(op)
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		resp, err := cl.Invoke(ctx, op)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(resp); got != want {
			t.Fatalf("keyed inc %d executed as %d", want, got)
		}
	}
	// Reading through the owning group's session sees all three incs;
	// the sibling group never saw the key.
	resp, err := cl.Session(g).Invoke(ctx, []byte("get part-key"))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(resp); got != 3 {
		t.Fatalf("owning group %d reads %d, want 3", g, got)
	}
	resp, err = cl.Session(1-g).Invoke(ctx, []byte("get part-key"))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(resp); got != 0 {
		t.Fatalf("sibling group %d reads %d, want 0", 1-g, got)
	}
}

// TestPartitionedConcurrentRoutedLoad drives keyed load from several
// partitioned clients at once and checks placement end to end: every
// key's counter holds exactly its submitted count on the group that owns
// it and 0 on the sibling, and each group's replicas converge on one
// stable digest.
func TestPartitionedConcurrentRoutedLoad(t *testing.T) {
	const (
		groups     = 2
		numClients = 4
		numKeys    = 8
		rounds     = 6 // bumps of every key per client
	)
	pc := partitionedCluster(t, groups, numClients)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	bump := func(k int) []byte { return []byte(fmt.Sprintf("bump key-%d", k)) }
	owner := make([]int, numKeys)
	firstKey := []int{-1, -1} // per group: a key it owns
	slots := make(map[string]bool)
	for k := range owner {
		g, err := pc.Router().Route(bump(k))
		if err != nil {
			t.Fatal(err)
		}
		owner[k] = g
		if firstKey[g] < 0 {
			firstKey[g] = k
		}
		// Distinct counter slots, or a sibling's 0 could be another key's
		// count.
		slot := string(CounterKeys(bump(k))[0])
		if slots[slot] {
			t.Fatalf("key-%d shares a counter slot with another test key", k)
		}
		slots[slot] = true
	}
	for g, k := range firstKey {
		if k < 0 {
			t.Fatalf("no test key routes to group %d", g)
		}
	}

	clients := make([]*partition.Client, numClients)
	for i := range clients {
		cl, err := pc.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients[i] = cl
	}
	// Each client's first op on each group is serial, one client at a
	// time, as in the benchmark's set-up: a first request sent
	// concurrently with others can race its own session HELLO through
	// the ingress pipeline, and the replicas that drop it for bad
	// authentication then wait on a body they never got.
	submitted := make([]uint64, numKeys)
	for _, cl := range clients {
		for _, k := range firstKey {
			if _, err := cl.Invoke(ctx, bump(k)); err != nil {
				t.Fatal(err)
			}
			submitted[k]++
		}
	}

	errs := make(chan error, numClients)
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *partition.Client) {
			defer wg.Done()
			for n := 0; n < rounds*numKeys; n++ {
				// Clients walk the keyset phase-shifted, so the groups see
				// interleaved traffic for the same keys from several clients.
				op := bump((n + 3*i) % numKeys)
				resp, err := cl.Invoke(ctx, op)
				if err == nil && string(resp) != "OK" {
					err = fmt.Errorf("answered %q", resp)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d %q: %w", i, op, err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := range submitted {
		submitted[k] += numClients * rounds
	}

	cl := clients[0]
	for k, g := range owner {
		get := []byte(fmt.Sprintf("get key-%d", k))
		for s := 0; s < groups; s++ {
			resp, err := cl.Session(s).Invoke(ctx, get)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(0)
			if s == g {
				want = submitted[k]
			}
			if got := binary.BigEndian.Uint64(resp); got != want {
				t.Fatalf("key-%d (owned by group %d) reads %d on group %d, want %d", k, g, got, s, want)
			}
		}
	}
	for g := 0; g < groups; g++ {
		if _, err := pc.ConvergedDigest(g, 8, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartitionDigestIndependentOfSiblingLoad is the determinism check
// behind the partition contract: a group's StableDigest is a function of
// its own ordered history only. Load on a sibling group must not move
// it.
func TestPartitionDigestIndependentOfSiblingLoad(t *testing.T) {
	pc := partitionedCluster(t, 2, 1)
	cl, err := pc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Build history on group 0 and capture its converged digest
	// (fastOpts checkpoints every 8 seqs; 12 serial ops cross at least
	// one boundary).
	for i := 0; i < 12; i++ {
		if _, err := cl.Session(0).Invoke(ctx, []byte("inc a")); err != nil {
			t.Fatal(err)
		}
	}
	before, err := pc.ConvergedDigest(0, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Hammer the sibling.
	for i := 0; i < 20; i++ {
		if _, err := cl.Session(1).Invoke(ctx, []byte("inc b")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.ConvergedDigest(1, 8, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Group 0's stable digest is exactly where it was.
	after, err := pc.ConvergedDigest(0, 8, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("group 0 digest moved under sibling-group load: %x != %x", before[:8], after[:8])
	}
}
