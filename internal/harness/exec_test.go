package harness

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/sqlstate"
)

// execWorkloadOps builds the randomized determinism workload: for each
// client a deterministic (seeded) sequence mixing
//
//   - non-conflicting keyed ops: counters owned by that client alone,
//     replying with the client-deterministic running count,
//   - conflicting keyed ops: a small set of shared hot counters bumped by
//     everyone ("bump" answers a fixed "OK", so the reply does not leak
//     the cross-client interleaving),
//   - unkeyed barrier ops: the legacy slot-0 counter via "bump" (OK).
//
// Every reply is therefore a pure function of (client, iteration): the
// streams must match exactly between any two runs of the workload,
// whatever the shard count.
func execWorkloadOps(clients, perClient int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	ops := make([][]string, clients)
	// The "own" counters' replies are running counts, which are only
	// comparable across runs if no two distinct names collide onto one
	// slot (colliding ops would serialize in cross-run-dependent commit
	// order). Guard it, so a rename surfaces here instead of as a flaky
	// determinism failure.
	slots := make(map[uint64]string)
	guard := func(name string) {
		s := counterSlot([]byte(name))
		if prev, ok := slots[s]; ok {
			panic(fmt.Sprintf("workload names %q and %q collide on slot %d — pick different names", prev, name, s))
		}
		slots[s] = name
	}
	for i := 0; i < clients; i++ {
		for k := 0; k < 3; k++ {
			guard(fmt.Sprintf("own-%d-%d", i, k))
		}
	}
	for k := 0; k < 4; k++ {
		guard(fmt.Sprintf("shared-%d", k)) // a collision with an own key would couple their counts
	}
	for i := range ops {
		for n := 0; n < perClient; n++ {
			switch d := rng.Intn(10); {
			case d < 5: // own-key increment: reply = that key's running count
				ops[i] = append(ops[i], fmt.Sprintf("inc own-%d-%d", i, rng.Intn(3)))
			case d < 8: // shared hot key: conflicts across clients
				ops[i] = append(ops[i], fmt.Sprintf("bump shared-%d", rng.Intn(4)))
			case d < 9: // own-key read
				ops[i] = append(ops[i], fmt.Sprintf("get own-%d-%d", i, rng.Intn(3)))
			default: // unkeyed: an execution barrier
				ops[i] = append(ops[i], "bump")
			}
		}
	}
	return ops
}

// execDeterminismRun drives the workload on a fresh cluster at the given
// shard count and returns the per-client reply streams plus, per replica,
// the stable checkpoint digest reached at quiescence.
func execDeterminismRun(t *testing.T, shards int) (streams [][]string, lastStable uint64, digests [][32]byte) {
	t.Helper()
	const numClients, perClient = 4, 40
	o := fastOpts()
	o.ExecShards = shards
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: numClients,
		Seed:       7,
		App:        NewCounterFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ops := execWorkloadOps(numClients, perClient, 1234)
	streams = make([][]string, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		cl, err := c.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, op := range ops[i] {
				resp, err := cl.Invoke(context.Background(), []byte(op))
				if err != nil {
					t.Errorf("client %d: %q: %v", i, op, err)
					return
				}
				streams[i] = append(streams[i], string(resp))
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesce: wait until every replica reports the same stable
	// checkpoint, then compare the agreed digests.
	deadline := time.Now().Add(10 * time.Second)
	for {
		infos := make([]core.Info, len(c.Replicas))
		for i, r := range c.Replicas {
			infos[i] = r.Info()
		}
		stable := infos[0].LastStable
		same := stable > 0
		for _, info := range infos[1:] {
			if info.LastStable != stable {
				same = false
			}
		}
		if same {
			digests = make([][32]byte, len(infos))
			for i, info := range infos {
				digests[i] = info.StableDigest
			}
			return streams, stable, digests
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged on a stable checkpoint: %+v", infos)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExecDeterminism is the cross-replica determinism suite: the same
// randomized conflicting/non-conflicting keyed workload at ExecShards 1
// and 4 must produce identical per-client reply streams, and within each
// run every replica must agree on the stable checkpoint digest. Run under
// -race in CI, this also shakes out scheduling races in the engine and
// the applications' concurrent Execute paths.
func TestExecDeterminism(t *testing.T) {
	type result struct {
		streams [][]string
		stable  uint64
		digests [][32]byte
	}
	results := make(map[int]result)
	for _, shards := range []int{1, 4} {
		streams, stable, digests := execDeterminismRun(t, shards)
		for i, d := range digests[1:] {
			if d != digests[0] {
				t.Fatalf("shards=%d: replica %d stable digest diverged at seq %d", shards, i+1, stable)
			}
		}
		results[shards] = result{streams, stable, digests}
	}
	serial, sharded := results[1], results[4]
	for i := range serial.streams {
		if len(serial.streams[i]) != len(sharded.streams[i]) {
			t.Fatalf("client %d: %d replies serial vs %d sharded",
				i, len(serial.streams[i]), len(sharded.streams[i]))
		}
		for n := range serial.streams[i] {
			if serial.streams[i][n] != sharded.streams[i][n] {
				t.Fatalf("client %d op %d: reply %q (serial) != %q (4 shards)",
					i, n, serial.streams[i][n], sharded.streams[i][n])
			}
		}
	}
}

// TestExecShardedState: after a sharded run, the replicas' raw region
// content matches the serial run byte for byte (client timestamps never
// enter the region, so the regions — unlike the checkpoint metadata — are
// comparable across runs).
func TestExecShardedState(t *testing.T) {
	regionPrefix := func(shards int) []byte {
		o := fastOpts()
		o.ExecShards = shards
		c, err := NewCluster(ClusterOptions{
			Opts:       o,
			NumClients: 2,
			Seed:       11,
			App:        NewCounterFactory(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		ops := execWorkloadOps(2, 30, 99)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			cl, err := c.Client(i)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, op := range ops[i] {
					if _, err := cl.Invoke(context.Background(), []byte(op)); err != nil {
						t.Errorf("client %d: %v", i, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		var maxExec uint64
		for _, r := range c.Replicas {
			if info := r.Info(); info.LastExec > maxExec {
				maxExec = info.LastExec
			}
		}
		if !c.WaitConverged(maxExec, 10*time.Second) {
			t.Fatal("replicas did not converge")
		}
		// All counter slots live in the first 8 KiB of the region.
		prefix := make([]byte, counterSlots*8)
		app := c.Apps[0].(*CounterApp)
		if _, err := app.region.ReadAt(prefix, 0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(c.Apps); i++ {
			other := make([]byte, counterSlots*8)
			if _, err := c.Apps[i].(*CounterApp).region.ReadAt(other, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(prefix, other) {
				t.Fatalf("shards=%d: replica %d region diverged from replica 0", shards, i)
			}
		}
		return prefix
	}
	serial := regionPrefix(1)
	sharded := regionPrefix(4)
	if !bytes.Equal(serial, sharded) {
		t.Fatal("sharded execution left different region content than serial execution")
	}
}

// TestExecReadOnlySharded: keyed read-only operations dispatch through
// the engine (off the protocol loop) and still assemble quorums.
func TestExecReadOnlySharded(t *testing.T) {
	o := fastOpts()
	o.ExecShards = 4
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 1,
		Seed:       13,
		App:        NewCounterFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 5; i++ {
		invokeMust(t, cl, "inc ro-key")
	}
	resp, err := cl.InvokeReadOnly(context.Background(), []byte("get ro-key"))
	if err != nil {
		t.Fatalf("read-only get: %v", err)
	}
	if got := string(invokeMust(t, cl, "get ro-key")); got != string(resp) {
		t.Fatalf("read-only path answered %x, ordered path %x", resp, got)
	}
	info := c.Replicas[0].Info()
	if info.Stats.ReadOnlyExec == 0 {
		t.Fatal("read-only op never took the read-only path")
	}
	if info.Stats.ExecSharded == 0 {
		t.Fatal("keyed ops never took the sharded path")
	}
}

// TestExecSQLSharded: the replicated SQL application is not a Sharder, so
// at ExecShards 4 it runs serially; it must still answer queries
// correctly and keep replicas digest-identical.
func TestExecSQLSharded(t *testing.T) {
	o := fastOpts()
	o.ExecShards = 4
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 2,
		Seed:       21,
		App:        NewSQLFactory(true, t.TempDir()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cl, err := c.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			for n := 0; n < 10; n++ {
				resp, err := cl.Invoke(context.Background(), sqlstate.EncodeExec(
					"INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, ?, now(), random())",
					sqldb.Text(fmt.Sprintf("voter-%d-%d", i, n)), sqldb.Text("yes")))
				if err != nil {
					t.Errorf("client %d insert %d: %v", i, n, err)
					return
				}
				if _, err := sqlstate.DecodeResponse(resp); err != nil {
					t.Errorf("client %d insert %d: %v", i, n, err)
					return
				}
				// Interleave reads (ordered and read-only path).
				q := sqlstate.EncodeQuery("SELECT count(*) FROM votes WHERE voter = ?",
					sqldb.Text(fmt.Sprintf("voter-%d-%d", i, n)))
				resp, err = cl.Invoke(context.Background(), q)
				if err != nil {
					t.Errorf("client %d query %d: %v", i, n, err)
					return
				}
				r, err := sqlstate.DecodeResponse(resp)
				if err != nil {
					t.Errorf("client %d query %d: %v", i, n, err)
					return
				}
				if got := r.Rows.Data[0][0].I; got != 1 {
					t.Errorf("client %d query %d: count = %d, want 1", i, n, got)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	cl, err := c.Client(0)
	if err == nil {
		defer cl.Close()
	}
	var maxExec uint64
	for _, r := range c.Replicas {
		if info := r.Info(); info.LastExec > maxExec {
			maxExec = info.LastExec
		}
	}
	if !c.WaitConverged(maxExec, 10*time.Second) {
		t.Fatal("replicas did not converge")
	}
	for i, r := range c.Replicas {
		if n := r.Info().Stats.ExecSharded; n != 0 {
			t.Fatalf("replica %d: %d SQL operations took the sharded path, want serial execution", i, n)
		}
	}
}
