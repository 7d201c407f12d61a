package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/sqlstate"
)

func sqlInsertMust(t *testing.T, cl *client.Client, voter string) {
	t.Helper()
	resp, err := cl.Invoke(context.Background(), sqlstate.EncodeExec(
		"INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, 'y', now(), random())", sqlstate.Text(voter)))
	if err != nil {
		t.Fatalf("insert %s: %v", voter, err)
	}
	if r, err := sqlstate.DecodeResponse(resp); err != nil || r.Result.RowsAffected != 1 {
		t.Fatalf("insert %s answered %+v, %v", voter, r, err)
	}
}

// hotJournal encodes a valid rollback journal (the sqldb format: magic,
// page count to truncate back to, checksummed before-images) holding one
// before-image for page 1.
func hotJournal(origCount uint32, page1 []byte) []byte {
	out := append([]byte("GoSQLjn1"), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(out[8:], origCount)
	sum := uint32(0x9E3779B9) ^ 1
	for i := 0; i < len(page1); i += 64 {
		sum = sum*31 + uint32(page1[i])
	}
	out = append(out, 0, 0, 0, 1)
	out = append(out, page1...)
	return binary.BigEndian.AppendUint32(out, sum)
}

// TestSpanFlushHotJournalNeverReachesRegion: a durable SQL replica that
// crashed between its journal fsync and the journal's invalidation
// restarts with a valid hot journal on disk. The journal belongs to the
// disk image: it is rolled back onto the image and emptied, and the
// region restored from the data directory stays exactly the
// Merkle-verified state of the manifest — the replica rejoins at its
// stable checkpoint with the digest it had.
func TestSpanFlushHotJournalNeverReachesRegion(t *testing.T) {
	sqlDir := t.TempDir()
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 1,
		Seed:       72,
		App:        NewSQLFactory(true, sqlDir),
		DataDir:    t.TempDir(),
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
	for i := 0; i < 10; i++ {
		sqlInsertMust(t, cl, fmt.Sprint("v", i))
	}
	waitReplicaStable(t, c, 3, 8, 10*time.Second)
	before := c.Replicas[3].Info()
	c.StopReplica(3)

	diskDir := filepath.Join(sqlDir, "replica-3")
	garbage := bytes.Repeat([]byte{0xEE}, sqldb.PageSize)
	journal := filepath.Join(diskDir, "state.db-journal")
	if err := os.WriteFile(journal, hotJournal(1, garbage), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartReplica(3); err != nil {
		t.Fatalf("restart over a hot journal: %v", err)
	}
	after := c.Replicas[3].Info()
	if after.Stats.Restarts != 1 || after.LastStable != before.LastStable || after.StableDigest != before.StableDigest {
		t.Fatalf("restarted at stable %d digest %x (restarts %d), crashed at stable %d digest %x",
			after.LastStable, after.StableDigest[:8], after.Stats.Restarts, before.LastStable, before.StableDigest[:8])
	}
	image, err := os.ReadFile(filepath.Join(diskDir, "state.db.image"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, garbage) {
		t.Fatalf("the image (%d bytes) was not rolled back to the journal's one before-image page", len(image))
	}
	if st, err := os.Stat(journal); err == nil && st.Size() != 0 {
		t.Fatalf("the journal still holds %d bytes after recovery", st.Size())
	}
	// The replica is a working member: the next operations reach it, and
	// the flush that follows rebuilds its image from the region.
	for i := 10; i < 16; i++ {
		sqlInsertMust(t, cl, fmt.Sprint("v", i))
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 16, 20*time.Second)
}

// TestSQLDiskLossDoesNotForkState: the disk directory of one replica's
// SQL image disappears mid-run. Whatever that does to the image, the
// replica's replicated state must not notice: no client error, the same
// stable digests, no state transfer to repair a fork. (The injected-fault
// twin, with the error counted, is sqlstate's
// TestSpanFlushDiskErrorDoesNotForkState.)
func TestSQLDiskLossDoesNotForkState(t *testing.T) {
	sqlDir := t.TempDir()
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 1,
		Seed:       75,
		App:        NewSQLFactory(true, sqlDir),
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
	for i := 0; i < 20; i++ {
		if i == 5 {
			if err := os.RemoveAll(filepath.Join(sqlDir, "replica-2")); err != nil {
				t.Fatal(err)
			}
		}
		sqlInsertMust(t, cl, fmt.Sprint("v", i))
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 16, 20*time.Second)
	if n := c.Replicas[2].Info().Stats.StateTransfers; n != 0 {
		t.Fatalf("replica 2 needed %d state transfers: a local disk error forked its state", n)
	}
}

// imageRows stops the cluster (draining every span and its flush) and
// reads all votes from replica id's disk image.
func imageRows(t *testing.T, sqlDir string, id uint32) string {
	t.Helper()
	db, err := sqlstate.OpenDiskImage(filepath.Join(sqlDir, fmt.Sprintf("replica-%d", id)))
	if err != nil {
		t.Fatalf("replica %d image: %v", id, err)
	}
	defer db.Close()
	rows, err := db.Query("SELECT voter, vote, ts, rnd FROM votes")
	if err != nil {
		t.Fatalf("replica %d image: %v", id, err)
	}
	return fmt.Sprint(rows.Data)
}

// replicatedRows is the same query through the replicated service.
func replicatedRows(t *testing.T, cl *client.Client) string {
	t.Helper()
	resp, err := cl.Invoke(context.Background(), sqlstate.EncodeQuery("SELECT voter, vote, ts, rnd FROM votes"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sqlstate.DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(r.Rows.Data)
}

// TestSQLImageFollowsStateTransfer: a replica that missed two checkpoint
// intervals catches up by state transfer, which installs pages underneath
// the database file. With no operation left to execute afterwards, its
// disk image must still hold exactly the rows the service answers.
func TestSQLImageFollowsStateTransfer(t *testing.T) {
	sqlDir := t.TempDir()
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 1,
		Seed:       73,
		App:        NewSQLFactory(true, sqlDir),
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
	c.Net.Isolate(ReplicaAddr(3))
	// Exactly two checkpoint intervals: the transfer lands on sequence
	// 16 and leaves the lagging replica nothing to execute.
	for i := 0; i < 16; i++ {
		sqlInsertMust(t, cl, fmt.Sprint("v", i))
	}
	waitStableDigests(t, c, []uint32{0, 1, 2}, 16, 10*time.Second)
	c.Net.Heal(ReplicaAddr(3))
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 16, 20*time.Second)
	info := c.Replicas[3].Info()
	if info.Stats.StateTransfers == 0 || info.LastExec != 16 {
		t.Fatalf("replica 3 did not catch up by state transfer alone: %+v", info)
	}
	want := replicatedRows(t, cl)
	cl.Close()
	c.Stop()
	for id := uint32(0); id < 4; id++ {
		if got := imageRows(t, sqlDir, id); got != want {
			t.Fatalf("replica %d image rows\n%s\nservice rows\n%s", id, got, want)
		}
	}
}

// TestSpanFlushCadenceIsLocal: where a replica flushes — reaper goroutine
// or protocol loop — is local tuning and must never reach replicated
// bytes. A durable SQL cluster mixing both agrees on every stable digest,
// and its clients see the reply streams a uniform cluster produces.
func TestSpanFlushCadenceIsLocal(t *testing.T) {
	const numClients, perClient = 4, 24
	var initSQL []string
	for i := 0; i < numClients; i++ {
		initSQL = append(initSQL, fmt.Sprintf("CREATE TABLE t%d (k INTEGER, ts INTEGER, rnd INTEGER)", i))
	}
	run := func(mixed bool) (streams [numClients][]string) {
		sqlDir := t.TempDir()
		co := ClusterOptions{
			Opts:       fastOpts(),
			NumClients: numClients,
			Seed:       74,
			App: func(id uint32) core.Application {
				return sqlstate.NewApp(sqlstate.Options{
					Durable: true, DiskDir: filepath.Join(sqlDir, fmt.Sprintf("replica-%d", id)), InitSQL: initSQL,
				})
			},
		}
		if mixed {
			co.LocalOpts = func(id uint32, o *core.Options) {
				o.AsyncReap = id&1 == 0
			}
		}
		c, err := NewCluster(co)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
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
				for n := 0; n < perClient; n++ {
					// Each client owns a table, so its replies do not
					// depend on how the clients interleave.
					op := sqlstate.EncodeExec(fmt.Sprintf("INSERT INTO t%d VALUES (?, now(), random())", i), sqlstate.Int(int64(n)))
					if n%4 == 3 {
						op = sqlstate.EncodeQuery(fmt.Sprintf("SELECT count(*), max(k) FROM t%d", i))
					}
					resp, err := cl.Invoke(context.Background(), op)
					if err != nil {
						t.Errorf("client %d op %d: %v", i, n, err)
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
		waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 8, 20*time.Second)
		return streams
	}
	uniform, mixed := run(false), run(true)
	for i := range uniform {
		if fmt.Sprint(uniform[i]) != fmt.Sprint(mixed[i]) {
			t.Fatalf("client %d: reply stream of the mixed cluster differs from the uniform one", i)
		}
	}
}
