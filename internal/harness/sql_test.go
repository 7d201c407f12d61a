package harness

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/sqlstate"
)

func TestSQLClusterEndToEnd(t *testing.T) {
	o := fastOpts()
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 1,
		Seed:       20,
		App:        NewSQLFactory(true, t.TempDir()),
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

	// The e-voting insert of §4.2.
	for i := 0; i < 5; i++ {
		resp, err := cl.Invoke(context.Background(), sqlstate.EncodeExec(
			"INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, ?, now(), random())",
			sqldb.Text("alice"), sqldb.Text("yes")))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		r, err := sqlstate.DecodeResponse(resp)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if r.Result.RowsAffected != 1 {
			t.Fatalf("insert %d: %+v", i, r.Result)
		}
	}
	// Query through ordered path: replies must match across replicas
	// (the paper added ts/rnd columns exactly to verify this).
	resp, err := cl.Invoke(context.Background(), sqlstate.EncodeQuery("SELECT count(*), min(rnd), max(rnd) FROM votes"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sqlstate.DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Data[0][0].I != 5 {
		t.Fatalf("count = %v", r.Rows.Data)
	}
	// If ts/rnd were not deterministic, replicas would have diverged and
	// the client could not have assembled matching reply quorums above.

	// Read-only query path.
	resp, err = cl.InvokeReadOnly(context.Background(), sqlstate.EncodeQuery("SELECT count(*) FROM votes"))
	if err != nil {
		t.Fatal(err)
	}
	r, err = sqlstate.DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Data[0][0].I != 5 {
		t.Fatalf("read-only count = %v", r.Rows.Data)
	}
	// A mutating statement on the read-only path must be refused.
	resp, err = cl.InvokeReadOnly(context.Background(), sqlstate.EncodeExec("DELETE FROM votes"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sqlstate.DecodeResponse(resp); err == nil {
		t.Fatal("mutation via read-only path must fail")
	}
}

func TestSQLClusterRestartStateTransfer(t *testing.T) {
	o := fastOpts()
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 1,
		Seed:       21,
		App:        NewSQLFactory(true, t.TempDir()),
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

	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := cl.Invoke(context.Background(), sqlstate.EncodeExec(
				"INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, 'y', now(), random())",
				sqldb.Text("v")))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sqlstate.DecodeResponse(resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(5)
	c.StopReplica(2)
	insert(20) // well past a checkpoint (K=8)
	if err := c.RestartReplica(2); err != nil {
		t.Fatal(err)
	}
	insert(10)
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := c.Replicas[2].Info()
		if info.LastExec >= 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 2 stuck: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The restarted replica's database content must now answer queries
	// consistently (it participates in reply quorums).
	resp, err := cl.Invoke(context.Background(), sqlstate.EncodeQuery("SELECT count(*) FROM votes"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sqlstate.DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Data[0][0].I != 35 {
		t.Fatalf("count = %v, want 35", r.Rows.Data)
	}
}

// replyLog wraps a replica's SQL application and keeps the last reply it
// computed for each operation, so a test can compare replicas reply by
// reply rather than through the client's quorum.
type replyLog struct {
	*sqlstate.App
	mu      sync.Mutex
	replies map[string][]byte
}

func (l *replyLog) Execute(op []byte, nd core.NonDetValues, readOnly bool) []byte {
	out := l.App.Execute(op, nd, readOnly)
	l.mu.Lock()
	l.replies[string(op)] = bytes.Clone(out)
	l.mu.Unlock()
	return out
}

// describeReply renders a SQL reply for a failure message.
func describeReply(b []byte) string {
	r, err := sqlstate.DecodeResponse(b)
	switch {
	case err != nil:
		return "error " + err.Error()
	case r.Rows != nil:
		return fmt.Sprint(r.Rows.Data)
	default:
		return fmt.Sprintf("%+v", r.Result)
	}
}

func (l *replyLog) reply(op []byte) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out, ok := l.replies[string(op)]
	return out, ok
}

// TestSQLWarmCacheFollowsStateTransfer: a replica whose SQL engine has
// its pages cached falls behind a checkpoint and catches up by state
// transfer, which installs region pages underneath the engine. Its next
// SELECT and INSERT must answer exactly what the other replicas answer —
// a cache kept from before the transfer would serve the old rows and
// hand out an old rowid — and the next stable digest must agree.
func TestSQLWarmCacheFollowsStateTransfer(t *testing.T) {
	logs := make([]*replyLog, 4)
	sqlApp := NewSQLFactory(false, "")
	c, err := NewCluster(ClusterOptions{
		Opts:       fastOpts(),
		NumClients: 1,
		Seed:       38,
		App: func(id uint32) core.Application {
			logs[id] = &replyLog{App: sqlApp(id).(*sqlstate.App), replies: make(map[string][]byte)}
			return logs[id]
		},
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

	// Warm every replica's pager: two inserts and a read.
	sqlInsertMust(t, cl, "warm0")
	sqlInsertMust(t, cl, "warm1")
	if _, err := cl.InvokeReadOnly(context.Background(), sqlstate.EncodeQuery("SELECT voter FROM votes")); err != nil {
		t.Fatal(err)
	}
	if !c.WaitConverged(2, 5*time.Second) {
		t.Fatal("warm-up did not converge")
	}
	c.Net.Isolate(ReplicaAddr(3))
	// Up to checkpoint 16 exactly: the transfer leaves replica 3
	// nothing to execute, so the statements below are the first its
	// engine runs over the transferred pages.
	for i := 2; i < 16; i++ {
		sqlInsertMust(t, cl, fmt.Sprint("v", i))
	}
	waitStableDigests(t, c, []uint32{0, 1, 2}, 16, 10*time.Second)
	c.Net.Heal(ReplicaAddr(3))
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 16, 20*time.Second)
	if info := c.Replicas[3].Info(); info.Stats.StateTransfers == 0 || info.LastExec != 16 {
		t.Fatalf("replica 3 did not catch up by state transfer alone: %+v", info)
	}

	sel := sqlstate.EncodeQuery("SELECT count(*), max(rowid), min(voter), max(voter) FROM votes")
	resp, err := cl.InvokeReadOnly(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := sqlstate.DecodeResponse(resp); err != nil || r.Rows.Data[0][0].I != 16 {
		t.Fatalf("count after the transfer: %+v, %v", r, err)
	}
	ins := sqlstate.EncodeExec("INSERT INTO votes (voter, vote, ts, rnd) VALUES ('after', 'y', now(), random())")
	if _, err := cl.Invoke(context.Background(), ins); err != nil {
		t.Fatal(err)
	}
	for _, op := range [][]byte{sel, ins} {
		replies := make([][]byte, 4)
		deadline := time.Now().Add(5 * time.Second)
		for id := range logs {
			for {
				var ok bool
				if replies[id], ok = logs[id].reply(op); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%q: replica %d never executed it", op, id)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		for id := 1; id < 4; id++ {
			if !bytes.Equal(replies[id], replies[0]) {
				t.Fatalf("%q: replica %d answered %s, replica 0 %s", op, id, describeReply(replies[id]), describeReply(replies[0]))
			}
		}
	}
	// The insert reached replica 3's region the way it reached the
	// others': the next checkpoint agrees.
	for i := 17; i < 24; i++ {
		sqlInsertMust(t, cl, fmt.Sprint("v", i))
	}
	waitStableDigests(t, c, []uint32{0, 1, 2, 3}, 24, 10*time.Second)
}
