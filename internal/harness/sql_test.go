package harness

import (
	"context"
	"testing"
	"time"

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
