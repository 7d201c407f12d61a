package harness

import (
	"context"
	"testing"
	"time"

	"repro/sqlstate"
)

// TestSQLSurvivesViewChange runs the §4.2 SQL workload across a primary
// failure: the replicated database must come out exactly-once consistent
// (no vote lost, none double-inserted) even though tentative executions
// were rolled back and re-run during the view change.
func TestSQLSurvivesViewChange(t *testing.T) {
	o := fastOpts()
	o.ViewChangeTimeout = 400 * time.Millisecond
	sqlDir := t.TempDir()
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 2,
		Seed:       70,
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

	insert := func(voter string) {
		t.Helper()
		resp, err := cl.Invoke(context.Background(), sqlstate.EncodeExec(
			"INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, 'y', now(), random())",
			sqlstate.Text(voter)))
		if err != nil {
			t.Fatalf("insert %s: %v", voter, err)
		}
		r, err := sqlstate.DecodeResponse(resp)
		if err != nil {
			t.Fatalf("insert %s: %v", voter, err)
		}
		if r.Result.RowsAffected != 1 {
			t.Fatalf("insert %s: %+v", voter, r.Result)
		}
	}

	for i := 0; i < 6; i++ {
		insert("before")
	}
	c.StopReplica(0) // primary of view 0
	for i := 0; i < 6; i++ {
		insert("after")
	}

	resp, err := cl.Invoke(context.Background(), sqlstate.EncodeQuery("SELECT count(*) FROM votes"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sqlstate.DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows.Data[0][0].I; got != 12 {
		t.Fatalf("votes = %d, want 12 (exactly-once across the view change)", got)
	}
	// Surviving replicas agree on the new view.
	for _, id := range []uint32{1, 2, 3} {
		if info := c.Replicas[id].Info(); info.View == 0 {
			t.Fatalf("replica %d still in view 0", id)
		}
	}
	// The view change rolled tentative executions back underneath the
	// database file (Region.Restore); every survivor's disk image must
	// have followed and hold exactly the rows the service answers.
	want := replicatedRows(t, cl)
	var last uint64
	for _, id := range []uint32{1, 2, 3} {
		last = max(last, c.Replicas[id].Info().LastExec)
	}
	if !c.WaitConverged(last, 5*time.Second) {
		t.Fatal("survivors did not converge")
	}
	cl.Close()
	c.Stop()
	for _, id := range []uint32{1, 2, 3} {
		if got := imageRows(t, sqlDir, id); got != want {
			t.Fatalf("replica %d image rows\n%s\nservice rows\n%s", id, got, want)
		}
	}
}

// TestSQLDurableDataSurvivesOnDisk checks the §3.2 by-product the paper
// advertises: a replica's database file is usable on its own — its disk
// image contains the committed rows and opens as an ordinary database.
func TestSQLDurableDataSurvivesOnDisk(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts()
	c, err := NewCluster(ClusterOptions{
		Opts:       o,
		NumClients: 1,
		Seed:       71,
		App:        NewSQLFactory(true, dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp, err := cl.Invoke(context.Background(), sqlstate.EncodeExec(
			"INSERT INTO votes (voter, vote, ts, rnd) VALUES ('d', 'y', now(), random())"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sqlstate.DecodeResponse(resp); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitConverged(5, 5*time.Second) {
		t.Fatal("not converged")
	}
	cl.Close()
	c.Stop()

	// Open replica 0's disk image directly with the embedded engine —
	// "its data will be usable on its own, being just another database
	// file" (§3.2).
	db, err := sqlstate.OpenDiskImage(dir + "/replica-0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.Query("SELECT count(*) FROM votes")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].I != 5 {
		t.Fatalf("disk image has %d votes, want 5", rows.Data[0][0].I)
	}
}
