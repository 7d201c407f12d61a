package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sqldb"
	"repro/sqlstate"
)

// workload is one fixed row of the benchmark. Names, configurations and
// rates are frozen: a later change is measured against these, it does not
// edit them. The rates were calibrated once, to 30 % of the closed-loop
// throughput at the commit that added the benchmark (see README.md).
type workload struct {
	name string
	// rate is the open-loop offered load in requests per second.
	rate float64
	// seedP50ms is the open-phase median latency measured when the rate was
	// frozen; client.over_limit_share counts requests slower than 10x this.
	seedP50ms float64
	// dynamic joins the clients through the §3.1 membership protocol.
	dynamic bool
	// crash kills the primary during the open phase and restarts it.
	crash bool
	// dataDir makes every replica durable (ClusterOptions.DataDir).
	dataDir bool
	options func() core.Options
	// app builds the per-replica application; dir is the run's scratch
	// directory.
	app func(dir string) harness.AppFactory
	// ops builds the run's operation source.
	ops func(seed int64, clients int) opSource
}

// opSource generates a workload's operations and checks their replies. next
// is called by one submitter goroutine per client; check by any waiter.
type opSource interface {
	next(client, n int, rng *rand.Rand) (body []byte, readOnly bool, tag uint64)
	check(tag uint64, reply []byte) error
	// preload returns statements client 0 executes serially during set-up.
	preload() [][]byte
	// verify runs after the final drain, over the live cluster.
	verify(ctx context.Context, cl *client.Client) error
}

// libOptions maps a Table 1 configuration onto library options, the way
// cmd/pbft-bench does.
func libOptions(static, macs bool) func() core.Options {
	return func() core.Options {
		return harness.BenchOptionsFor(harness.LibConfig{Static: static, MACs: macs, AllBig: false, Batch: true})
	}
}

// sqlOptions is sta_mac_noallbig_batch with a region that holds four times
// the rows sql_read_mix inserts today (its 8 MiB default holds about 70 000),
// so a faster system does not run the database out of space.
func sqlOptions() core.Options {
	o := libOptions(true, true)()
	o.StateSize = 32 << 20
	return o
}

const (
	nullSize    = 1024  // Table 1 request and reply size
	preloadRows = 20000 // sql_read_mix working set
	counterKeys = 128
)

var workloads = []workload{
	{
		name: "null_mac", rate: 3600, seedP50ms: 0.63,
		options: libOptions(true, true),
		app:     func(string) harness.AppFactory { return harness.NewEchoFactory(nullSize) },
		ops:     newEchoOps,
	},
	{
		name: "null_sig", rate: 850, seedP50ms: 1.84, dynamic: true,
		options: libOptions(false, false),
		app:     func(string) harness.AppFactory { return harness.NewEchoFactory(nullSize) },
		ops:     newEchoOps,
	},
	{
		name: "sql_acid", rate: 280, seedP50ms: 1.95, dataDir: true,
		options: sqlOptions,
		app: func(dir string) harness.AppFactory {
			return harness.NewSQLFactory(true, filepath.Join(dir, "sql"))
		},
		ops: func(int64, int) opSource { return &sqlOps{} },
	},
	{
		name: "sql_read_mix", rate: 5000, seedP50ms: 0.60,
		options: sqlOptions,
		app:     func(string) harness.AppFactory { return harness.NewSQLFactory(false, "") },
		ops:     func(int64, int) opSource { return &sqlOps{readShare: 0.8, rows: preloadRows} },
	},
	{
		name: "primary_crash", rate: 1000, seedP50ms: 0.82, crash: true, dataDir: true,
		options: func() core.Options {
			o := core.DefaultOptions()
			// Inline bodies: a crash that catches a big request agreed by
			// digest with every body copy volatile is the §2.4 wedge, which
			// has no escape yet (see harness.RunSoak).
			o.AllBig = false
			return o
		},
		app: func(string) harness.AppFactory { return harness.NewCounterFactory() },
		ops: func(int64, int) opSource { return &counterOps{} },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// echoOps is the paper's null operation: a fixed-size body, a fixed-size
// reply. Each client sends one seed-derived body over and over.
type echoOps struct{ bodies [][]byte }

func newEchoOps(seed int64, clients int) opSource {
	rng := rand.New(rand.NewSource(seed))
	o := &echoOps{}
	for i := 0; i < clients; i++ {
		b := make([]byte, nullSize)
		rng.Read(b)
		o.bodies = append(o.bodies, b)
	}
	return o
}

func (o *echoOps) next(client, _ int, _ *rand.Rand) ([]byte, bool, uint64) {
	return o.bodies[client], false, 0
}

func (o *echoOps) check(_ uint64, reply []byte) error {
	if len(reply) != nullSize {
		return fmt.Errorf("echo reply is %d bytes, want %d", len(reply), nullSize)
	}
	return nil
}

func (o *echoOps) preload() [][]byte                            { return nil }
func (o *echoOps) verify(context.Context, *client.Client) error { return nil }

// sqlOps is the Fig. 5 single-row INSERT, optionally mixed with point
// SELECTs of preloaded rows on the read-only path. tag 0 marks an insert;
// preloadTag a preload statement; any other tag is the rowid a select must
// return.
type sqlOps struct {
	readShare float64
	rows      int
}

// preloadTag is the tag set-up passes to check for preload statements.
const preloadTag = ^uint64(0)

const insertSQL = "INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, ?, now(), random())"

func preloadedVoter(rowid int) string { return fmt.Sprintf("pre-%d", rowid) }

func (o *sqlOps) next(client, n int, rng *rand.Rand) ([]byte, bool, uint64) {
	if o.readShare > 0 && rng.Float64() < o.readShare {
		rowid := 1 + rng.Intn(o.rows)
		return sqlstate.EncodeQuery("SELECT voter FROM votes WHERE rowid = ?", sqldb.Int(int64(rowid))), true, uint64(rowid)
	}
	voter := fmt.Sprintf("v-%d-%d-%08x", client, n, rng.Uint32())
	return sqlstate.EncodeExec(insertSQL, sqldb.Text(voter), sqldb.Text("yes")), false, 0
}

func (o *sqlOps) check(tag uint64, reply []byte) error {
	r, err := sqlstate.DecodeResponse(reply)
	if err != nil {
		return err
	}
	switch tag {
	case 0:
		if r.Result == nil || r.Result.RowsAffected != 1 {
			return fmt.Errorf("insert answered %+v, want one row affected", r)
		}
		return nil
	case preloadTag:
		if r.Result == nil || r.Result.RowsAffected < 1 {
			return fmt.Errorf("preload answered %+v, want rows affected", r)
		}
		return nil
	}
	if r.Rows == nil || len(r.Rows.Data) != 1 || len(r.Rows.Data[0]) != 1 || r.Rows.Data[0][0].S != preloadedVoter(int(tag)) {
		return fmt.Errorf("select rowid %d answered %+v, want %q", tag, r.Rows, preloadedVoter(int(tag)))
	}
	return nil
}

// preload fills the table 100 rows per statement; rowids are assigned in
// insertion order, so row i holds preloadedVoter(i).
func (o *sqlOps) preload() [][]byte {
	const perStmt = 100
	var out [][]byte
	for first := 1; first <= o.rows; first += perStmt {
		var sb strings.Builder
		sb.WriteString("INSERT INTO votes (voter, vote, ts, rnd) VALUES ")
		for r := first; r < first+perStmt && r <= o.rows; r++ {
			if r > first {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "('%s','yes',0,0)", preloadedVoter(r))
		}
		out = append(out, sqlstate.EncodeExec(sb.String()))
	}
	return out
}

func (o *sqlOps) verify(context.Context, *client.Client) error { return nil }

// counterOps bumps seed-chosen named counters of harness.CounterApp and
// counts the acknowledged bumps per counter.
type counterOps struct {
	acked [counterKeys]atomic.Int64
}

func counterName(k int) string { return fmt.Sprintf("key-%d", k) }

func (o *counterOps) next(_, _ int, rng *rand.Rand) ([]byte, bool, uint64) {
	k := rng.Intn(counterKeys)
	return []byte("bump " + counterName(k)), false, uint64(k)
}

func (o *counterOps) check(tag uint64, reply []byte) error {
	if !bytes.Equal(reply, []byte("OK")) {
		return fmt.Errorf("bump answered %q, want OK", reply)
	}
	o.acked[tag].Add(1)
	return nil
}

func (o *counterOps) preload() [][]byte { return nil }

// verify reads every counter back: it must equal the acknowledged bumps of
// all names stored in the same cell (CounterApp hashes names onto cells, and
// CounterKeys names the cell).
func (o *counterOps) verify(ctx context.Context, cl *client.Client) error {
	perCell := make(map[string]int64)
	cellOf := func(k int) string { return string(harness.CounterKeys([]byte("get " + counterName(k)))[0]) }
	for k := 0; k < counterKeys; k++ {
		perCell[cellOf(k)] += o.acked[k].Load()
	}
	for k := 0; k < counterKeys; k++ {
		reply, err := cl.Invoke(ctx, []byte("get "+counterName(k)))
		if err != nil {
			return fmt.Errorf("get %s: %w", counterName(k), err)
		}
		var got int64
		for _, b := range reply {
			got = got<<8 | int64(b)
		}
		if want := perCell[cellOf(k)]; len(reply) != 8 || got != want {
			return fmt.Errorf("counter %s reads %d, want %d acknowledged bumps", counterName(k), got, want)
		}
	}
	return nil
}
