package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/sqldb"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/sqlstate"
)

// Probes are fixed-iteration timing loops over each layer's public
// functions, run once at the end of a traced run (about two seconds in
// all). They are the per-layer baselines: a change to one layer should move
// its probe and the end-to-end metrics README.md names for it, and nothing
// else. Iteration counts are constants so two commits do the same work.

// perIter times n calls of fn and returns the mean per call.
func perIter(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

type probeSet struct {
	out map[string]metric
	err error
}

func (p *probeSet) ns(name string, d time.Duration) {
	p.out[name] = metric{Value: float64(d.Nanoseconds()), Unit: "ns"}
}

func (p *probeSet) us(name string, d time.Duration) {
	p.out[name] = metric{Value: float64(d.Nanoseconds()) / 1e3, Unit: "us"}
}

// must records the first probe failure; later probes still run so one
// broken layer does not hide the others' numbers from the error report.
func (p *probeSet) must(what string, err error) bool {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", what, err)
	}
	return err == nil
}

// runProbes runs every probe; dir hosts the ones that touch the disk.
func runProbes(dir string) (map[string]metric, error) {
	p := &probeSet{out: map[string]metric{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p.crypto()
	p.wire()
	p.udp()
	p.exec()
	p.state()
	p.sqldb(dir)
	p.sqlstate(dir)
	return p.out, p.err
}

func (p *probeSet) crypto() {
	msg := make([]byte, 1024)
	key := crypto.NewSessionKey([]byte("probe"))
	keys := make([]crypto.SessionKey, 4)
	for i := range keys {
		keys[i] = crypto.NewSessionKey([]byte{byte(i)})
	}
	kp, err := crypto.GenerateKeyPair(nil)
	if !p.must("crypto keys", err) {
		return
	}
	sig := kp.Sign(msg)
	p.ns("crypto.mac_1k_ns", perIter(20000, func(int) { key.MAC(msg) }))
	p.ns("crypto.authenticator4_1k_ns", perIter(5000, func(int) { crypto.ComputeAuthenticator(keys, msg) }))
	p.ns("crypto.sign_ns", perIter(2000, func(int) { kp.Sign(msg) }))
	ok := true
	p.ns("crypto.verify_sig_ns", perIter(2000, func(int) { ok = ok && crypto.Verify(kp.Public(), msg, sig) }))
	if !ok {
		p.must("crypto verify", fmt.Errorf("a valid signature was rejected"))
	}
	p.ns("crypto.digest_1k_ns", perIter(20000, func(int) { crypto.DigestOf(msg) }))
}

func (p *probeSet) wire() {
	pp := wire.PrePrepare{View: 1, Seq: 1}
	for i := 0; i < 64; i++ {
		pp.Entries = append(pp.Entries, wire.BatchEntry{Full: true,
			Req: wire.Request{ClientID: uint32(i), Timestamp: 1, Op: make([]byte, 1024)}})
	}
	raw := pp.Marshal()
	p.ns("wire.marshal_preprepare64_ns", perIter(2000, func(int) { pp.Marshal() }))
	var uerr error
	p.ns("wire.unmarshal_preprepare64_ns", perIter(2000, func(int) {
		if _, err := wire.UnmarshalPrePrepare(raw); err != nil {
			uerr = err
		}
	}))
	p.must("wire unmarshal", uerr)

	// One request-sized envelope through the MAC path both ways: seal,
	// marshal, unmarshal, verify one authenticator entry, release.
	keys := make([]crypto.SessionKey, 4)
	for i := range keys {
		keys[i] = crypto.NewSessionKey([]byte{byte(i)})
	}
	payload := make([]byte, 1024)
	verified := true
	roundtrip := func(int) {
		env := &wire.Envelope{Type: wire.MTRequest, Sender: 4, Payload: payload}
		env.SealMAC(keys)
		got, err := wire.UnmarshalEnvelope(env.Raw())
		verified = verified && err == nil && got.VerifyMACEntry(1, keys[1])
		env.ReleaseRaw()
	}
	const n = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.ns("wire.envelope_mac_roundtrip_ns", perIter(n, roundtrip))
	runtime.ReadMemStats(&after)
	p.out["wire.envelope_roundtrip_allocs"] = metric{Value: float64(after.Mallocs-before.Mallocs) / n, Unit: "count"}
	if !verified {
		p.must("wire envelope", fmt.Errorf("a sealed envelope failed to verify"))
	}
}

// udp is the reference for a later real-UDP workload: a 4-way broadcast of
// 1 KiB between two loopback sockets, counted in syscalls per datagram. A
// sandbox without loopback UDP reports zeros rather than failing the run.
func (p *probeSet) udp() {
	p.out["transport.udp_syscalls_per_dgram"] = metric{Unit: "count"}
	p.out["transport.udp_send_ns_per_dgram"] = metric{Unit: "ns"}
	a, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: udp probe skipped:", err)
		return
	}
	defer a.Close()
	b, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: udp probe skipped:", err)
		return
	}
	received := make(chan struct{})
	go func() {
		defer close(received)
		for pkt := range b.Recv() {
			pkt.Release()
		}
	}()
	addrs := []string{b.Addr(), b.Addr(), b.Addr(), b.Addr()}
	data := make([]byte, 1024)
	const rounds = 2000
	send := perIter(rounds, func(int) { _ = a.Broadcast(addrs, data) })
	// Loopback may still be delivering; datagrams it drops are not waited
	// for.
	for limit := time.Now().Add(200 * time.Millisecond); time.Now().Before(limit); time.Sleep(time.Millisecond) {
		if b.BatchStats().RecvMsgs >= rounds*uint64(len(addrs)) {
			break
		}
	}
	as, bs := a.BatchStats(), b.BatchStats()
	b.Close()
	<-received
	if as.SendMsgs > 0 {
		p.out["transport.udp_syscalls_per_dgram"] = metric{Unit: "count",
			Value: float64(as.SendCalls+bs.RecvCalls) / float64(as.SendMsgs)}
		p.ns("transport.udp_send_ns_per_dgram", send/time.Duration(len(addrs)))
	}
}

func (p *probeSet) exec() {
	key := [][]byte{[]byte("hot")}
	for _, c := range []struct {
		name   string
		shards int
	}{
		{"exec.submit_keyed_1shard_ns", 1},
		{"exec.submit_keyed_nshard_ns", runtime.GOMAXPROCS(0)},
	} {
		e := exec.New(c.shards)
		const n = 20000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.Submit(key, func() {})
		}
		e.Drain()
		p.ns(c.name, time.Since(t0)/n)
		e.Stop()
	}
}

func (p *probeSet) state() {
	const size = 8 << 20 // the null workloads' region size
	r, err := state.NewRegion(size, 0)
	if !p.must("state region", err) {
		return
	}
	pages := r.NumPages()
	page := make([]byte, r.PageSize())
	var werr error
	p.ns("state.write4k_ns", perIter(4096, func(i int) {
		if _, err := r.WriteAt(page, int64(i%pages)*int64(len(page))); err != nil {
			werr = err
		}
	}))
	p.must("state write", werr)
	r.Root()
	p.us("state.root_64dirty_us", perIter(50, func(i int) {
		for d := 0; d < 64; d++ {
			_, _ = r.WriteAt([]byte{byte(i)}, int64(d*31%pages)*int64(len(page)))
		}
		r.Root()
	}))
	p.us("state.snapshot_us", perIter(200, func(i int) {
		r.Snapshot(uint64(i + 1))
		r.ReleaseBelow(uint64(i + 1))
	}))
}

func (p *probeSet) sqldb(dir string) {
	const schema = "CREATE TABLE t (k TEXT, v TEXT, ts INTEGER, rnd INTEGER)"
	const insert = "INSERT INTO t VALUES (?, 'v', now(), random())"
	open := func(vfs sqldb.VFS, durable bool) *sqldb.DB {
		db, err := sqldb.Open(vfs, "probe.db", durable)
		if !p.must("sqldb open", err) {
			return nil
		}
		_, err = db.Exec(schema)
		p.must("sqldb schema", err)
		return db
	}
	var qerr error
	exec1 := func(db *sqldb.DB, sql string, args ...sqldb.Value) {
		if _, err := db.Exec(sql, args...); err != nil {
			qerr = err
		}
	}

	mem := open(sqldb.NewMemVFS(), false)
	if mem == nil {
		return
	}
	defer mem.Close()
	// The first 5000 rows also are the table the selects read.
	p.us("sqldb.insert_mem_us", perIter(5000, func(i int) { exec1(mem, insert, sqldb.Text(fmt.Sprint(i))) }))
	p.us("sqldb.point_select_us", perIter(5000, func(i int) {
		rows, err := mem.Query("SELECT k FROM t WHERE rowid = ?", sqldb.Int(int64(i%5000)+1))
		if err != nil || len(rows.Data) != 1 {
			qerr = fmt.Errorf("point select: %v", err)
		}
	}))
	p.us("sqldb.scan1000_us", perIter(200, func(int) {
		rows, err := mem.Query("SELECT count(*) FROM t WHERE rowid <= 1000 AND v = 'v'")
		if err != nil || rows.Data[0][0].I != 1000 {
			qerr = fmt.Errorf("scan: %v", err)
		}
	}))

	diskDir := filepath.Join(dir, "sqldb")
	if p.must("sqldb dir", os.MkdirAll(diskDir, 0o755)) {
		if disk := open(&sqldb.DiskVFS{Root: diskDir}, true); disk != nil {
			p.us("sqldb.insert_disk_durable_us", perIter(100, func(i int) { exec1(disk, insert, sqldb.Text(fmt.Sprint(i))) }))
			disk.Close()
		}
		f, err := sqldb.NewWALVFS(diskDir).Open("probe.pages")
		if p.must("sqldb wal open", err) {
			sectors := make([]byte, 8*512)
			p.us("sqldb.wal_sync_8sectors_us", perIter(100, func(i int) {
				sectors[0] = byte(i)
				if _, err := f.WriteAt(sectors, int64(i%16)*int64(len(sectors))); err != nil {
					qerr = err
				}
				if err := f.Sync(); err != nil {
					qerr = err
				}
			}))
			f.Close()
		}
	}
	p.must("sqldb statement", qerr)
}

// sqlstate executes on a bare state.Region with no consensus around it: the
// single-node baseline the replicated SQL workloads are compared with.
func (p *probeSet) sqlstate(dir string) {
	nd := core.NonDetValues{Time: time.Unix(1700000000, 0)}
	var xerr error
	run := func(app *sqlstate.App, op []byte, readOnly bool) {
		if _, err := sqlstate.DecodeResponse(app.Execute(op, nd, readOnly)); err != nil {
			xerr = err
		}
	}
	open := func(durable bool, diskDir string) *sqlstate.App {
		region, err := state.NewRegion(8<<20, 0)
		if !p.must("sqlstate region", err) {
			return nil
		}
		app := sqlstate.NewApp(sqlstate.Options{Durable: durable, DiskDir: diskDir, InitSQL: harness.VotesSchema})
		app.AttachState(region)
		return app
	}
	insert := func(i int) []byte {
		return sqlstate.EncodeExec(insertSQL, sqldb.Text(fmt.Sprint("probe-", i)), sqldb.Text("yes"))
	}
	diskDir := filepath.Join(dir, "sqlstate")
	if p.must("sqlstate dir", os.MkdirAll(diskDir, 0o755)) {
		if acid := open(true, diskDir); acid != nil {
			p.us("sqlstate.exec_insert_acid_us", perIter(100, func(i int) { run(acid, insert(i), false) }))
		}
	}
	if plain := open(false, ""); plain != nil {
		p.us("sqlstate.exec_insert_noacid_us", perIter(2000, func(i int) { run(plain, insert(i), false) }))
		sel := func(i int) []byte {
			return sqlstate.EncodeQuery("SELECT voter FROM votes WHERE rowid = ?", sqldb.Int(int64(i%2000)+1))
		}
		p.us("sqlstate.exec_select_us", perIter(2000, func(i int) { run(plain, sel(i), true) }))
	}
	p.must("sqlstate execute", xerr)
}
