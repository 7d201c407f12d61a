package sqlstate

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/internal/state"
)

func testRegion(t *testing.T) *state.Region {
	t.Helper()
	r, err := state.NewRegion(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegionFileReadWrite(t *testing.T) {
	region := testRegion(t)
	vfs, err := NewVFS(region, "db", "")
	if err != nil {
		t.Fatal(err)
	}
	defer vfs.Close()
	f, err := vfs.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 0 {
		t.Fatalf("fresh db size = %d", size)
	}
	data := []byte("hello replicated world")
	if _, err := f.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 122 {
		t.Fatalf("logical size = %d, want 122", size)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// The bytes live in the region (replicated).
	regionBytes := make([]byte, len(data))
	if _, err := region.ReadAt(regionBytes, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(regionBytes, data) {
		t.Fatal("database bytes must live in the replicated region")
	}
	// Truncation zeroes the tail (canonical digests).
	if err := f.Truncate(105); err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 105 {
		t.Fatalf("size after truncate = %d", size)
	}
	tail := make([]byte, 10)
	if _, err := region.ReadAt(tail, 105); err != nil {
		t.Fatal(err)
	}
	for _, b := range tail {
		if b != 0 {
			t.Fatal("truncated range must be zeroed")
		}
	}
}

func TestRegionFileCapacity(t *testing.T) {
	region := testRegion(t)
	vfs, err := NewVFS(region, "db", "")
	if err != nil {
		t.Fatal(err)
	}
	defer vfs.Close()
	f, err := vfs.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	// The last 8 bytes are VFS bookkeeping: writing into them must fail.
	if _, err := f.WriteAt([]byte("x"), region.Size()-4); err == nil {
		t.Fatal("write into the reserved tail must fail")
	}
	if err := f.Truncate(region.Size()); err == nil {
		t.Fatal("truncate beyond capacity must fail")
	}
}

func TestVFSNonDeterminismRouting(t *testing.T) {
	region := testRegion(t)
	vfs, err := NewVFS(region, "db", "")
	if err != nil {
		t.Fatal(err)
	}
	defer vfs.Close()
	nd := core.NonDetValues{Time: time.Unix(42, 99)}
	nd.Rand[0] = 7
	vfs.SetNonDet(nd)
	if !vfs.Now().Equal(time.Unix(42, 99)) {
		t.Fatalf("Now() = %v", vfs.Now())
	}
	var a, b [16]byte
	if err := vfs.Rand(a[:]); err != nil {
		t.Fatal(err)
	}
	if err := vfs.Rand(b[:]); err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("the random stream must advance")
	}
	// Re-setting the same non-determinism resets the stream: a second
	// replica executing the same request sees the same values.
	vfs.SetNonDet(nd)
	var a2 [16]byte
	if err := vfs.Rand(a2[:]); err != nil {
		t.Fatal(err)
	}
	if a != a2 {
		t.Fatal("the random stream must be a pure function of the agreed seed")
	}
	// Different seed, different stream.
	nd.Rand[0] = 8
	vfs.SetNonDet(nd)
	var c [16]byte
	if err := vfs.Rand(c[:]); err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different agreed seeds must give different streams")
	}
}

// TestVFSJournalOnDisk pins where the rollback journal lives now that it
// is the image's and not the pager's: a file in the disk directory, kept
// open, non-empty only while a persist is between its two fsyncs — and
// invisible through the sqldb.VFS surface, so no pager can ever find and
// replay it into the region.
func TestVFSJournalOnDisk(t *testing.T) {
	region := testRegion(t)
	dir := t.TempDir()
	vfs, err := NewVFS(region, "db", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer vfs.Close()
	journal := filepath.Join(dir, "db-journal")
	journalSize := func() int64 {
		t.Helper()
		st, err := os.Stat(journal)
		if err != nil {
			t.Fatalf("the journal must exist on disk for the life of the VFS: %v", err)
		}
		return st.Size()
	}
	if journalSize() != 0 {
		t.Fatal("a fresh journal must be empty")
	}
	f, err := vfs.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{1}, sqldb.PageSize)
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if err := vfs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Second interval: page 1 now has a before-image to journal. Hold
	// the persist between capture and run to see the journal untouched
	// until then.
	page[0] = 2
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	pages, persist := vfs.Capture()
	if pages != 1 || persist == nil {
		t.Fatalf("capture = %d pages, persist nil=%v; want 1 page", pages, persist == nil)
	}
	if journalSize() != 0 {
		t.Fatal("Capture must do no file I/O")
	}
	if err := persist(); err != nil {
		t.Fatal(err)
	}
	if journalSize() != 0 {
		t.Fatal("a completed persist must leave the journal invalidated")
	}
	if ok, _ := vfs.Exists("db-journal"); ok {
		t.Fatal("the journal must not be visible through the VFS")
	}
	if _, err := vfs.Open("db-journal"); err == nil {
		t.Fatal("the journal must not open through the VFS")
	}
	if err := vfs.Delete("db"); err == nil {
		t.Fatal("the region database must not be deletable")
	}
}

// TestVFSDiskImageSync: the disk image mirrors the region at every flush
// point (§3.2: the database file is synchronized with its disk image),
// and at no other time.
func TestVFSDiskImageSync(t *testing.T) {
	region := testRegion(t)
	dir := t.TempDir()
	vfs, err := NewVFS(region, "db", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer vfs.Close()
	f, err := vfs.Open("db")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	readImage := func() []byte {
		t.Helper()
		img, err := os.ReadFile(filepath.Join(dir, "db.image"))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	if len(readImage()) != 0 {
		t.Fatal("File.Sync must not touch the image: flush points do")
	}
	if err := vfs.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readImage(), payload) {
		t.Fatal("disk image must match the region after a flush")
	}
	// Several writes to one page in one interval reach the image once,
	// with the last content.
	for i := byte(1); i <= 3; i++ {
		payload[7] = i
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	if pages, persist := vfs.Capture(); pages != 1 {
		t.Fatalf("captured %d pages, want 1", pages)
	} else if err := persist(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readImage(), payload) {
		t.Fatal("disk image must hold the last write of the interval")
	}
	if pages, persist := vfs.Capture(); pages != 0 || persist != nil {
		t.Fatal("an interval without writes has nothing to persist")
	}
}

func TestAppExecuteSQL(t *testing.T) {
	app := NewApp(Options{
		Durable: false,
		InitSQL: []string{"CREATE TABLE kv (k TEXT, v TEXT)"},
	})
	app.AttachState(testRegion(t))
	nd := core.NonDetValues{Time: time.Unix(1, 0)}

	resp := app.Execute(EncodeExec("INSERT INTO kv VALUES ('a', '1')"), nd, false)
	r, err := DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.RowsAffected != 1 {
		t.Fatalf("result %+v", r.Result)
	}

	resp = app.Execute(EncodeQuery("SELECT v FROM kv WHERE k = ?", Text("a")), nd, true)
	r, err = DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows.Data) != 1 || r.Rows.Data[0][0].S != "1" {
		t.Fatalf("rows %+v", r.Rows)
	}

	// SQL errors come back as service errors.
	resp = app.Execute(EncodeExec("INSERT INTO missing VALUES (1)"), nd, false)
	if _, err := DecodeResponse(resp); err == nil {
		t.Fatal("error must round-trip")
	}
	// Mutation on the read-only path is refused.
	resp = app.Execute(EncodeExec("INSERT INTO kv VALUES ('b', '2')"), nd, true)
	if _, err := DecodeResponse(resp); err == nil {
		t.Fatal("read-only mutation must be refused")
	}
	// Garbage op.
	resp = app.Execute([]byte{0xFF, 0x01}, nd, false)
	if _, err := DecodeResponse(resp); err == nil {
		t.Fatal("garbage op must be refused")
	}
}

func TestAppDeterministicAcrossReplicas(t *testing.T) {
	// Two replicas of the app executing the same ordered ops with the
	// same non-determinism must produce identical region digests — the
	// property checkpoint agreement depends on.
	mk := func() (*App, *state.Region) {
		region := testRegion(t)
		app := NewApp(Options{
			Durable: false,
			InitSQL: []string{"CREATE TABLE t (v TEXT, ts INTEGER, r INTEGER)"},
		})
		app.AttachState(region)
		return app, region
	}
	a1, r1 := mk()
	a2, r2 := mk()
	ops := [][]byte{
		EncodeExec("INSERT INTO t VALUES ('x', now(), random())"),
		EncodeExec("INSERT INTO t VALUES ('y', now(), random())"),
		EncodeExec("UPDATE t SET v = 'z' WHERE v = 'x'"),
		EncodeExec("DELETE FROM t WHERE v = 'y'"),
	}
	for i, op := range ops {
		nd := core.NonDetValues{Time: time.Unix(int64(100+i), 0)}
		nd.Rand[5] = byte(i)
		out1 := a1.Execute(op, nd, false)
		out2 := a2.Execute(op, nd, false)
		if !bytes.Equal(out1, out2) {
			t.Fatalf("op %d: replies diverge", i)
		}
	}
	if r1.Root() != r2.Root() {
		t.Fatal("region digests diverge: replicas could never checkpoint")
	}
}

func TestAppSurvivesRegionRewrite(t *testing.T) {
	// Simulate a state transfer: replica B's region is overwritten with
	// replica A's content; B's engine must read it on its next statement.
	regionA := testRegion(t)
	appA := NewApp(Options{Durable: false, InitSQL: []string{"CREATE TABLE t (v INTEGER)"}})
	appA.AttachState(regionA)
	nd := core.NonDetValues{Time: time.Unix(5, 0)}
	for i := 0; i < 5; i++ {
		if _, err := DecodeResponse(appA.Execute(EncodeExec("INSERT INTO t VALUES (1)"), nd, false)); err != nil {
			t.Fatal(err)
		}
	}

	regionB := testRegion(t)
	appB := NewApp(Options{Durable: false, InitSQL: []string{"CREATE TABLE t (v INTEGER)"}})
	appB.AttachState(regionB)
	// Overwrite B's region with A's pages (what state transfer does).
	for p := 0; p < regionA.NumPages(); p++ {
		data, err := regionA.Page(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := regionB.ApplyPage(p, data); err != nil {
			t.Fatal(err)
		}
	}
	resp := appB.Execute(EncodeQuery("SELECT count(*) FROM t"), nd, false)
	r, err := DecodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows.Data[0][0].I != 5 {
		t.Fatalf("count after region rewrite = %v", r.Rows.Data)
	}
}

// TestRegionFullInsertRollsBack: an INSERT that outgrows the region fails
// inside the commit's flush, after the pages below the first one past
// the region's end (the header, the interior root, the last leaf) were
// already written to it. The rollback must put back every one of them —
// the region root and every row equal their values before the statement
// — and the next INSERT must succeed, as must the disk image's rebuild.
func TestRegionFullInsertRollsBack(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			region, err := state.NewRegion(16*sqldb.PageSize, sqldb.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{InitSQL: []string{"CREATE TABLE t (v TEXT)"}}
			if durable {
				opts.Durable, opts.DiskDir = true, t.TempDir()
			}
			app := NewApp(opts)
			app.AttachState(region)
			nd := core.NonDetValues{Time: time.Unix(7, 0)}
			big := Text(strings.Repeat("x", 3000)) // one row per leaf
			for i := 0; i < 5; i++ {
				mustExec(t, app, EncodeExec("INSERT INTO t VALUES (?)", big))
			}
			rows := func() string {
				t.Helper()
				r, err := DecodeResponse(app.Execute(EncodeQuery("SELECT rowid, length(v) FROM t"), nd, true))
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(r.Rows.Data)
			}
			wantRoot, wantRows := region.Root(), rows()

			var sb strings.Builder
			var args []sqldb.Value
			sb.WriteString("INSERT INTO t VALUES (?)")
			args = append(args, big)
			for i := 1; i < 12; i++ {
				sb.WriteString(", (?)")
				args = append(args, big)
			}
			_, err = DecodeResponse(app.Execute(EncodeExec(sb.String(), args...), nd, false))
			if err == nil || !strings.Contains(err.Error(), "grew past the region capacity") {
				t.Fatalf("INSERT past the region's end: %v", err)
			}
			if region.Root() != wantRoot {
				t.Fatal("the failed INSERT changed the region")
			}
			if got := rows(); got != wantRows {
				t.Fatalf("rows after the failed INSERT:\n%s\nwant\n%s", got, wantRows)
			}

			mustExec(t, app, EncodeExec("INSERT INTO t VALUES ('small')"))
			r, err := DecodeResponse(app.Execute(EncodeQuery("SELECT count(*), max(rowid) FROM t"), nd, true))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(r.Rows.Data); got != "[[6 6]]" {
				t.Fatalf("count, max rowid after the next INSERT = %s, want [[6 6]]", got)
			}
			if !durable {
				return
			}
			img, err := OpenDiskImage(opts.DiskDir)
			if err != nil {
				t.Fatal(err)
			}
			defer img.Close()
			imgRows, err := img.Query("SELECT rowid, length(v) FROM t")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(imgRows.Data), rows(); got != want {
				t.Fatalf("disk image rows %s, region rows %s", got, want)
			}
		})
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	r1, err := DecodeResponse(encodeResult(sqldb.Result{RowsAffected: 3, LastInsertID: 9}))
	if err != nil || r1.Result.RowsAffected != 3 || r1.Result.LastInsertID != 9 {
		t.Fatalf("%v %+v", err, r1)
	}
	rows := &sqldb.Rows{Columns: []string{"a", "b"}, Data: [][]sqldb.Value{
		{Int(1), Text("x")},
		{Null(), Bytes([]byte{9})},
	}}
	r2, err := DecodeResponse(encodeRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rows.Data) != 2 || r2.Rows.Data[0][1].S != "x" || !r2.Rows.Data[1][0].IsNull() {
		t.Fatalf("%+v", r2.Rows)
	}
	if _, err := DecodeResponse(encodeError(errors.New("boom"))); err == nil || err.Error() != "boom" {
		t.Fatalf("error round trip: %v", err)
	}
	if _, err := DecodeResponse([]byte{99}); err == nil {
		t.Fatal("malformed response must error")
	}
	if _, err := DecodeResponse(nil); err == nil {
		t.Fatal("empty response must error")
	}
}

func TestDurableRequiresDiskDir(t *testing.T) {
	app := NewApp(Options{Durable: true})
	app.AttachState(testRegion(t))
	resp := app.Execute(EncodeQuery("SELECT 1"), core.NonDetValues{}, false)
	if _, err := DecodeResponse(resp); err == nil {
		t.Fatal("durable mode without a disk directory must fail loudly")
	}
}

// TestTxnControlRejectedIdentically: explicit transaction control is
// rejected deterministically — a BEGIN that slipped through would hold
// the shared handle's transaction open across ordered operations — and
// the service answers normally afterwards.
func TestTxnControlRejectedIdentically(t *testing.T) {
	region, err := state.NewRegion(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	app := NewApp(Options{InitSQL: []string{"CREATE TABLE t (a INTEGER)"}})
	app.AttachState(region)
	if app.err != nil {
		t.Fatal(app.err)
	}
	nd := core.NonDetValues{}

	for _, sql := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		reply := app.Execute(EncodeExec(sql), nd, false)
		_, err := DecodeResponse(reply)
		if err == nil {
			t.Fatalf("%s: transaction control must be rejected", sql)
		}
		if err.Error() != errTxnControl.Error() {
			t.Fatalf("%s: rejected with %q, want %q", sql, err, errTxnControl)
		}
		if again := app.Execute(EncodeExec(sql), nd, false); !bytes.Equal(reply, again) {
			t.Fatalf("%s: rejection not deterministic: %q vs %q", sql, reply, again)
		}
		if app.DB().Pager().InTransaction() {
			t.Fatalf("%s: left a transaction open", sql)
		}
	}

	// The service keeps working afterwards.
	if _, err := DecodeResponse(app.Execute(EncodeExec("INSERT INTO t (a) VALUES (7)"), nd, false)); err != nil {
		t.Fatalf("insert after rejected txn control: %v", err)
	}
	res, err := DecodeResponse(app.Execute(EncodeQuery("SELECT a FROM t"), nd, false))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows.Data) != 1 || res.Rows.Data[0][0].I != 7 {
		t.Fatalf("rows = %+v, want [[7]]", res.Rows.Data)
	}
}
