package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func openTestDB(t *testing.T) (*DB, *MemVFS) {
	t.Helper()
	vfs := NewMemVFS()
	db, err := Open(vfs, "test.db", true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, vfs
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rows
}

func TestValueRoundTrip(t *testing.T) {
	rows := [][]Value{
		{},
		{Null()},
		{Int(42), Int(-42), Int(1 << 60)},
		{Real(3.14), Real(-0.5)},
		{Text(""), Text("hello"), Text("ünïcode")},
		{Bytes(nil), Bytes([]byte{0, 1, 2, 255})},
		{Null(), Int(1), Real(2), Text("3"), Bytes([]byte("4"))},
	}
	for i, row := range rows {
		enc := EncodeRow(row)
		if len(enc) != rowSize(row) {
			t.Fatalf("row %d: encodes to %d bytes, rowSize says %d", i, len(enc), rowSize(row))
		}
		got, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if len(got) != len(row) {
			t.Fatalf("row %d: arity %d != %d", i, len(got), len(row))
		}
		for j := range row {
			a, b := row[j], got[j]
			if a.T != b.T || a.I != b.I || a.F != b.F || a.S != b.S || string(a.Blob) != string(b.Blob) {
				t.Fatalf("row %d col %d: %v != %v", i, j, a, b)
			}
		}
	}
}

func TestValueCompareOrdering(t *testing.T) {
	ordered := []Value{
		Null(),
		Int(-5), Int(0), Real(0.5), Int(1), Real(99.5), Int(100),
		Text(""), Text("a"), Text("b"),
		Bytes([]byte("a")), Bytes([]byte("b")),
	}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			c := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Adjacent equal-valued entries (none here) aside, ordering
			// must match index order.
			if (c < 0) != (want < 0) || (c > 0) != (want > 0) {
				t.Fatalf("Compare(%v,%v) = %d, want sign %d", ordered[i], ordered[j], c, want)
			}
		}
	}
	if Equal(Null(), Null()) {
		t.Fatal("NULL must not equal NULL")
	}
	if !Equal(Int(3), Real(3)) {
		t.Fatal("3 must equal 3.0 across numeric types")
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE votes (voter TEXT, vote TEXT, ts INTEGER, rnd INTEGER)")
	res := mustExec(t, db, "INSERT INTO votes VALUES ('alice', 'yes', 100, 7)")
	if res.RowsAffected != 1 || res.LastInsertID != 1 {
		t.Fatalf("insert result %+v", res)
	}
	mustExec(t, db, "INSERT INTO votes (voter, vote, ts, rnd) VALUES ('bob', 'no', 200, 8), ('carol', 'yes', 300, 9)")

	rows := mustQuery(t, db, "SELECT voter, vote FROM votes WHERE vote = 'yes' ORDER BY voter")
	if !reflect.DeepEqual(rows.Columns, []string{"voter", "vote"}) {
		t.Fatalf("columns %v", rows.Columns)
	}
	if len(rows.Data) != 2 || rows.Data[0][0].S != "alice" || rows.Data[1][0].S != "carol" {
		t.Fatalf("data %v", rows.Data)
	}

	rows = mustQuery(t, db, "SELECT * FROM votes ORDER BY ts DESC LIMIT 2")
	if len(rows.Data) != 2 || rows.Data[0][0].S != "carol" || rows.Data[1][0].S != "bob" {
		t.Fatalf("data %v", rows.Data)
	}
}

func TestInsertParams(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v BLOB)")
	mustExec(t, db, "INSERT INTO kv VALUES (?, ?)", Text("key1"), Bytes([]byte{1, 2, 3}))
	rows := mustQuery(t, db, "SELECT v FROM kv WHERE k = ?", Text("key1"))
	if len(rows.Data) != 1 || string(rows.Data[0][0].Blob) != "\x01\x02\x03" {
		t.Fatalf("data %v", rows.Data)
	}
	if _, err := db.Exec("INSERT INTO kv VALUES (?, ?)", Text("only-one")); err == nil {
		t.Fatal("missing argument must error")
	}
}

func TestUpdateDelete(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'x')", i))
	}
	res := mustExec(t, db, "UPDATE t SET b = 'big' WHERE a > 5")
	if res.RowsAffected != 5 {
		t.Fatalf("updated %d rows", res.RowsAffected)
	}
	rows := mustQuery(t, db, "SELECT count(*) FROM t WHERE b = 'big'")
	if rows.Data[0][0].I != 5 {
		t.Fatalf("count %v", rows.Data)
	}
	res = mustExec(t, db, "DELETE FROM t WHERE a <= 3")
	if res.RowsAffected != 3 {
		t.Fatalf("deleted %d rows", res.RowsAffected)
	}
	rows = mustQuery(t, db, "SELECT count(*), min(a), max(a) FROM t")
	if rows.Data[0][0].I != 7 || rows.Data[0][1].I != 4 || rows.Data[0][2].I != 10 {
		t.Fatalf("aggregates %v", rows.Data)
	}
}

func TestAggregates(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE n (v INTEGER, r REAL)")
	mustExec(t, db, "INSERT INTO n VALUES (1, 1.5), (2, 2.5), (3, NULL)")
	rows := mustQuery(t, db, "SELECT count(*), count(r), sum(v), avg(v), sum(r) FROM n")
	d := rows.Data[0]
	if d[0].I != 3 || d[1].I != 2 || d[2].I != 6 {
		t.Fatalf("aggregates %v", d)
	}
	if d[3].F != 2.0 || d[4].F != 4.0 {
		t.Fatalf("avg/sum %v", d)
	}
	// Aggregates over an empty relation.
	rows = mustQuery(t, db, "SELECT count(*), sum(v), min(v) FROM n WHERE v > 100")
	d = rows.Data[0]
	if d[0].I != 0 || !d[1].IsNull() || !d[2].IsNull() {
		t.Fatalf("empty aggregates %v", d)
	}
}

func TestExpressions(t *testing.T) {
	db, _ := openTestDB(t)
	tests := []struct {
		sql  string
		want Value
	}{
		{"SELECT 1 + 2 * 3", Int(7)},
		{"SELECT (1 + 2) * 3", Int(9)},
		{"SELECT -4 + 1", Int(-3)},
		{"SELECT 10 / 4", Int(2)},
		{"SELECT 10.0 / 4", Real(2.5)},
		{"SELECT 'a' + 'b'", Text("ab")},
		{"SELECT 1 < 2 AND 2 < 3", Int(1)},
		{"SELECT 1 > 2 OR 2 > 3", Int(0)},
		{"SELECT NOT 0", Int(1)},
		{"SELECT 1 = 1", Int(1)},
		{"SELECT 1 != 1", Int(0)},
		{"SELECT 3 <= 3", Int(1)},
		{"SELECT NULL = NULL", Null()},
		{"SELECT 5 / 0", Null()},
		{"SELECT length('hello')", Int(5)},
	}
	for _, tt := range tests {
		rows := mustQuery(t, db, tt.sql)
		got := rows.Data[0][0]
		if got.T != tt.want.T || got.I != tt.want.I || got.F != tt.want.F || got.S != tt.want.S {
			t.Fatalf("%s = %v, want %v", tt.sql, got, tt.want)
		}
	}
}

func TestNowAndRandomRoutedThroughVFS(t *testing.T) {
	vfs := NewMemVFS()
	fixed := time.Unix(1234, 5678)
	vfs.NowFunc = func() time.Time { return fixed }
	vfs.RandFunc = func(p []byte) error {
		for i := range p {
			p[i] = 0xAB
		}
		return nil
	}
	db, err := Open(vfs, "t.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows := mustQuery(t, db, "SELECT now(), random()")
	if rows.Data[0][0].I != fixed.UnixNano() {
		t.Fatalf("now() = %d, want %d", rows.Data[0][0].I, fixed.UnixNano())
	}
	u := uint64(0xABABABABABABABAB)
	want := int64(u)
	if rows.Data[0][1].I != want {
		t.Fatalf("random() = %d, want %d", rows.Data[0][1].I, want)
	}
}

func TestTransactionsCommitRollback(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	mustExec(t, db, "ROLLBACK")
	rows := mustQuery(t, db, "SELECT count(*) FROM t")
	if rows.Data[0][0].I != 0 {
		t.Fatalf("rollback left %d rows", rows.Data[0][0].I)
	}
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	mustExec(t, db, "COMMIT")
	rows = mustQuery(t, db, "SELECT a FROM t")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 3 {
		t.Fatalf("commit result %v", rows.Data)
	}
	if _, err := db.Exec("COMMIT"); err != ErrNoTransaction {
		t.Fatalf("commit outside tx: %v", err)
	}
	if _, err := db.Exec("ROLLBACK"); err != ErrNoTransaction {
		t.Fatalf("rollback outside tx: %v", err)
	}
	mustExec(t, db, "BEGIN")
	if _, err := db.Exec("BEGIN"); err != ErrInTransaction {
		t.Fatalf("nested begin: %v", err)
	}
	mustExec(t, db, "COMMIT")
}

// TestFailedUpdateLeavesRowsInTransaction: an UPDATE whose second row
// fails leaves the first row as it was, so inside an explicit transaction
// (where no statement rollback runs) COMMIT stores no half-done UPDATE.
func TestFailedUpdateLeavesRowsInTransaction(t *testing.T) {
	for _, c := range []struct{ name, update string }{
		// TEXT + TEXT concatenates: rowid 1 grows to 1 501 bytes, rowid 2
		// past MaxPayload.
		{"size", "UPDATE t SET v = v + ?"},
		// OR short-circuits on rowid 1, so only rowid 2 calls the unknown
		// function.
		{"eval", "UPDATE t SET v = (rowid = 1 OR nosuchfn(?))"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, _ := openTestDB(t)
			mustExec(t, db, "CREATE TABLE t (v TEXT)")
			mustExec(t, db, "INSERT INTO t VALUES (?), (?)", Text("a"), Text(strings.Repeat("b", 3000)))
			mustExec(t, db, "BEGIN")
			if _, err := db.Exec(c.update, Text(strings.Repeat("c", 1500))); err == nil {
				t.Fatal("the failing UPDATE was accepted")
			}
			mustExec(t, db, "COMMIT")
			rows := mustQuery(t, db, "SELECT rowid, v FROM t WHERE rowid = 1")
			if got := fmt.Sprint(rows.Data); got != `[[1 "a"]]` {
				t.Fatalf("rowid 1 holds %.40s, want \"a\"", got)
			}
			rows = mustQuery(t, db, "SELECT length(v) FROM t WHERE rowid = 2")
			if got := rows.Data[0][0].I; got != 3000 {
				t.Fatalf("rowid 2 holds %d bytes, want 3000", got)
			}
		})
	}
}

func TestFailedStatementRollsBackAutocommit(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	// Second row references an unknown column: the whole statement
	// (both rows) must roll back.
	_, err := db.Exec("INSERT INTO t VALUES (1), (nosuchcol)")
	if err == nil {
		t.Fatal("expected error")
	}
	rows := mustQuery(t, db, "SELECT count(*) FROM t")
	if rows.Data[0][0].I != 0 {
		t.Fatalf("failed statement left %d rows", rows.Data[0][0].I)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "p.db", true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(vfs, "p.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.Query("SELECT b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 || rows.Data[0][0].S != "one" || rows.Data[1][0].S != "two" {
		t.Fatalf("data %v", rows.Data)
	}
}

func TestCrashRecoveryRollsBackHotJournal(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "c.db", true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")

	// Simulate a crash mid-commit: journal written and synced, database
	// half-written. We emulate by running a transaction, then manually
	// re-creating the "hot journal + modified db" condition: start a tx,
	// commit it, then restore the journal file as if the db write had
	// happened but the journal deletion had not.
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	// Peek the journal the commit will write by intercepting: commit,
	// then recreate a stale journal claiming the old state.
	p := db.Pager()
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Craft a hot journal that reverts page contents to "before row 2".
	// Easiest authentic path: do it with real pager calls.
	db, err = Open(vfs, "c.db", true)
	if err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, "SELECT count(*) FROM t")
	if rows.Data[0][0].I != 2 {
		t.Fatalf("both rows must be present, got %d", rows.Data[0][0].I)
	}
	db.Close()
}

func TestCrashMidCommitTornJournalIgnored(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "c2.db", true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	db.Close()

	// A torn journal (garbage header) must be discarded and the
	// database must open with its committed content intact.
	jf, err := vfs.Open("c2.db-journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteAt([]byte("garbage!"), 0); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	db, err = Open(vfs, "c2.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows := mustQuery(t, db, "SELECT count(*) FROM t")
	if rows.Data[0][0].I != 1 {
		t.Fatalf("count %v", rows.Data)
	}
	if ok, _ := vfs.Exists("c2.db-journal"); ok {
		t.Fatal("stale journal must be deleted")
	}
}

func TestHotJournalRecoveryRestoresBeforeImages(t *testing.T) {
	// Authentic crash: write the journal, apply the page writes, but
	// "crash" before the journal delete. Reopen must roll back.
	vfs := NewMemVFS()
	db, err := Open(vfs, "c3.db", true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")

	p := db.Pager()
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (2)") // runs inside the open tx
	// Reach into the pager like a crash would: write the journal and
	// flush pages, then abandon everything without deleting the journal.
	if err := p.writeJournal(); err != nil {
		t.Fatal(err)
	}
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	// "Power failure": drop the in-memory state without cleanup.
	db2, err := Open(vfs, "c3.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.Query("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].I != 1 {
		t.Fatalf("recovery must roll back the uncommitted row, got %d rows", rows.Data[0][0].I)
	}
}

func TestBTreeLargeVolume(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE big (k INTEGER, pad TEXT)")
	const n = 2000
	pad := make([]byte, 100)
	for i := range pad {
		pad[i] = 'x'
	}
	mustExec(t, db, "BEGIN")
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?, ?)", Int(int64(i)), Text(string(pad)))
	}
	mustExec(t, db, "COMMIT")
	rows := mustQuery(t, db, "SELECT count(*), min(k), max(k) FROM big")
	d := rows.Data[0]
	if d[0].I != n || d[1].I != 0 || d[2].I != n-1 {
		t.Fatalf("aggregates %v", d)
	}
	// Spot-check ordering through the leaf chain.
	rows = mustQuery(t, db, "SELECT k FROM big ORDER BY rowid LIMIT 5")
	for i, r := range rows.Data {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestBTreeRandomOperationsAgainstOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		vfs := NewMemVFS()
		pager, err := OpenPager(vfs, "bt.db", false)
		if err != nil {
			return false
		}
		defer pager.Close()
		tree, err := CreateBTree(pager)
		if err != nil {
			return false
		}
		oracle := make(map[int64][]byte)
		for op := 0; op < 600; op++ {
			key := int64(rnd.Intn(300))
			switch rnd.Intn(3) {
			case 0, 1: // insert/replace
				payload := make([]byte, rnd.Intn(200))
				rnd.Read(payload)
				if err := tree.Insert(key, payload); err != nil {
					return false
				}
				oracle[key] = payload
			case 2: // delete
				found, err := tree.Delete(key)
				if err != nil {
					return false
				}
				_, want := oracle[key]
				if found != want {
					return false
				}
				delete(oracle, key)
			}
		}
		// Full comparison via cursor.
		seen := 0
		prev := int64(-1 << 62)
		for cur := tree.First(); cur.Valid(); cur.Next() {
			if cur.RowID() <= prev {
				return false // ordering violated
			}
			prev = cur.RowID()
			want, ok := oracle[cur.RowID()]
			if !ok || string(want) != string(cur.Payload()) {
				return false
			}
			seen++
		}
		return seen == len(oracle)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRowSizeLimit(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t (v TEXT)")
	huge := make([]byte, MaxPayload+1)
	if _, err := db.Exec("INSERT INTO t VALUES (?)", Text(string(huge))); err == nil {
		t.Fatal("oversized row must be rejected")
	}
	// And the failed autocommit statement must leave no trace.
	rows := mustQuery(t, db, "SELECT count(*) FROM t")
	if rows.Data[0][0].I != 0 {
		t.Fatalf("count %v", rows.Data)
	}
}

func TestDropTableFreesAndForgets(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	mustExec(t, db, "DROP TABLE a")
	if _, err := db.Query("SELECT * FROM a"); err == nil {
		t.Fatal("dropped table must be gone")
	}
	if _, err := db.Exec("DROP TABLE a"); err == nil {
		t.Fatal("dropping a missing table must fail")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS a")
	// Pages must be recycled: creating a new table reuses freelist pages
	// rather than growing the file unboundedly.
	before := db.Pager().NumPages()
	mustExec(t, db, "CREATE TABLE b (y INTEGER)")
	after := db.Pager().NumPages()
	if after > before {
		t.Fatalf("pages grew %d -> %d despite freelist", before, after)
	}
}

func TestSQLSyntaxErrors(t *testing.T) {
	db, _ := openTestDB(t)
	bad := []string{
		"",
		"BANANA",
		"SELECT",
		"SELECT FROM",
		"CREATE TABLE",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"INSERT INTO",
		"INSERT INTO t VALUES",
		"SELECT * FROM t WHERE",
		"SELECT 'unterminated",
		"DELETE t",
		"UPDATE SET",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			if _, err := db.Query(sql); err == nil {
				t.Fatalf("%q must not parse", sql)
			}
		}
	}
}

func TestTablesListing(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t1 (a INTEGER)")
	mustExec(t, db, "CREATE TABLE t2 (b TEXT)")
	names, err := db.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("tables %v", names)
	}
}

func TestDiskVFS(t *testing.T) {
	dir := t.TempDir()
	vfs := &DiskVFS{Root: dir}
	db, err := Open(vfs, "disk.db", true)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (42)")
	db.Close()

	db2, err := Open(vfs, "disk.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].I != 42 {
		t.Fatalf("data %v", rows.Data)
	}
}

func TestNonDurableModeSkipsJournal(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "nd.db", false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if ok, _ := vfs.Exists("nd.db-journal"); ok {
		t.Fatal("non-durable mode must not write a journal")
	}
	if db.Pager().Syncs != 0 {
		t.Fatalf("non-durable mode issued %d syncs", db.Pager().Syncs)
	}
	// Explicit rollback still works (in-memory before-images).
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	mustExec(t, db, "ROLLBACK")
	rows := mustQuery(t, db, "SELECT count(*) FROM t")
	if rows.Data[0][0].I != 1 {
		t.Fatalf("count %v", rows.Data)
	}
}

func BenchmarkInsertDurable(b *testing.B) {
	dir := b.TempDir()
	vfs := &DiskVFS{Root: dir}
	db, err := Open(vfs, "bench.db", true)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (k TEXT, v TEXT, ts INTEGER, rnd INTEGER)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, 'v', now(), random())", Text(fmt.Sprint(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertNonDurable(b *testing.B) {
	dir := b.TempDir()
	vfs := &DiskVFS{Root: dir}
	db, err := Open(vfs, "bench.db", false)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (k TEXT, v TEXT, ts INTEGER, rnd INTEGER)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, 'v', now(), random())", Text(fmt.Sprint(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectScan1000(b *testing.B) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "bench.db", false)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (k INTEGER, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("BEGIN"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, 'value')", Int(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec("COMMIT"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Query("SELECT count(*) FROM t WHERE k >= 500")
		if err != nil || rows.Data[0][0].I != 500 {
			b.Fatalf("%v %v", err, rows)
		}
	}
}

func TestOrderByExpressionAndParamLimit(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b'), (5, 'e'), (4, 'd')")
	// Order by a computed key, descending, limited by a parameter.
	rows := mustQuery(t, db, "SELECT b FROM t ORDER BY a * -1 LIMIT ?", Int(3))
	if len(rows.Data) != 3 || rows.Data[0][0].S != "e" || rows.Data[1][0].S != "d" || rows.Data[2][0].S != "c" {
		t.Fatalf("data %v", rows.Data)
	}
	// Multi-key ordering with ties.
	mustExec(t, db, "INSERT INTO t VALUES (1, 'z')")
	rows = mustQuery(t, db, "SELECT a, b FROM t ORDER BY a, b DESC")
	if rows.Data[0][1].S != "z" || rows.Data[1][1].S != "a" {
		t.Fatalf("tie-break wrong: %v", rows.Data)
	}
	// LIMIT 0 and negative limits.
	rows = mustQuery(t, db, "SELECT a FROM t LIMIT 0")
	if len(rows.Data) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(rows.Data))
	}
	rows = mustQuery(t, db, "SELECT a FROM t LIMIT -1")
	if len(rows.Data) != 6 {
		t.Fatalf("negative limit must mean no limit, got %d rows", len(rows.Data))
	}
}

func TestTextComparisonsAndWhereOnRowid(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t (name TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('apple'), ('banana'), ('cherry')")
	rows := mustQuery(t, db, "SELECT name FROM t WHERE name > 'apple' ORDER BY name")
	if len(rows.Data) != 2 || rows.Data[0][0].S != "banana" {
		t.Fatalf("data %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT name FROM t WHERE rowid = 2")
	if len(rows.Data) != 1 || rows.Data[0][0].S != "banana" {
		t.Fatalf("data %v", rows.Data)
	}
	rows = mustQuery(t, db, "SELECT rowid FROM t WHERE name = 'cherry'")
	if len(rows.Data) != 1 || rows.Data[0][0].I != 3 {
		t.Fatalf("data %v", rows.Data)
	}
	// NULL comparisons never match.
	mustExec(t, db, "INSERT INTO t VALUES (NULL)")
	rows = mustQuery(t, db, "SELECT count(*) FROM t WHERE name = NULL")
	if rows.Data[0][0].I != 0 {
		t.Fatalf("NULL = NULL matched %d rows", rows.Data[0][0].I)
	}
	rows = mustQuery(t, db, "SELECT count(*) FROM t WHERE NOT (name = 'apple')")
	if rows.Data[0][0].I != 2 {
		t.Fatalf("NOT with NULL row: %d", rows.Data[0][0].I)
	}
}

func TestRowidPointQueryOptimization(t *testing.T) {
	db, _ := openTestDB(t)
	mustExec(t, db, "CREATE TABLE t (v TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('a'), ('b'), ('c'), ('d')")
	mustExec(t, db, "DELETE FROM t WHERE rowid = 3")

	tests := []struct {
		sql  string
		args []Value
		want []string
	}{
		{"SELECT v FROM t WHERE rowid = 2", nil, []string{"b"}},
		{"SELECT v FROM t WHERE 2 = rowid", nil, []string{"b"}},
		{"SELECT v FROM t WHERE rowid = ?", []Value{Int(4)}, []string{"d"}},
		{"SELECT v FROM t WHERE rowid = 1 + 1", nil, []string{"b"}},
		{"SELECT v FROM t WHERE rowid = 3", nil, nil},  // deleted
		{"SELECT v FROM t WHERE rowid = 99", nil, nil}, // absent
		{"SELECT v FROM t WHERE rowid = 2.0", nil, []string{"b"}},
		{"SELECT v FROM t WHERE rowid = 2.5", nil, nil}, // fractional
		{"SELECT v FROM t WHERE rowid = NULL", nil, nil},
		// Not a point query: must still work via scan.
		{"SELECT v FROM t WHERE rowid = rowid", nil, []string{"a", "b", "d"}},
		{"SELECT v FROM t WHERE rowid > 1", nil, []string{"b", "d"}},
	}
	for _, tt := range tests {
		rows := mustQuery(t, db, tt.sql, tt.args...)
		var got []string
		for _, r := range rows.Data {
			got = append(got, r[0].S)
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Fatalf("%s = %v, want %v", tt.sql, got, tt.want)
		}
	}

	// UPDATE and DELETE ride the same path.
	res := mustExec(t, db, "UPDATE t SET v = 'B' WHERE rowid = 2")
	if res.RowsAffected != 1 {
		t.Fatalf("update affected %d", res.RowsAffected)
	}
	res = mustExec(t, db, "DELETE FROM t WHERE rowid = ?", Int(1))
	if res.RowsAffected != 1 {
		t.Fatalf("delete affected %d", res.RowsAffected)
	}
	rows := mustQuery(t, db, "SELECT v FROM t ORDER BY rowid")
	if len(rows.Data) != 2 || rows.Data[0][0].S != "B" || rows.Data[1][0].S != "d" {
		t.Fatalf("final rows %v", rows.Data)
	}
}
