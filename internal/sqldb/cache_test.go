package sqldb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The pager keeps no page past a transaction, and no page bytes it
// hands out ever change: the file lends views it never writes again, and
// the pager never writes a page it holds. These tests pin that, the
// in-place B-tree search against the decode-based one, and cursor errors
// surfacing from scans.

// checkNoOverlay fails unless the pager holds no transaction and no
// overlay page, dirty flag or before-image.
func checkNoOverlay(t *testing.T, p *Pager, step string) {
	t.Helper()
	if p.inTx || len(p.pages) != 0 || len(p.dirty) != 0 || len(p.before) != 0 {
		t.Fatalf("%s: outside a statement the pager holds a transaction (%v), %d overlay pages, %d dirty, %d before-images",
			step, p.inTx, len(p.pages), len(p.dirty), len(p.before))
	}
}

// handoutVFS is a MemVFS whose database file records every page buffer
// the pager can hand out through Get — the file's views, the buffers it
// reads copies into, the overlay pages it writes back — with the bytes
// each held when it passed by. With views off the file offers no views,
// so the pager reads by copy as over DiskVFS.
type handoutVFS struct {
	*MemVFS
	name  string
	views bool
	seen  map[*byte]handout
}

// handout is a page buffer and a copy of the bytes it held when noted.
type handout struct{ data, was []byte }

func (v *handoutVFS) Open(name string) (File, error) {
	f, err := v.MemVFS.Open(name)
	if err != nil || name != v.name {
		return f, err
	}
	if v.views {
		return &handoutViewFile{handoutFile{f, v}}, nil
	}
	return &handoutFile{f, v}, nil
}

// note records a page buffer the first time it passes by after a check.
func (v *handoutVFS) note(data []byte) {
	if len(data) != PageSize {
		return
	}
	if _, ok := v.seen[&data[0]]; !ok {
		v.seen[&data[0]] = handout{data, bytes.Clone(data)}
	}
}

// check fails if any page buffer noted since the last check holds other
// bytes now, and forgets them.
func (v *handoutVFS) check(t *testing.T, step string) {
	t.Helper()
	for _, h := range v.seen {
		if !bytes.Equal(h.data, h.was) {
			t.Fatalf("%s: a page buffer the pager handed out changed bytes", step)
		}
	}
	clear(v.seen)
}

type handoutFile struct {
	File
	vfs *handoutVFS
}

func (f *handoutFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if err == nil {
		f.vfs.note(p)
	}
	return n, err
}

func (f *handoutFile) WriteAt(p []byte, off int64) (int, error) {
	f.vfs.note(p)
	return f.File.WriteAt(p, off)
}

type handoutViewFile struct{ handoutFile }

func (f *handoutViewFile) ViewPage(pgno uint32) ([]byte, error) {
	data, err := f.File.(PageViewer).ViewPage(pgno)
	if err == nil {
		f.vfs.note(data)
	}
	return data, err
}

// treeShape returns the height of the tree rooted at root (1 = a lone
// leaf) and the root's cell count.
func treeShape(t *testing.T, p *Pager, root uint32) (height, rootCells int) {
	t.Helper()
	pgno := root
	for {
		data, err := p.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		height++
		if data[0] == pageLeaf {
			return height, rootCells
		}
		cells, right, err := decodeInterior(data)
		if err != nil {
			t.Fatal(err)
		}
		if pgno == root {
			rootCells = len(cells)
		}
		pgno = right
	}
}

// TestPagerCacheMatchesFileAcrossStatements runs a randomized workload
// through one long-lived DB and checks after every statement outside a
// transaction that the pager keeps no overlay, and that no page buffer it
// handed out since the last check — view, copy or overlay page — has
// changed bytes. The workload splits leaves (right edge and middle),
// splits interior nodes and the root, frees and recycles pages, and fails
// statements midway so they roll back; the durable variant also fails
// commits at their sync. It runs over a file with page views (MemVFS,
// the replicated region) and over one without (DiskVFS).
func TestPagerCacheMatchesFileAcrossStatements(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			for _, views := range []bool{true, false} {
				t.Run(fmt.Sprintf("views=%v", views), func(t *testing.T) {
					testPagerAcrossStatements(t, durable, views)
				})
			}
		})
	}
}

func testPagerAcrossStatements(t *testing.T, durable, views bool) {
	rnd := rand.New(rand.NewSource(38))
	mem := NewMemVFS()
	vfs := &handoutVFS{MemVFS: mem, name: "cache.db", views: views, seen: map[*byte]handout{}}
	db, err := Open(vfs, "cache.db", durable)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, ok := db.Pager().view.(*handoutViewFile); ok != views {
		t.Fatalf("pager reads through views: %v, want %v", ok, views)
	}
	p := db.Pager()
	text := func(n int) Value { return Text(strings.Repeat(string(rune('a'+rnd.Intn(26))), n)) }
	// A row's payload is its text plus 18 bytes.
	rowSize := func() int {
		switch r := rnd.Intn(5); {
		case r < 2:
			return 1280 + rnd.Intn(56) // three per leaf
		case r < 4:
			return 2100 + rnd.Intn(1400) // one per leaf
		default:
			return 10 + rnd.Intn(200)
		}
	}
	stmt := func(sql string, args ...Value) error {
		_, err := db.Exec(sql, args...)
		return err
	}
	mustStmt := func(sql string, args ...Value) {
		t.Helper()
		if err := stmt(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	check := func(step string) {
		t.Helper()
		checkNoOverlay(t, p, step)
		vfs.check(t, step)
	}
	mustStmt("CREATE TABLE t (k INTEGER, v TEXT)")
	cat, err := openCatalog(p)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := cat.lookup("t")
	if err != nil || meta == nil {
		t.Fatalf("lookup t: %v %v", meta, err)
	}
	tree := NewBTree(p, meta.Root) // a root page never moves
	// splitWays predicts how many pages an UPDATE setting rowid's
	// v leaves its leaf's cells on.
	splitWays := func(rowid int64, v Value) int {
		old, found, err := tree.Get(rowid)
		if err != nil || !found {
			return 0
		}
		vals, err := DecodeRow(old)
		if err != nil {
			t.Fatal(err)
		}
		return leafSplitWays(t, tree, rowid, EncodeRow([]Value{vals[0], v}))
	}
	nextRow, failed, syncFailed, threeWay := int64(1), 0, 0, 0
	for step := 0; step < 400; step++ {
		var label string
		switch op := rnd.Intn(20); {
		case op < 11: // multi-row insert; sometimes the last row is too big
			n := 1 + rnd.Intn(10)
			oversized := rnd.Intn(8) == 0
			var sb strings.Builder
			var args []Value
			sb.WriteString("INSERT INTO t VALUES ")
			for i := 0; i < n; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString("(?, ?)")
				size := rowSize()
				if oversized && i == n-1 {
					size = MaxPayload + 1
				}
				args = append(args, Int(int64(step)), text(size))
			}
			err := stmt(sb.String(), args...)
			if oversized != (err != nil) {
				t.Fatalf("step %d: insert of %d rows (oversized=%v): %v", step, n, oversized, err)
			}
			if err != nil {
				failed++
			} else {
				nextRow += int64(n)
			}
			label = "insert"
		case op < 14: // rewrite a row in the middle, often growing it
			// A row grown between two big neighbours splits its
			// leaf three ways.
			v, rowid := text(rowSize()), 1+rnd.Int63n(nextRow)
			if rnd.Intn(2) == 0 {
				// Grow a row past two thirds of a page, looking a
				// few times for one between two big neighbours.
				v = text(2800 + rnd.Intn(MaxPayload-18-2800+1))
				for try := 0; try < 8 && splitWays(rowid, v) != 3; try++ {
					rowid = 1 + rnd.Int63n(nextRow)
				}
			}
			if splitWays(rowid, v) == 3 {
				threeWay++
			}
			mustStmt("UPDATE t SET v = ? WHERE rowid = ?", v, Int(rowid))
			label = "update"
		case op < 15:
			lo := 1 + rnd.Int63n(nextRow)
			mustStmt("DELETE FROM t WHERE rowid >= ? AND rowid < ?", Int(lo), Int(lo+int64(rnd.Intn(4))))
			label = "delete"
		case op < 17: // a second table, dropped again: freelist traffic
			mustStmt("CREATE TABLE IF NOT EXISTS u (v TEXT)")
			for i := 0; i < 3; i++ {
				mustStmt("INSERT INTO u VALUES (?)", text(rowSize()))
				check(fmt.Sprintf("step %d: insert into u", step))
			}
			mustStmt("DROP TABLE u")
			label = "drop"
		case op < 19: // an explicit transaction, committed or rolled back
			mustStmt("BEGIN")
			n := 1 + rnd.Intn(4)
			for i := 0; i < n; i++ {
				mustStmt("INSERT INTO t VALUES (?, ?)", Int(int64(step)), text(rowSize()))
			}
			if rnd.Intn(2) == 0 {
				mustStmt("ROLLBACK")
				label = "rollback"
			} else {
				mustStmt("COMMIT")
				nextRow += int64(n)
				label = "commit"
			}
		default: // a commit failing at its sync (durable only)
			if !durable {
				continue
			}
			vfs.FailSyncAfter = mem.syncs + rnd.Intn(2)
			if err := stmt("INSERT INTO t VALUES (?, ?)", Int(int64(step)), text(rowSize())); err == nil {
				t.Fatalf("step %d: commit with a failing sync succeeded", step)
			}
			vfs.FailSyncAfter = -1
			syncFailed++
			label = "failed sync"
		}
		check(fmt.Sprintf("step %d: %s", step, label))
	}
	if failed == 0 || (durable && syncFailed == 0) {
		t.Fatalf("no statement rolled back (%d failed inserts, %d failed syncs)", failed, syncFailed)
	}
	t.Logf("%d UPDATEs split a leaf three ways", threeWay)
	if threeWay == 0 {
		t.Fatal("no UPDATE split a leaf three ways")
	}
	// Height 3 with at least two root cells: the root split as an
	// interior node, and an interior node below it split too.
	if height, rootCells := treeShape(t, p, meta.Root); height < 3 || rootCells < 2 {
		t.Fatalf("workload too small: tree height %d, %d root cells", height, rootCells)
	}
	// A fresh pager over the same file answers the same.
	fresh, err := Open(vfs, "cache.db", durable)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, q := range []string{"SELECT rowid, k, length(v) FROM t", "SELECT count(*) FROM t WHERE rowid = 17"} {
		want, err := fresh.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
			t.Fatalf("%s: long-lived handle and fresh handle disagree", q)
		}
	}
}

// childFor is the decode-based descent: the child of decoded interior
// cells covering rowid.
func childFor(cells []intCell, right uint32, rowid int64) uint32 {
	i := sort.Search(len(cells), func(i int) bool { return rowid <= cells[i].key })
	if i < len(cells) {
		return cells[i].child
	}
	return right
}

// decodedGet is BTree.Get done by decoding every node it visits.
func decodedGet(t *BTree, rowid int64) ([]byte, bool, error) {
	pgno := t.root
	for {
		data, err := t.pager.Get(pgno)
		if err != nil {
			return nil, false, err
		}
		switch data[0] {
		case pageLeaf:
			cells, _, err := decodeLeaf(data)
			if err != nil {
				return nil, false, err
			}
			i := sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= rowid })
			if i < len(cells) && cells[i].rowid == rowid {
				return cells[i].payload, true, nil
			}
			return nil, false, nil
		case pageInterior:
			cells, right, err := decodeInterior(data)
			if err != nil {
				return nil, false, err
			}
			pgno = childFor(cells, right, rowid)
		default:
			return nil, false, fmt.Errorf("sqldb: corrupt page %d", pgno)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestInPlaceSearchMatchesDecode compares the in-place leaf search and
// interior descent with the decode-based ones over random trees: every
// Get (present, deleted, absent, past either end), every SeekGE
// position, and every page's search on its own — then again with pages
// corrupted the ways the decoders reject.
func TestInPlaceSearchMatchesDecode(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		tree, pager := testTree(t)
		var keys []int64
		for i := 0; i < 400+rnd.Intn(800); i++ {
			k := rnd.Int63n(5000) - 100
			payload := bytes.Repeat([]byte{byte(k)}, rnd.Intn(600))
			if rnd.Intn(10) == 0 {
				payload = payload[:0] // empty payloads are cells too
			}
			if err := tree.Insert(k, payload); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
		for i := 0; i < len(keys)/5; i++ {
			if _, err := tree.Delete(keys[rnd.Intn(len(keys))]); err != nil {
				t.Fatal(err)
			}
		}
		targets := append([]int64{-1 << 62, -101, 5000, 1 << 62}, keys...)
		for i := 0; i < 200; i++ {
			targets = append(targets, rnd.Int63n(5200)-150)
		}
		compare := func(what string) {
			t.Helper()
			for _, k := range targets {
				got, gotFound, gotErr := tree.Get(k)
				want, wantFound, wantErr := decodedGet(tree, k)
				if errString(gotErr) != errString(wantErr) || gotFound != wantFound || !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: Get(%d) = %v %v %q, decoding gives %v %v %q",
						seed, what, k, len(got), gotFound, errString(gotErr), len(want), wantFound, errString(wantErr))
				}
			}
			for pgno := uint32(2); pgno <= pager.NumPages(); pgno++ {
				data, err := pager.Get(pgno)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range targets[:40] {
					switch data[0] {
					case pageLeaf:
						got, gotFound, gotErr := leafSearch(data, k)
						cells, _, wantErr := decodeLeaf(data)
						var want []byte
						wantFound := false
						if wantErr == nil {
							i := sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= k })
							if i < len(cells) && cells[i].rowid == k {
								want, wantFound = cells[i].payload, true
							}
						}
						if errString(gotErr) != errString(wantErr) || gotFound != wantFound || !bytes.Equal(got, want) {
							t.Fatalf("seed %d %s: leaf %d search %d: %v %q, decoding gives %v %q",
								seed, what, pgno, k, gotFound, errString(gotErr), wantFound, errString(wantErr))
						}
					case pageInterior:
						got, _, gotErr := interiorChild(data, k)
						cells, right, wantErr := decodeInterior(data)
						want := uint32(0)
						if wantErr == nil {
							want = childFor(cells, right, k)
						}
						if errString(gotErr) != errString(wantErr) || got != want {
							t.Fatalf("seed %d %s: interior %d child for %d: %d %q, decoding gives %d %q",
								seed, what, pgno, k, got, errString(gotErr), want, errString(wantErr))
						}
					}
				}
			}
		}
		compare("intact")
		// SeekGE positions through the in-place descent: every cursor
		// lands on the smallest live key >= target.
		live := map[int64]bool{}
		for cur := tree.First(); cur.Valid(); cur.Next() {
			live[cur.RowID()] = true
		}
		sorted := make([]int64, 0, len(live))
		for k := range live {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, k := range targets {
			cur := tree.SeekGE(k)
			i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= k })
			if cur.Err() != nil || cur.Valid() != (i < len(sorted)) || (cur.Valid() && cur.RowID() != sorted[i]) {
				t.Fatalf("seed %d: SeekGE(%d) lands wrong (err %v)", seed, k, cur.Err())
			}
		}

		// Corrupt pages: a leaf cell whose length runs past the page, a
		// leaf and an interior node whose cell counts do. Each is put
		// through Put, so the cache stays a copy of the file.
		corrupt := func(kind byte, mangle func(data []byte)) bool {
			for pgno := uint32(2); pgno <= pager.NumPages(); pgno++ {
				data, err := pager.Get(pgno)
				if err != nil {
					t.Fatal(err)
				}
				if data[0] != kind || int(data[1])<<8|int(data[2]) < 2 {
					continue
				}
				bad := bytes.Clone(data)
				mangle(bad)
				if err := pager.Put(pgno, bad); err != nil {
					t.Fatal(err)
				}
				return true
			}
			return false
		}
		lastCellLen := func(data []byte) {
			n := int(data[1])<<8 | int(data[2])
			off := pageHdrSize
			for i := 0; i < n-1; i++ {
				off += leafCellOvh + (int(data[off+8])<<8 | int(data[off+9]))
			}
			plen := PageSize - (off + leafCellOvh) + 1 // one byte past the page
			data[off+8], data[off+9] = byte(plen>>8), byte(plen)
		}
		if !corrupt(pageLeaf, lastCellLen) {
			t.Fatalf("seed %d: no leaf to corrupt", seed)
		}
		compare("leaf cell length past the page")
		if !corrupt(pageLeaf, func(data []byte) { data[1], data[2] = 0xff, 0xff }) {
			t.Fatalf("seed %d: no second leaf to corrupt", seed)
		}
		compare("leaf cell count past the page")
		if !corrupt(pageInterior, func(data []byte) { data[1], data[2] = 0x01, 0x60 }) {
			t.Fatalf("seed %d: no interior node to corrupt", seed)
		}
		compare("interior cell count past the page")
	}
}

// TestScanReportsMidScanCorruption: a full scan whose second leaf is
// corrupt must fail, not return the first leaf's rows as the whole
// table; likewise a catalog walk must report a corrupt catalog leaf, not
// "no such table".
func TestScanReportsMidScanCorruption(t *testing.T) {
	// secondLeaf returns the right child of a two-leaf tree's root.
	secondLeaf := func(t *testing.T, p *Pager, root uint32) uint32 {
		t.Helper()
		data, err := p.Get(root)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != pageInterior {
			t.Fatal("tree still a single leaf")
		}
		cells, right, err := decodeInterior(data)
		if err != nil || len(cells) != 1 {
			t.Fatalf("want a root over exactly two leaves, got %d cells (%v)", len(cells), err)
		}
		return right
	}
	// corruptPage breaks a page's type byte in the file and reopens.
	corruptPage := func(t *testing.T, vfs *MemVFS, pgno uint32) *DB {
		t.Helper()
		f, err := vfs.Open("scan.db")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0x7f}, int64(pgno-1)*PageSize); err != nil {
			t.Fatal(err)
		}
		db, err := Open(vfs, "scan.db", false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}

	t.Run("table", func(t *testing.T) {
		vfs := NewMemVFS()
		db, err := Open(vfs, "scan.db", false)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE t (v TEXT)")
		for i := 0; i < 3; i++ {
			mustExec(t, db, "INSERT INTO t VALUES (?)", Text(strings.Repeat("x", 1800)))
		}
		cat, _ := openCatalog(db.Pager())
		meta, err := cat.lookup("t")
		if err != nil {
			t.Fatal(err)
		}
		leaf := secondLeaf(t, db.Pager(), meta.Root)
		db.Close()
		db = corruptPage(t, vfs, leaf)
		for _, q := range []string{"SELECT count(*) FROM t", "SELECT v FROM t WHERE length(v) > 0"} {
			rows, err := db.Query(q)
			if err == nil {
				t.Fatalf("%s over a corrupt second leaf returned %v", q, rows.Data)
			}
		}
		if _, err := db.Exec("UPDATE t SET v = 'y'"); err == nil {
			t.Fatal("UPDATE over a corrupt second leaf succeeded")
		}
	})

	t.Run("catalog", func(t *testing.T) {
		vfs := NewMemVFS()
		db, err := Open(vfs, "scan.db", false)
		if err != nil {
			t.Fatal(err)
		}
		// Long table names fill the catalog's root leaf quickly.
		name := func(i int) string { return fmt.Sprintf("t%02d_%s", i, strings.Repeat("n", 600)) }
		n := 0
		for ; ; n++ {
			mustExec(t, db, fmt.Sprintf("CREATE TABLE %s (v INTEGER)", name(n)))
			root, err := db.Pager().CatalogRoot()
			if err != nil {
				t.Fatal(err)
			}
			if data, _ := db.Pager().Get(root); data[0] == pageInterior {
				break
			}
		}
		root, _ := db.Pager().CatalogRoot()
		leaf := secondLeaf(t, db.Pager(), root)
		db.Close()
		db = corruptPage(t, vfs, leaf)
		_, err = db.Query(fmt.Sprintf("SELECT v FROM %s", name(n)))
		if err == nil || strings.Contains(err.Error(), "no table") {
			t.Fatalf("lookup in a corrupt catalog leaf: %v", err)
		}
		if _, err := db.Tables(); err == nil {
			t.Fatal("listing a corrupt catalog succeeded")
		}
		if _, err := db.Exec("CREATE TABLE fresh (v INTEGER)"); err == nil {
			t.Fatal("CREATE over a corrupt catalog succeeded")
		}
	})
}
