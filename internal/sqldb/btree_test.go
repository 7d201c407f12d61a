package sqldb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func testTree(t *testing.T) (*BTree, *Pager) {
	t.Helper()
	vfs := NewMemVFS()
	pager, err := OpenPager(vfs, "bt.db", false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pager.Close() })
	tree, err := CreateBTree(pager)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pager
}

func TestBTreeBasicCRUD(t *testing.T) {
	tree, _ := testTree(t)
	if _, found, err := tree.Get(1); err != nil || found {
		t.Fatalf("empty tree Get: %v %v", found, err)
	}
	if err := tree.Insert(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tree.Get(1)
	if err != nil || !found || string(v) != "one" {
		t.Fatalf("%q %v %v", v, found, err)
	}
	// Replace in place.
	if err := tree.Insert(1, []byte("uno")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tree.Get(1)
	if string(v) != "uno" {
		t.Fatalf("%q", v)
	}
	found, err = tree.Delete(1)
	if err != nil || !found {
		t.Fatalf("%v %v", found, err)
	}
	found, err = tree.Delete(1)
	if err != nil || found {
		t.Fatal("double delete must report not-found")
	}
	if _, found, _ := tree.Get(1); found {
		t.Fatal("deleted row still visible")
	}
}

func TestBTreeSequentialSplitChain(t *testing.T) {
	// Monotonic inserts with payloads large enough to force many leaf
	// splits and at least one interior split.
	tree, _ := testTree(t)
	payload := bytes.Repeat([]byte{7}, 900) // ~4 cells per page
	const n = 3000
	for i := int64(0); i < n; i++ {
		if err := tree.Insert(i, payload); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Every key readable.
	for _, k := range []int64{0, 1, n / 2, n - 2, n - 1} {
		if _, found, err := tree.Get(k); err != nil || !found {
			t.Fatalf("Get(%d): %v %v", k, found, err)
		}
	}
	// The cursor sees all keys in order across the leaf chain.
	count := int64(0)
	for cur := tree.First(); cur.Valid(); cur.Next() {
		if cur.RowID() != count {
			t.Fatalf("cursor at %d, want %d", cur.RowID(), count)
		}
		count++
	}
	if count != n {
		t.Fatalf("cursor saw %d rows, want %d", count, n)
	}
}

func TestBTreeReverseAndInterleavedInserts(t *testing.T) {
	tree, _ := testTree(t)
	payload := bytes.Repeat([]byte{1}, 500)
	// Reverse order stresses the left-edge split path.
	for i := int64(999); i >= 0; i-- {
		if err := tree.Insert(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave fresh keys between existing ones.
	for i := int64(0); i < 1000; i++ {
		if err := tree.Insert(10000+i*2, payload); err != nil {
			t.Fatal(err)
		}
	}
	prev := int64(-1)
	n := 0
	for cur := tree.First(); cur.Valid(); cur.Next() {
		if cur.RowID() <= prev {
			t.Fatalf("order violated: %d after %d", cur.RowID(), prev)
		}
		prev = cur.RowID()
		n++
	}
	if n != 2000 {
		t.Fatalf("saw %d rows, want 2000", n)
	}
}

func TestBTreeSeekGE(t *testing.T) {
	tree, _ := testTree(t)
	for _, k := range []int64{10, 20, 30, 40} {
		if err := tree.Insert(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		target int64
		want   int64
		valid  bool
	}{
		{5, 10, true}, {10, 10, true}, {11, 20, true}, {40, 40, true}, {41, 0, false},
	}
	for _, tt := range tests {
		cur := tree.SeekGE(tt.target)
		if cur.Valid() != tt.valid {
			t.Fatalf("SeekGE(%d).Valid() = %v", tt.target, cur.Valid())
		}
		if tt.valid && cur.RowID() != tt.want {
			t.Fatalf("SeekGE(%d) = %d, want %d", tt.target, cur.RowID(), tt.want)
		}
	}
}

func TestBTreeCursorSkipsEmptiedLeaves(t *testing.T) {
	tree, _ := testTree(t)
	payload := bytes.Repeat([]byte{2}, 800)
	for i := int64(0); i < 50; i++ {
		if err := tree.Insert(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Hollow out the middle.
	for i := int64(10); i < 40; i++ {
		if _, err := tree.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	for cur := tree.First(); cur.Valid(); cur.Next() {
		got = append(got, cur.RowID())
	}
	if len(got) != 20 || got[9] != 9 || got[10] != 40 {
		t.Fatalf("rows = %v", got)
	}
}

func TestBTreePayloadLimit(t *testing.T) {
	tree, _ := testTree(t)
	if err := tree.Insert(1, make([]byte, MaxPayload)); err != nil {
		t.Fatalf("max payload must fit: %v", err)
	}
	if err := tree.Insert(2, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload must be rejected")
	}
}

func TestBTreeManyTreesSharePager(t *testing.T) {
	_, pager := testTree(t)
	trees := make([]*BTree, 5)
	for i := range trees {
		tr, err := CreateBTree(pager)
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
	}
	for i, tr := range trees {
		for k := int64(0); k < 50; k++ {
			if err := tr.Insert(k, []byte(fmt.Sprintf("t%d-%d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, tr := range trees {
		v, found, err := tr.Get(25)
		if err != nil || !found || string(v) != fmt.Sprintf("t%d-25", i) {
			t.Fatalf("tree %d: %q %v %v", i, v, found, err)
		}
	}
}

func TestPagerFreelistReuse(t *testing.T) {
	vfs := NewMemVFS()
	pager, err := OpenPager(vfs, "fl.db", false)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	a, err := pager.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pager.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	grown := pager.NumPages()
	if err := pager.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := pager.Free(b); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse, no growth.
	c, err := pager.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	d, err := pager.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if c != b || d != a {
		t.Fatalf("reuse order: got %d,%d want %d,%d", c, d, b, a)
	}
	if pager.NumPages() != grown {
		t.Fatalf("pages grew from %d to %d despite freelist", grown, pager.NumPages())
	}
	// Freshly allocated pages are zeroed.
	data, err := pager.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, by := range data {
		if by != 0 {
			t.Fatal("recycled page must be zeroed")
		}
	}
}

func TestPagerTransactionGuards(t *testing.T) {
	vfs := NewMemVFS()
	pager, err := OpenPager(vfs, "tx.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	if err := pager.Commit(); err != ErrNoTransaction {
		t.Fatalf("%v", err)
	}
	if err := pager.Rollback(); err != ErrNoTransaction {
		t.Fatalf("%v", err)
	}
	if err := pager.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := pager.Begin(); err != ErrInTransaction {
		t.Fatalf("%v", err)
	}
	if !pager.InTransaction() {
		t.Fatal("InTransaction")
	}
	if err := pager.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPagerRollbackRestoresAllocations(t *testing.T) {
	vfs := NewMemVFS()
	pager, err := OpenPager(vfs, "ra.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	before := pager.NumPages()
	if err := pager.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := pager.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := pager.Rollback(); err != nil {
		t.Fatal(err)
	}
	if pager.NumPages() != before {
		t.Fatalf("pages = %d after rollback, want %d", pager.NumPages(), before)
	}
	// Header freelist must be back to its original state too: allocate
	// again and confirm the file grows from the same point.
	if err := pager.Begin(); err != nil {
		t.Fatal(err)
	}
	p, err := pager.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if p != before+1 {
		t.Fatalf("allocation after rollback = %d, want %d", p, before+1)
	}
	if err := pager.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPagerSyncFailureAborts(t *testing.T) {
	vfs := NewMemVFS()
	pager, err := OpenPager(vfs, "sf.db", true)
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	tree, err := CreateBTree(pager)
	if err != nil {
		t.Fatal(err)
	}
	// Committed baseline.
	if err := pager.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := pager.Commit(); err != nil {
		t.Fatal(err)
	}
	// Now make the next sync fail: the commit must abort and roll back.
	vfs.FailSyncAfter = int(vfs.syncs)
	if err := pager.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(2, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := pager.Commit(); err == nil {
		t.Fatal("commit with failing sync must error")
	}
	vfs.FailSyncAfter = -1
	if _, found, _ := tree.Get(2); found {
		t.Fatal("aborted commit must leave no trace")
	}
	if _, found, _ := tree.Get(1); !found {
		t.Fatal("earlier committed data must survive")
	}
}

func BenchmarkRowidPointQuery(b *testing.B) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "pq.db", false)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (v TEXT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("BEGIN"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES ('row')"); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec("COMMIT"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Query("SELECT v FROM t WHERE rowid = ?", Int(int64(i%5000)+1))
		if err != nil || len(rows.Data) != 1 {
			b.Fatalf("%v %v", err, rows)
		}
	}
}

// treeRows walks the tree with a cursor and returns each row's payload
// length by rowid, failing on a cursor error or rowids out of order.
func treeRows(t *testing.T, tree *BTree) map[int64]int {
	t.Helper()
	rows := map[int64]int{}
	prev := int64(-1 << 62)
	cur := tree.First()
	for ; cur.Valid(); cur.Next() {
		if cur.RowID() <= prev {
			t.Fatalf("cursor order: %d after %d", cur.RowID(), prev)
		}
		prev = cur.RowID()
		rows[prev] = len(cur.Payload())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestBTreeThreeWayLeafSplit grows a row between two big neighbours until
// the three share no two pages (2 000 + 3 400 + 1 500 payload bytes): the
// leaf splits three ways and its parent gains two separators, whether the
// leaf is the root or a middle child.
func TestBTreeThreeWayLeafSplit(t *testing.T) {
	fill := func(t *testing.T, tree *BTree, sizes map[int64]int) {
		t.Helper()
		for _, k := range []int64{1, 2, 3, 4, 5} {
			if n, ok := sizes[k]; ok {
				if err := tree.Insert(k, bytes.Repeat([]byte{byte(k)}, n)); err != nil {
					t.Fatalf("insert %d (%d bytes): %v", k, n, err)
				}
			}
		}
	}
	rootKeys := func(t *testing.T, tree *BTree) []int64 {
		t.Helper()
		data, err := tree.pager.Get(tree.root)
		if err != nil {
			t.Fatal(err)
		}
		cells, _, err := decodeInterior(data)
		if err != nil {
			t.Fatal(err)
		}
		var keys []int64
		for _, c := range cells {
			keys = append(keys, c.key)
		}
		return keys
	}
	t.Run("root", func(t *testing.T) {
		tree, _ := testTree(t)
		sizes := map[int64]int{1: 2000, 2: 10, 3: 1500}
		fill(t, tree, sizes)
		sizes[2] = 3400
		fill(t, tree, map[int64]int{2: 3400})
		if got := fmt.Sprint(rootKeys(t, tree)); got != "[1 2]" {
			t.Fatalf("root separators %s, want [1 2]", got)
		}
		if got := treeRows(t, tree); fmt.Sprint(got) != fmt.Sprint(sizes) {
			t.Fatalf("rows %v, want %v", got, sizes)
		}
	})
	t.Run("middle child", func(t *testing.T) {
		tree, _ := testTree(t)
		// Leaves [1 2 3] [4] [5] under the root.
		sizes := map[int64]int{1: 2000, 2: 10, 3: 1500, 4: 3000, 5: 3000}
		fill(t, tree, sizes)
		if got := fmt.Sprint(rootKeys(t, tree)); got != "[3 4]" {
			t.Fatalf("set-up: root separators %s, want [3 4]", got)
		}
		sizes[2] = 3400
		fill(t, tree, map[int64]int{2: 3400})
		if got := fmt.Sprint(rootKeys(t, tree)); got != "[1 2 3 4]" {
			t.Fatalf("root separators %s, want [1 2 3 4]", got)
		}
		if got := treeRows(t, tree); fmt.Sprint(got) != fmt.Sprint(sizes) {
			t.Fatalf("rows %v, want %v", got, sizes)
		}
		for k, n := range sizes {
			if v, found, err := tree.Get(k); err != nil || !found || len(v) != n {
				t.Fatalf("Get(%d) = %d bytes, %v, %v; want %d bytes", k, len(v), found, err, n)
			}
		}
	})
	t.Run("sql update", func(t *testing.T) {
		db, _ := openTestDB(t)
		mustExec(t, db, "CREATE TABLE t (v TEXT)")
		// A one-column row's payload is the text plus 9 bytes.
		for _, n := range []int{1991, 1, 1491} {
			mustExec(t, db, "INSERT INTO t VALUES (?)", Text(strings.Repeat("x", n)))
		}
		mustExec(t, db, "UPDATE t SET v = ? WHERE rowid = 2", Text(strings.Repeat("y", 3391)))
		checkNoOverlay(t, db.Pager(), "after the update")
		rows := mustQuery(t, db, "SELECT rowid, length(v) FROM t")
		if got := fmt.Sprint(rows.Data); got != "[[1 1991] [2 3391] [3 1491]]" {
			t.Fatalf("rows %s", got)
		}
	})
}

// TestLeafSpliceMatchesEncode checks the in-place leaf edits against
// decodeLeaf, edit, encodeLeaf over random leaves: an insert at every
// kind of place, a replace of the same, a smaller and a larger length,
// and a delete must give exactly encodeLeaf's bytes (or both must find
// that the result overflows the page), and must leave the input page
// untouched.
func TestLeafSpliceMatchesEncode(t *testing.T) {
	rnd := rand.New(rand.NewSource(50))
	for trial := 0; trial < 3000; trial++ {
		var cells []leafCell
		rowid, size := int64(rnd.Intn(20)-10), pageHdrSize
		for n := rnd.Intn(40); len(cells) < n; {
			payload := make([]byte, rnd.Intn(1+rnd.Intn(600)))
			rnd.Read(payload)
			if size+leafCellOvh+len(payload) > PageSize {
				break
			}
			size += leafCellOvh + len(payload)
			cells = append(cells, leafCell{rowid: rowid, payload: payload})
			rowid += 1 + int64(rnd.Intn(3))*int64(rnd.Intn(4))
		}
		data, ok := encodeLeaf(cells, rnd.Uint32())
		if !ok {
			t.Fatal("set-up leaf overflows")
		}
		orig := bytes.Clone(data)
		_, next, _ := decodeLeaf(data)

		// Pick the target: an existing rowid or a gap (before the
		// first, between two, after the last).
		target := rowid + int64(rnd.Intn(3))
		existing := len(cells) > 0 && rnd.Intn(3) > 0
		if existing {
			target = cells[rnd.Intn(len(cells))].rowid
		} else if len(cells) > 0 && rnd.Intn(2) == 0 {
			target = cells[0].rowid - 1 - int64(rnd.Intn(3))
		} else if len(cells) > 1 {
			i := 1 + rnd.Intn(len(cells)-1)
			if cells[i].rowid-cells[i-1].rowid > 1 {
				target = cells[i-1].rowid + 1
			}
		}
		i := sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= target })
		found := i < len(cells) && cells[i].rowid == target
		edited := slices.Clone(cells)

		var got, want []byte
		var gotOK, wantOK bool
		var err error
		var what string
		if found && rnd.Intn(3) == 0 {
			what = "delete"
			got, gotOK, err = leafDelete(data, target)
			edited = slices.Delete(edited, i, i+1)
			want, wantOK = encodeLeaf(edited, next)
		} else {
			what = "insert"
			plen := rnd.Intn(1 + rnd.Intn(MaxPayload))
			if found && rnd.Intn(2) == 0 {
				what, plen = "same-length replace", len(cells[i].payload)
			}
			payload := make([]byte, plen)
			rnd.Read(payload)
			got, gotOK, err = leafInsert(data, target, payload)
			if found {
				edited[i].payload = payload
			} else {
				edited = slices.Insert(edited, i, leafCell{rowid: target, payload: payload})
			}
			want, wantOK = encodeLeaf(edited, next)
		}
		if err != nil || gotOK != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: %s of rowid %d into %d cells: ok %v (err %v), encodeLeaf ok %v; bytes equal %v",
				trial, what, target, len(cells), gotOK, err, wantOK, bytes.Equal(got, want))
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("trial %d: %s wrote into its input page", trial, what)
		}
	}
	// Deleting an absent rowid finds nothing.
	data, _ := encodeLeaf([]leafCell{{rowid: 1}, {rowid: 3}}, 0)
	if page, found, err := leafDelete(data, 2); err != nil || found || page != nil {
		t.Fatalf("delete of an absent rowid: %v %v %v", page, found, err)
	}
}
