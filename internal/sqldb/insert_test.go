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

// preloadSQL is a 100-row INSERT shaped like the benchmark's preload:
// one statement of literal rows, voters pre-<first> to pre-<first+99>.
func preloadSQL(first int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO votes (voter, vote, ts, rnd) VALUES ")
	for r := first; r < first+100; r++ {
		if r > first {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "('pre-%d','yes',0,0)", r)
	}
	return sb.String()
}

// TestInsertAllocations pins the allocations of the SQL write path: a
// 100-row INSERT into a 10 000-row table, the Parse of its text, and a
// one-row INSERT with parameters (the benchmark's measured statement).
// Inserting row at a time, with one LiteralExpr and a growing slice per
// value, they made 1 560, 713 and 43.
func TestInsertAllocations(t *testing.T) {
	db, err := Open(NewMemVFS(), "allocs.db", false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE votes (voter TEXT, vote TEXT, ts INTEGER, rnd INTEGER)")
	next := 1
	for next <= 10000 {
		mustExec(t, db, preloadSQL(next))
		next += 100
	}
	src := preloadSQL(next)
	multi := testing.AllocsPerRun(20, func() {
		if _, err := db.Exec(src); err != nil {
			t.Fatal(err)
		}
	})
	parse := testing.AllocsPerRun(20, func() {
		if _, _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	single := testing.AllocsPerRun(100, func() {
		if _, err := db.Exec("INSERT INTO votes (voter, vote, ts, rnd) VALUES (?, ?, now(), random())", Text("v"), Text("yes")); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("100-row INSERT %v allocs, its Parse %v, one-row INSERT %v", multi, parse, single)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"100-row INSERT", multi, 250},
		{"Parse of a 100-row INSERT", parse, 130},
		{"one-row INSERT with parameters", single, 40},
	} {
		if c.got > c.want {
			t.Errorf("%s makes %v allocations, want at most %v", c.what, c.got, c.want)
		}
	}
}

// TestFailedInsertLeavesNoRowsInTransaction: a multi-row INSERT whose
// last row is bad fails before it stores any row, so inside an explicit
// transaction (where no statement rollback runs) it leaves no row behind
// and hands out no rowid twice.
func TestFailedInsertLeavesNoRowsInTransaction(t *testing.T) {
	for _, c := range []struct{ name, bad string }{
		{"value count", "('two', 2)"},
		{"eval", "(nosuchfn())"},
		{"size", "(?)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, _ := openTestDB(t)
			mustExec(t, db, "CREATE TABLE t (v TEXT)")
			mustExec(t, db, "BEGIN")
			huge := Text(strings.Repeat("x", MaxPayload))
			if _, err := db.Exec("INSERT INTO t VALUES ('one'), ('two'), "+c.bad, huge); err == nil {
				t.Fatal("the bad row was accepted")
			}
			mustExec(t, db, "INSERT INTO t VALUES ('three')")
			mustExec(t, db, "COMMIT")
			rows := mustQuery(t, db, "SELECT rowid, v FROM t")
			if got := fmt.Sprint(rows.Data); got != `[[1 "three"]]` {
				t.Fatalf("table holds %s, want only rowid 1, \"three\"", got)
			}
		})
	}
}

// runPair builds two trees from the same history over separate pagers:
// run stores each run of rows with insertRun, ref one row at a time with
// Insert. threeWay counts the ref inserts that split a leaf three ways.
type runPair struct {
	run, ref *BTree
	threeWay int
}

func newRunPair(t testing.TB) *runPair {
	t.Helper()
	var trees [2]*BTree
	for i := range trees {
		pager, err := OpenPager(NewMemVFS(), "run.db", false)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pager.Close() })
		if trees[i], err = CreateBTree(pager); err != nil {
			t.Fatal(err)
		}
	}
	return &runPair{run: trees[0], ref: trees[1]}
}

// insert stores rows in both trees and compares every page.
func (p *runPair) insert(t testing.TB, rows []leafCell) {
	t.Helper()
	if err := p.run.insertRun(rows); err != nil {
		t.Fatalf("insertRun of %d rows: %v", len(rows), err)
	}
	for _, r := range rows {
		if leafSplitWays(t, p.ref, r.rowid, r.payload) == 3 {
			p.threeWay++
		}
		if err := p.ref.Insert(r.rowid, r.payload); err != nil {
			t.Fatalf("Insert(%d, %d bytes): %v", r.rowid, len(r.payload), err)
		}
	}
	p.compare(t, fmt.Sprintf("a run of %d rows from rowid %d", len(rows), rows[0].rowid))
}

// delete removes rowids from both trees.
func (p *runPair) delete(t testing.TB, rowids []int64) {
	t.Helper()
	for _, k := range rowids {
		for _, tree := range []*BTree{p.run, p.ref} {
			if _, err := tree.Delete(k); err != nil {
				t.Fatalf("Delete(%d): %v", k, err)
			}
		}
	}
	p.compare(t, fmt.Sprintf("deleting %d rows", len(rowids)))
}

func (p *runPair) compare(t testing.TB, step string) {
	t.Helper()
	n := p.ref.pager.NumPages()
	if got := p.run.pager.NumPages(); got != n {
		t.Fatalf("after %s: %d pages, row at a time %d", step, got, n)
	}
	for pgno := uint32(1); pgno <= n; pgno++ {
		got, err := p.run.pager.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.ref.pager.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after %s: page %d differs from the row-at-a-time page", step, pgno)
		}
	}
}

// leafSplitWays returns over how many pages Insert(rowid, payload) would
// leave the cells of the leaf it lands in: 1 when they still fit it.
func leafSplitWays(t testing.TB, tree *BTree, rowid int64, payload []byte) int {
	t.Helper()
	pgno := tree.root
	for {
		data, err := tree.pager.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == pageInterior {
			if pgno, _, err = interiorChild(data, rowid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		cells, _, err := decodeLeaf(data)
		if err != nil {
			t.Fatal(err)
		}
		i := sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= rowid })
		if i < len(cells) && cells[i].rowid == rowid {
			cells[i].payload = payload
		} else {
			cells = slices.Insert(cells, i, leafCell{rowid: rowid, payload: payload})
		}
		if leafSize(cells) <= PageSize {
			return 1
		}
		return len(splitLeafCells(cells))
	}
}

// runPayload is a payload of n bytes derived from rowid.
func runPayload(rowid int64, n int) []byte {
	return bytes.Repeat([]byte{byte(rowid), byte(rowid >> 8)}, (n+1)/2)[:n]
}

// TestInsertRunMatchesRowAtATime drives insertRun and row-at-a-time
// Insert through the same randomized history and requires byte-identical
// pages after every step. Runs of 1-300 rows mostly extend the right
// edge; others restart inside the key range, where they land in gaps
// left by deletes, replace rows and cross leaf boundaries. Payloads run
// from 0 bytes to MaxPayload, weighted towards a third of a page so that
// rows landing between two big neighbours split a leaf three ways.
func TestInsertRunMatchesRowAtATime(t *testing.T) {
	rnd := rand.New(rand.NewSource(55))
	p := newRunPair(t)
	size := func() int {
		switch r := rnd.Intn(20); {
		case r < 7:
			return rnd.Intn(60)
		case r < 13:
			return 1300 + rnd.Intn(54) // three to a leaf
		case r < 18:
			return rnd.Intn(MaxPayload + 1)
		default:
			return MaxPayload - rnd.Intn(100)
		}
	}
	var top int64 // the largest rowid stored so far
	runs, inside := 0, 0
	for step := 0; step < 150; step++ {
		if top > 0 && rnd.Intn(5) == 0 {
			// Delete a stretch of rowids, every one or every other.
			lo, stride := 1+rnd.Int63n(top), int64(1+rnd.Intn(2))
			var ks []int64
			for k := lo; k <= top && len(ks) < 1+rnd.Intn(12); k += stride {
				ks = append(ks, k)
			}
			p.delete(t, ks)
			continue
		}
		n := 1 + rnd.Intn(300)
		if rnd.Intn(3) == 0 {
			n = 1 + rnd.Intn(8)
		}
		start, stride := top+1, 1
		if top > 0 && rnd.Intn(3) == 0 {
			start, stride = 1+rnd.Int63n(top), 1+rnd.Intn(3)
			inside++
		} else if rnd.Intn(4) == 0 {
			stride = 2 // leave gaps for later runs to land in
		}
		rows := make([]leafCell, n)
		for i := range rows {
			k := start + int64(i*stride)
			rows[i] = leafCell{rowid: k, payload: runPayload(k, size())}
			top = max(top, k)
		}
		p.insert(t, rows)
		runs++
	}
	height, _ := treeShape(t, p.ref.pager, p.ref.root)
	t.Logf("%d runs (%d inside the key range), %d pages, height %d, %d three-way splits",
		runs, inside, p.ref.pager.NumPages(), height, p.threeWay)
	if height < 3 || p.threeWay == 0 {
		t.Fatalf("history too tame: height %d, %d three-way splits", height, p.threeWay)
	}
}

// FuzzInsertRun is TestInsertRunMatchesRowAtATime's assertion over
// histories decoded from the input. Each step takes a header byte: a
// multiple of 5 deletes, the next byte giving the first rowid and the
// one after how many follow; any other value starts a run, the next
// byte giving its first rowid (0: after the largest stored) and each row
// then taking one byte of rowid step (0 included, so runs need not
// ascend) and one of size class.
func FuzzInsertRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		p := newRunPair(t)
		var top int64
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		// Every step compares every page: the caps keep one input fast.
		for steps, total := 0, 0; len(prog) > 0 && steps < 64 && total < 400; steps++ {
			op := next()
			if op%5 == 0 {
				lo, n := int64(next()), next()%16
				ks := make([]int64, n)
				for i := range ks {
					ks[i] = lo + int64(i)
				}
				p.delete(t, ks)
				continue
			}
			k := int64(next())
			if k == 0 {
				k = top + 1
			}
			rows := make([]leafCell, 0, op)
			for i := 0; i < op && len(prog) > 0; i++ {
				if i > 0 {
					k += int64(next()%4) - 1
				}
				var n int
				switch c := next(); c % 4 {
				case 0:
					n = c / 4
				case 1:
					n = 1300 + c%54
				case 2:
					n = c * MaxPayload / 255
				default:
					n = MaxPayload - c/4
				}
				rows = append(rows, leafCell{rowid: k, payload: runPayload(k, n)})
				top = max(top, k)
			}
			if len(rows) > 0 {
				p.insert(t, rows)
				total += len(rows)
			}
		}
	})
}
