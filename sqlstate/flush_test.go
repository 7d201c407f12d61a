package sqlstate

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
)

var flushSchema = []string{"CREATE TABLE t (k INTEGER, v TEXT)"}

// flushInsert is a row fat enough that a handful of them split a leaf, so
// spans allocate pages and rewrite interior ones.
func flushInsert(k int) []byte {
	return EncodeExec("INSERT INTO t VALUES (?, ?)", Int(int64(k)), Text(strings.Repeat("x", 700)))
}

func mustExec(t *testing.T, app core.Application, op []byte) {
	t.Helper()
	if _, err := DecodeResponse(app.Execute(op, core.NonDetValues{Time: time.Unix(9, 0)}, false)); err != nil {
		t.Fatal(err)
	}
}

// dbBytes is the database file as the region holds it.
func dbBytes(v *VFS) []byte {
	out := make([]byte, v.logicalSize())
	_, _ = v.region.ReadAt(out, 0)
	return out
}

func imageRowCount(t *testing.T, disk *HookDisk) int64 {
	t.Helper()
	db, err := sqldb.Open(disk.MemVFS, "db.image", false)
	if err != nil {
		t.Fatalf("recovered image does not open: %v", err)
	}
	rows, err := db.Query("SELECT count(*) FROM t")
	if err != nil {
		t.Fatalf("recovered image does not query: %v", err)
	}
	return rows.Data[0][0].I
}

var errCrash = errors.New("crashed")

// crashRun is what runCrash observed: the database bytes at every span
// boundary, the last boundary whose persist returned, and which disk
// operation crashed.
type crashRun struct {
	disk       *HookDisk
	boundaries [][]byte
	rows       []int64 // rows in the table at each boundary
	acked      int
	steps      int
	crashFile  string
	crashOp    string
}

// runCrash drives five spans through a driven region the way a replica
// does — execute the span's statements, Capture, persist — with the disk
// failing from its crashAt-th mutating operation on.
func runCrash(t *testing.T, crashAt int, tear bool) *crashRun {
	t.Helper()
	region := testRegion(t)
	region.DriveFlushes()
	run := &crashRun{disk: NewHookDisk()}
	run.disk.Tear = tear
	app := NewAppOnDisk(Options{DBName: "db", InitSQL: flushSchema}, run.disk)
	app.AttachState(region)
	if app.err != nil {
		t.Fatal(app.err)
	}
	// Boundary 0 is the empty image before initialization, boundary 1
	// the initialized database AttachState flushed.
	run.boundaries = append(run.boundaries, []byte{}, dbBytes(app.vfs))
	run.rows = append(run.rows, 0, 0)
	run.acked = 1
	run.disk.SetHook(func(file, op string) error {
		if run.crashOp == "" && run.steps == crashAt {
			run.crashFile, run.crashOp = file, op
		}
		run.steps++
		if run.crashOp != "" {
			return errCrash
		}
		return nil
	})
	k := 0
	for span, size := range []int{1, 3, 1, 4, 2} {
		for i := 0; i < size; i++ {
			mustExec(t, app, flushInsert(k))
			k++
		}
		if span == 2 {
			// As after a tentative rollback: the next flush rebuilds.
			app.vfs.Invalidate()
		}
		run.boundaries = append(run.boundaries, dbBytes(app.vfs))
		run.rows = append(run.rows, int64(k))
		_, persist := app.vfs.Capture()
		if persist == nil {
			t.Fatalf("span %d: nothing captured", span)
		}
		if err := persist(); err != nil {
			if !errors.Is(err, errCrash) {
				t.Fatalf("span %d: persist: %v", span, err)
			}
			return run
		}
		run.acked = len(run.boundaries) - 1
	}
	return run
}

// TestSpanFlushCrashMatrix crashes a replica's image flush at every
// mutating disk operation — journal partial, journal synced, image
// half-written, image synced with the journal still valid, every step of
// a stale-image rebuild — once keeping every byte written so far (the OS
// got them out) with the crashing write torn, once discarding all
// unsynced bytes. The recovered image must equal the region at a span
// boundary, never a mid-span or mid-statement state, and hold every span
// whose persist returned — except that losing the unsynced emptying of
// the previous journal may roll back one acknowledged span: the
// documented journal-invalidate window, open until the next journal
// fsync. Recovery never touches the region.
func TestSpanFlushCrashMatrix(t *testing.T) {
	total := runCrash(t, -1, false).steps
	if total < 20 {
		t.Fatalf("scenario has only %d disk operations", total)
	}
	for crashAt := 0; crashAt <= total; crashAt++ {
		for _, discard := range []bool{false, true} {
			run := runCrash(t, crashAt, !discard)
			name := fmt.Sprintf("crash at op %d (%s %s), discard=%v", crashAt, run.crashFile, run.crashOp, discard)
			if discard {
				run.disk.Crash()
			}
			run.disk.SetHook(nil)

			region := testRegion(t)
			genesis := region.Root()
			vfs, err := newVFS(region, "db", run.disk)
			if err != nil {
				t.Fatalf("%s: recovery: %v", name, err)
			}
			if region.Root() != genesis {
				t.Fatalf("%s: recovery wrote into the region", name)
			}
			if n := len(run.disk.ReadFile("db-journal")); n != 0 {
				t.Fatalf("%s: journal still holds %d bytes after recovery", name, n)
			}
			image := run.disk.ReadFile("db.image")
			at := -1
			for j := range run.boundaries {
				if bytes.Equal(image, run.boundaries[j]) {
					at = j
				}
			}
			if at < 0 {
				t.Fatalf("%s: recovered image (%d bytes) is no span boundary", name, len(image))
			}
			if at == 0 {
				// The empty image; nothing to open.
			} else if got := imageRowCount(t, run.disk); got != run.rows[at] {
				t.Fatalf("%s: image at boundary %d holds %d rows, want %d", name, at, got, run.rows[at])
			}
			// crashOp is empty in the last round: a power cut after the
			// final persist returned, its invalidation not yet durable.
			window := discard && (run.crashFile == "db-journal" || run.crashOp == "")
			if at > run.acked+1 || at < run.acked-1 || (at == run.acked-1 && !window) {
				t.Fatalf("%s: recovered to boundary %d, acknowledged through %d (invalidate window: %v)",
					name, at, run.acked, window)
			}
			_ = vfs.Close()
		}
	}
}

// TestSpanFlushStandalone: a region nobody drives keeps a standalone App
// durable statement by statement, while in a driven region Execute does
// no disk I/O at all — the flush waits for the owner's flush point.
func TestSpanFlushStandalone(t *testing.T) {
	for _, driven := range []bool{false, true} {
		region := testRegion(t)
		if driven {
			region.DriveFlushes()
		}
		disk := NewHookDisk()
		app := NewAppOnDisk(Options{DBName: "db", InitSQL: flushSchema}, disk)
		app.AttachState(region)
		if app.err != nil {
			t.Fatal(app.err)
		}
		if got := imageRowCount(t, disk); got != 0 {
			t.Fatalf("driven=%v: AttachState must flush the initialized database, image has %d rows", driven, got)
		}
		ops := 0
		disk.SetHook(func(string, string) error { ops++; return nil })
		mustExec(t, app, flushInsert(1))
		want := int64(1)
		if driven {
			want = 0
			if ops != 0 {
				t.Fatalf("Execute in a driven region did %d disk operations", ops)
			}
		}
		if got := imageRowCount(t, disk); got != want {
			t.Fatalf("driven=%v: image has %d rows after one insert, want %d", driven, got, want)
		}
		if region.Flusher() == nil {
			t.Fatal("a Durable App must register as the region's flusher")
		}
	}
	// Without Durable there is no image and nothing to drive.
	region := testRegion(t)
	app := NewApp(Options{InitSQL: flushSchema})
	app.AttachState(region)
	if region.Flusher() != nil {
		t.Fatal("a non-durable App must not register a flusher")
	}
}

// TestSpanFlushPersistErrorLatches: a disk error during a persist leaves
// the region — the replicated state — exactly as executed, is reported
// once by that persist, and ends the image's life: later captures have
// nothing to persist. A standalone App keeps reporting it, statement by
// statement.
func TestSpanFlushPersistErrorLatches(t *testing.T) {
	region := testRegion(t)
	region.DriveFlushes()
	disk := NewHookDisk()
	app := NewAppOnDisk(Options{DBName: "db", InitSQL: flushSchema}, disk)
	app.AttachState(region)
	mustExec(t, app, flushInsert(1))
	_, first := app.vfs.Capture()
	mustExec(t, app, flushInsert(2))
	_, second := app.vfs.Capture() // captured before the failure, run after it
	root := region.Root()
	failSync := func(file, op string) error {
		if file == "db.image" && op == "sync" {
			return errors.New("EIO")
		}
		return nil
	}
	disk.SetHook(failSync)
	if err := first(); err == nil {
		t.Fatal("the failing persist must report its error")
	}
	if err := second(); err != nil {
		t.Fatalf("a persist behind the failure must be skipped silently, got %v", err)
	}
	if region.Root() != root {
		t.Fatal("a failed persist must leave the region untouched")
	}
	mustExec(t, app, flushInsert(3))
	if pages, persist := app.vfs.Capture(); persist != nil || pages != 0 {
		t.Fatal("a broken image must capture nothing")
	}
	rows, err := app.DB().Query("SELECT count(*) FROM t")
	if err != nil || rows.Data[0][0].I != 3 {
		t.Fatalf("the region must hold all three rows: %v %v", rows, err)
	}

	standalone := NewAppOnDisk(Options{DBName: "db", InitSQL: flushSchema}, NewHookDisk())
	standalone.AttachState(testRegion(t))
	standalone.disk.(*HookDisk).SetHook(failSync)
	for k := 0; k < 2; k++ {
		resp := standalone.Execute(flushInsert(k), core.NonDetValues{}, false)
		if _, err := DecodeResponse(resp); err == nil || !strings.Contains(err.Error(), "EIO") {
			t.Fatalf("insert %d: a standalone App whose image broke must keep saying so, got %v", k, err)
		}
	}
	rows, err = standalone.DB().Query("SELECT count(*) FROM t")
	if err != nil || rows.Data[0][0].I != 2 {
		t.Fatalf("both statements stay applied in the region: %v %v", rows, err)
	}
}

// TestSpanFlushImageFollowsRestore: Region.Restore (the tentative
// rollback of a view change) rewrites pages underneath the database
// file. The image must follow: after the next statement it holds exactly
// the rows the region holds, not the rolled-back ones.
func TestSpanFlushImageFollowsRestore(t *testing.T) {
	region := testRegion(t)
	dir := t.TempDir()
	app := NewApp(Options{Durable: true, DiskDir: dir, InitSQL: flushSchema})
	app.AttachState(region)
	// Enough rows for a tree with an interior root, so that the
	// statement after the rollback rewrites a leaf and not the root.
	for k := 0; k < 12; k++ {
		mustExec(t, app, flushInsert(k))
	}
	snap := region.Snapshot(1)
	// The rolled-back rows split leaves and rewrite the root above them.
	for k := 12; k < 30; k++ {
		mustExec(t, app, flushInsert(k))
	}
	region.Restore(snap)
	mustExec(t, app, flushInsert(100))

	img, err := OpenDiskImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	// The scan walks the leaf chain; the point query descends from the
	// root, which the rolled-back rows rewrote and the statement after
	// the rollback did not.
	for _, q := range []string{"SELECT k FROM t", "SELECT k FROM t WHERE rowid = 25"} {
		want, err := app.DB().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := img.Query(q)
		if err != nil {
			t.Fatalf("%s: the image no longer reads: %v", q, err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
			t.Fatalf("%s: image rows %v, region rows %v", q, got.Data, want.Data)
		}
	}
}
