package state

import (
	"bytes"
	"testing"
)

func TestRestoreRewindsToSnapshot(t *testing.T) {
	r := mustRegion(t, 16*256, 256)
	if _, err := r.WriteAt([]byte("v1-page0"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteAt([]byte("v1-page5"), 5*256); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot(10)
	want := snap.Root()

	// Diverge: modify existing pages, touch a fresh one.
	if _, err := r.WriteAt([]byte("v2-page0"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteAt([]byte("fresh"), 9*256); err != nil {
		t.Fatal(err)
	}
	if r.Root() == want {
		t.Fatal("root must have diverged")
	}
	r.Restore(snap)
	if r.Root() != want {
		t.Fatal("Restore must reproduce the snapshot root exactly")
	}
	buf := make([]byte, 8)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("v1-page0")) {
		t.Fatalf("page 0 = %q", buf)
	}
	// The fresh page is back to zeros.
	if _, err := r.ReadAt(buf, 9*256); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("page touched after the snapshot must be zeroed by Restore")
		}
	}
}

func TestRestoreThenMutateDoesNotCorruptSnapshot(t *testing.T) {
	// Restore copies pages back; later mutations must not leak into the
	// snapshot through shared backing arrays.
	r := mustRegion(t, 4*256, 256)
	if _, err := r.WriteAt([]byte("original"), 0); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot(1)
	if _, err := r.WriteAt([]byte("mutated!"), 0); err != nil {
		t.Fatal(err)
	}
	r.Restore(snap)
	if _, err := r.WriteAt([]byte("again!!!"), 0); err != nil {
		t.Fatal(err)
	}
	page, err := snap.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page[:8], []byte("original")) {
		t.Fatalf("snapshot corrupted: %q", page[:8])
	}
}

func TestReleaseAboveDropsTentativeSnapshots(t *testing.T) {
	r := mustRegion(t, 4*256, 256)
	r.Snapshot(8)
	r.Snapshot(16)
	r.Snapshot(24)
	r.ReleaseAbove(8)
	if _, ok := r.SnapshotAt(8); !ok {
		t.Fatal("snapshot at the cutoff must survive")
	}
	if _, ok := r.SnapshotAt(16); ok {
		t.Fatal("snapshot above the cutoff must be gone")
	}
	if _, ok := r.SnapshotAt(24); ok {
		t.Fatal("snapshot above the cutoff must be gone")
	}
}

// TestRewritesCountsPagesRewrittenUnderneath: Rewrites moves on every
// ApplyPage and on a Restore that changed a page, and on nothing the
// application writes itself — the contract a cache of region content
// (sqlstate's pager) relies on to know when to drop itself.
func TestRewritesCountsPagesRewrittenUnderneath(t *testing.T) {
	r := mustRegion(t, 16*256, 256)
	expect := func(want uint64, after string) {
		t.Helper()
		if got := r.Rewrites(); got != want {
			t.Fatalf("after %s: Rewrites = %d, want %d", after, got, want)
		}
	}
	if _, err := r.WriteAt([]byte("mine"), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Modify(300, 10); err != nil {
		t.Fatal(err)
	}
	expect(0, "WriteAt and Modify")
	snap := r.Snapshot(1)
	r.Restore(snap)
	expect(0, "a Restore that changed nothing")
	if _, err := r.WriteAt([]byte("later"), 0); err != nil {
		t.Fatal(err)
	}
	r.Restore(snap)
	expect(1, "a Restore that rewrote a page")
	page := bytes.Repeat([]byte{9}, 256)
	if err := r.ApplyPage(3, page); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyPage(4, page); err != nil {
		t.Fatal(err)
	}
	expect(3, "two ApplyPage calls")
	if err := r.ApplyPage(99, page); err == nil {
		t.Fatal("ApplyPage out of range succeeded")
	}
	expect(3, "a refused ApplyPage")
}
