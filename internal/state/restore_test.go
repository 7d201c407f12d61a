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

// TestPageViewsNeverChange: a view keeps the bytes it had when it was
// taken through every way the region changes a page — WriteAt, Modify,
// ApplyPage, Restore — while reads see the new content; a sparse page
// views as zeros and an index outside the region is refused.
func TestPageViewsNeverChange(t *testing.T) {
	r := mustRegion(t, 16*256, 256)
	if _, err := r.WriteAt(bytes.Repeat([]byte{1}, 4*256), 0); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot(1)
	type taken struct {
		index int
		view  []byte
		bytes []byte
	}
	var views []taken
	view := func(index int) {
		t.Helper()
		v, err := r.PageView(index)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Page(index)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("view of page %d differs from its content", index)
		}
		views = append(views, taken{index, v, bytes.Clone(v)})
	}
	for i := 0; i < 6; i++ { // pages 4 and 5 are sparse
		view(i)
	}
	if _, err := r.WriteAt([]byte("written"), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Modify(256, 10); err != nil {
		t.Fatal(err)
	}
	view(0)
	if err := r.ApplyPage(2, bytes.Repeat([]byte{9}, 256)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteAt([]byte("fresh"), 4*256); err != nil {
		t.Fatal(err)
	}
	view(2)
	r.Restore(snap)
	if r.Root() != snap.Root() {
		t.Fatal("Restore did not bring back the snapshot's content")
	}
	if _, err := r.WriteAt([]byte("again"), 5*256); err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		if !bytes.Equal(v.view, v.bytes) {
			t.Fatalf("view %d (page %d) changed after it was taken", i, v.index)
		}
	}
	if v, _ := r.PageView(5); v[0] != 'a' {
		t.Fatal("a view taken after a write does not show it")
	}
	for _, index := range []int{-1, 16} {
		if _, err := r.PageView(index); err == nil {
			t.Fatalf("PageView(%d) outside the region succeeded", index)
		}
	}
}

// TestPageViewsBesideSnapshots takes views and reads them on one
// goroutine while another writes, snapshots and computes roots — the
// replica's exec worker beside its protocol loop. Run under -race.
func TestPageViewsBesideSnapshots(t *testing.T) {
	r := mustRegion(t, 64*256, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(1); seq <= 200; seq++ {
			_ = r.Snapshot(seq)
			_ = r.Root()
			r.ReleaseBelow(seq)
		}
	}()
	sum := 0
	for i := 0; i < 2000; i++ {
		index := i % 64
		if _, err := r.WriteAt([]byte{byte(i)}, int64(index)*256+int64(i%256)); err != nil {
			t.Fatal(err)
		}
		v, err := r.PageView((i * 7) % 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range v {
			sum += int(b)
		}
	}
	<-done
	if sum == 0 {
		t.Fatal("views read nothing written")
	}
}
