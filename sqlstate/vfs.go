// Package sqlstate is the paper's §3.2 state abstraction: the embedded
// ACID SQL engine (internal/sqldb, the SQLite substitute) mounted on the
// PBFT replicated state region through a VFS layer (Fig. 3).
//
// The database file lives in the replicated memory region — every page
// write performs the region's modify notification, so PBFT's
// copy-on-write checkpoints and Merkle-tree synchronization see the
// database like any other state. In Durable mode the database also has a
// disk image, brought up to date under a rollback journal on the real
// disk, the design of §3.2: a node's database file is usable on its own
// if the node leaves the service, and no reply for an operation leaves a
// replica before that operation's pages are fsynced on its image. The
// image is flushed through the region's flush contract (state.Flusher):
// once per execution span when a replica drives the region, once per
// mutating statement when nobody does (a standalone App). A local disk
// error abandons the image, never the operation: replication carries the
// state, the image is a by-product.
// Time and randomness are routed through the agreed non-determinism
// values, so every replica computes identical rows (§2.5, §4.2).
package sqlstate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/internal/state"
)

// regionTailReserve is the number of bytes at the end of the region
// reserved for VFS bookkeeping (the database file's logical size).
const regionTailReserve = 8

// diskFS is what the image flush needs of the local disk: files, plus an
// atomic replace for the stale-image rebuild. *sqldb.DiskVFS in
// production, *sqldb.MemVFS under crash and fault injection.
type diskFS interface {
	Open(name string) (sqldb.File, error)
	Rename(oldName, newName string) error
}

// VFS implements sqldb.VFS over a replicated state region: the database
// file maps onto the region and is the only file there is. With a disk
// directory it also keeps the database's disk image (§3.2) and is the
// region's state.Flusher: regionFile.WriteAt tracks what each flush
// interval dirtied, Capture takes it from the region, and the persist it
// returns brings the image to the captured state under a synced rollback
// journal.
type VFS struct {
	mu     sync.Mutex
	region *state.Region
	dbName string

	nd      core.NonDetValues
	randCtr uint64

	disk diskFS // nil: no disk image

	// Flush-interval tracking, guarded by mu (1-based page numbers):
	// the pages written since the last Capture and, for those the image
	// held at that Capture, their content then.
	dirty     map[uint32]struct{}
	before    map[uint32][]byte
	origPages uint32
	// brokenErr latches the first persist failure: the image stops
	// following the region (the policy of core's durable store).
	brokenErr error
	// stale is set when the image's relation to the region is unknown
	// (Invalidate, a pre-existing image): the next Capture rebuilds the
	// image wholesale.
	stale atomic.Bool

	// pmu serializes persists and guards the files they write.
	pmu     sync.Mutex
	image   sqldb.File
	journal sqldb.File // kept open; empty between persists
}

var (
	_ sqldb.VFS     = (*VFS)(nil)
	_ state.Flusher = (*VFS)(nil)
)

// NewVFS mounts a VFS for the named database file over the region.
// diskDir hosts the database's disk image and its rollback journal;
// empty means no image. A valid hot journal found there (a crash during
// a persist) is rolled back onto the image, never onto the region.
func NewVFS(region *state.Region, dbName, diskDir string) (*VFS, error) {
	if diskDir == "" {
		return newVFS(region, dbName, nil)
	}
	if err := os.MkdirAll(diskDir, 0o755); err != nil {
		return nil, err
	}
	return newVFS(region, dbName, &sqldb.DiskVFS{Root: diskDir})
}

func newVFS(region *state.Region, dbName string, disk diskFS) (*VFS, error) {
	v := &VFS{region: region, dbName: dbName}
	if disk == nil {
		return v, nil
	}
	v.disk = disk
	v.resetTracking(0)
	var err error
	if v.image, err = disk.Open(v.imageName()); err != nil {
		return nil, err
	}
	if v.journal, err = disk.Open(dbName + "-journal"); err != nil {
		_ = v.image.Close()
		return nil, err
	}
	size, err := v.recoverImage()
	if err != nil {
		_ = v.Close()
		return nil, fmt.Errorf("sqlstate: recover %s: %w", v.imageName(), err)
	}
	// An image from an earlier incarnation was flushed from another
	// region's history; nothing relates it to this one page by page.
	v.stale.Store(size > 0)
	return v, nil
}

func (v *VFS) imageName() string { return v.dbName + ".image" }

// recoverImage rolls a hot journal back onto the image, empties the
// journal and returns the image's size.
func (v *VFS) recoverImage() (int64, error) {
	if err := sqldb.RollbackJournal(v.journal, v.image); err != nil {
		return 0, err
	}
	if err := v.journal.Truncate(0); err != nil {
		return 0, err
	}
	return v.image.Size()
}

// SetNonDet installs the agreed non-deterministic values for the
// operation being executed; the replica calls it before every Execute.
func (v *VFS) SetNonDet(nd core.NonDetValues) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.nd = nd
	v.randCtr = 0
}

// Now implements sqldb.VFS with the agreed timestamp.
func (v *VFS) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.nd.Time.IsZero() {
		return time.Unix(0, 0)
	}
	return v.nd.Time
}

// Rand implements sqldb.VFS with a deterministic stream expanded from the
// agreed seed: every replica sees identical "randomness" (§2.5).
func (v *VFS) Rand(p []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(p) > 0 {
		var block [8 + 32]byte
		binary.BigEndian.PutUint64(block[:8], v.randCtr)
		copy(block[8:], v.nd.Rand[:])
		sum := sha256.Sum256(block[:])
		n := copy(p, sum[:])
		p = p[n:]
		v.randCtr++
	}
	return nil
}

// Open implements sqldb.VFS. The region database is the only file: the
// pager above runs non-journaled (crash atomicity of memory is
// meaningless), and the image's journal is the VFS's own business. When
// a region page is a database page, the file lends the pager the
// region's pages (sqldb.PageViewer); otherwise the pager reads copies.
func (v *VFS) Open(name string) (sqldb.File, error) {
	if name != v.dbName {
		return nil, fmt.Errorf("sqlstate: no file %q (only the region database)", name)
	}
	f := &regionFile{vfs: v}
	if v.viewable() {
		return &regionViewFile{f}, nil
	}
	return f, nil
}

// viewable reports whether a database page is exactly one region page.
func (v *VFS) viewable() bool { return v.region.PageSize() == sqldb.PageSize }

// Delete implements sqldb.VFS.
func (v *VFS) Delete(name string) error {
	if name == v.dbName {
		return fmt.Errorf("sqlstate: cannot delete the region database")
	}
	return nil
}

// Exists implements sqldb.VFS.
func (v *VFS) Exists(name string) (bool, error) {
	return name == v.dbName && v.logicalSize() > 0, nil
}

// logicalSize reads the database file's logical size from the region
// tail.
func (v *VFS) logicalSize() int64 {
	var buf [8]byte
	if _, err := v.region.ReadAt(buf[:], v.region.Size()-regionTailReserve); err != nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(buf[:]))
}

func (v *VFS) setLogicalSize(size int64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(size))
	_, err := v.region.WriteAt(buf[:], v.region.Size()-regionTailReserve)
	return err
}

// Close releases the disk image and journal handles.
func (v *VFS) Close() error {
	if v.disk == nil {
		return nil
	}
	v.pmu.Lock()
	defer v.pmu.Unlock()
	err := v.image.Close()
	if jerr := v.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

// --- Image flush (state.Flusher) -----------------------------------------

// resetTracking starts a flush interval over an image of size bytes.
// Called with mu held (or before the VFS is shared).
func (v *VFS) resetTracking(size int64) {
	v.dirty = make(map[uint32]struct{})
	v.before = make(map[uint32][]byte)
	v.origPages = uint32((size + sqldb.PageSize - 1) / sqldb.PageSize)
}

// noteWrite records, before [off, off+n) of the database file changes,
// the pages it covers: dirty, and on first touch in this flush interval
// their current content as the image's before-image.
func (v *VFS) noteWrite(off int64, n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for pgno := uint32(off/sqldb.PageSize) + 1; int64(pgno-1)*sqldb.PageSize < off+int64(n); pgno++ {
		if _, seen := v.dirty[pgno]; seen {
			continue
		}
		v.dirty[pgno] = struct{}{}
		if pgno <= v.origPages {
			v.before[pgno] = v.page(pgno)
		}
	}
}

// page returns database page pgno as the region holds it now, bytes that
// never change: a view of the region page, or a copy when a database
// page spans several region pages. The page is inside the region by
// construction, so reading it cannot fail.
func (v *VFS) page(pgno uint32) []byte {
	if v.viewable() {
		data, _ := v.region.PageView(int(pgno - 1))
		return data
	}
	data := make([]byte, sqldb.PageSize)
	_, _ = v.region.ReadAt(data, int64(pgno-1)*sqldb.PageSize)
	return data
}

// Invalidate implements state.Flusher: the region was rewritten
// underneath the database file (tentative rollback, state transfer), so
// the tracked pages no longer say how the image differs from it.
func (v *VFS) Invalidate() { v.stale.Store(true) }

// Capture implements state.Flusher: take the flush interval's dirty pages
// from the region — bytes that never change (see page), so the persist
// may run beside later mutations — and start the next interval. The
// persist it returns journals the before-images, fsyncs the journal,
// writes the pages to the image, fsyncs it and invalidates the journal —
// once, however many statements dirtied a page. A stale image is rebuilt
// wholesale instead. After a persist failed, the image is left alone for
// good.
func (v *VFS) Capture() (int, func() error) {
	if v.disk == nil {
		return 0, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	size := v.logicalSize()
	if v.brokenErr != nil {
		v.resetTracking(size)
		return 0, nil
	}
	if v.stale.Swap(false) {
		v.resetTracking(size)
		db := make([]byte, size)
		_, _ = v.region.ReadAt(db, 0) // inside the region, cannot fail
		return int(v.origPages), func() error { return v.persist(func() error { return v.rebuildImage(db) }) }
	}
	if len(v.dirty) == 0 {
		return 0, nil
	}
	pages := make(map[uint32][]byte, len(v.dirty))
	for pgno := range v.dirty {
		pages[pgno] = v.page(pgno)
	}
	origPages, before := v.origPages, v.before
	v.resetTracking(size)
	return len(pages), func() error {
		return v.persist(func() error { return v.writeImage(origPages, before, pages) })
	}
}

// Flush captures and persists in one step: the flush point of a region
// nobody drives, and of AttachState. A latched failure keeps being
// reported — a standalone database is never silently non-durable.
func (v *VFS) Flush() error {
	if _, persist := v.Capture(); persist != nil {
		if err := persist(); err != nil {
			return err
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.brokenErr
}

// persist runs one image write, latching its failure. Persists captured
// before a failure but run after it are skipped silently: the failure
// was reported once.
func (v *VFS) persist(write func() error) error {
	v.pmu.Lock()
	defer v.pmu.Unlock()
	v.mu.Lock()
	broken := v.brokenErr != nil
	v.mu.Unlock()
	if broken {
		return nil
	}
	err := write()
	if err != nil {
		v.mu.Lock()
		v.brokenErr = fmt.Errorf("sqlstate: disk image abandoned: %w", err)
		v.mu.Unlock()
	}
	return err
}

// writeImage is the incremental persist. A crash before the journal's
// fsync leaves the image untouched; after it and until the journal is
// emptied, recovery rolls the image back to the previous flush point; the
// emptying itself is not synced, so a crash shortly after it may still
// find the journal hot and roll back a flush whose replies already left.
func (v *VFS) writeImage(origPages uint32, before, pages map[uint32][]byte) error {
	if err := sqldb.WriteJournal(v.journal, origPages, before); err != nil {
		return fmt.Errorf("sqlstate: image journal: %w", err)
	}
	for pgno, data := range pages {
		if _, err := v.image.WriteAt(data, int64(pgno-1)*sqldb.PageSize); err != nil {
			return fmt.Errorf("sqlstate: image page %d: %w", pgno, err)
		}
	}
	if err := v.image.Sync(); err != nil {
		return fmt.Errorf("sqlstate: image sync: %w", err)
	}
	return v.journal.Truncate(0)
}

// rebuildImage replaces the image with db through a temporary file, so a
// crash leaves the old image or the new one. The journal is empty here
// (every earlier persist completed, or latched and ended persisting), but
// its emptying may not be durable yet, and its before-images must never
// meet the new image: sync it first.
func (v *VFS) rebuildImage(db []byte) error {
	if err := v.journal.Sync(); err != nil {
		return fmt.Errorf("sqlstate: image rebuild: journal sync: %w", err)
	}
	tmpName := v.imageName() + ".tmp"
	tmp, err := v.disk.Open(tmpName)
	if err != nil {
		return err
	}
	err = tmp.Truncate(0)
	if err == nil {
		_, err = tmp.WriteAt(db, 0)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sqlstate: image rebuild: %w", err)
	}
	if err := v.disk.Rename(tmpName, v.imageName()); err != nil {
		return fmt.Errorf("sqlstate: image rebuild: %w", err)
	}
	fresh, err := v.disk.Open(v.imageName())
	if err != nil {
		return fmt.Errorf("sqlstate: image rebuild: %w", err)
	}
	_ = v.image.Close() // the replaced file; nothing of it is kept
	v.image = fresh
	return nil
}

// --- The region database file --------------------------------------------

// regionFile is the database file mapped onto the replicated region.
type regionFile struct {
	vfs *VFS
}

var _ sqldb.File = (*regionFile)(nil)

func (f *regionFile) capacity() int64 {
	return f.vfs.region.Size() - regionTailReserve
}

func (f *regionFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.capacity() {
		return 0, fmt.Errorf("sqlstate: read beyond region capacity")
	}
	// Reads beyond the logical size return zeros, like a sparse file
	// (§3.2's large-sparse-file trick).
	return f.vfs.region.ReadAt(p, off)
}

func (f *regionFile) WriteAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.capacity() {
		return 0, fmt.Errorf("sqlstate: database grew past the region capacity (%d bytes)", f.capacity())
	}
	if f.vfs.disk != nil {
		f.vfs.noteWrite(off, len(p))
	}
	// Region WriteAt performs the PBFT modify notification itself.
	n, err := f.vfs.region.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	if end := off + int64(len(p)); end > f.vfs.logicalSize() {
		if err := f.vfs.setLogicalSize(end); err != nil {
			return n, err
		}
	}
	return n, nil
}

func (f *regionFile) Truncate(size int64) error {
	if size > f.capacity() {
		return fmt.Errorf("sqlstate: truncate beyond region capacity")
	}
	cur := f.vfs.logicalSize()
	if size < cur {
		// Zero the truncated range so region digests stay canonical.
		zero := make([]byte, 4096)
		for off := size; off < cur; off += int64(len(zero)) {
			n := int64(len(zero))
			if off+n > cur {
				n = cur - off
			}
			if _, err := f.vfs.region.WriteAt(zero[:n], off); err != nil {
				return err
			}
		}
		// The image shrinks with the file: the rare path, rebuilt.
		f.vfs.stale.Store(true)
	}
	return f.vfs.setLogicalSize(size)
}

// regionViewFile is the region database file lending its pages out: a
// database page is one region page, and the region never writes a page
// it lent.
type regionViewFile struct{ *regionFile }

var _ sqldb.PageViewer = (*regionViewFile)(nil)

func (f *regionViewFile) ViewPage(pgno uint32) ([]byte, error) {
	if pgno == 0 || int64(pgno)*sqldb.PageSize > f.capacity() {
		return nil, fmt.Errorf("sqlstate: read beyond region capacity")
	}
	return f.vfs.region.PageView(int(pgno - 1))
}

// Sync is a no-op: the file is memory; its disk image is flushed at flush
// points (Capture), not per commit.
func (f *regionFile) Sync() error { return nil }

func (f *regionFile) Size() (int64, error) { return f.vfs.logicalSize(), nil }

func (f *regionFile) Close() error { return nil }
