package sqldb

import (
	"errors"
	"fmt"
	"slices"
)

// PageSize is the engine's page granularity. It matches the default state
// region page size so one database page maps onto one replicated page.
const PageSize = 4096

// Magic numbers identifying database and journal files.
var (
	dbMagic      = [8]byte{'G', 'o', 'S', 'Q', 'L', 'd', 'b', '1'}
	journalMagic = [8]byte{'G', 'o', 'S', 'Q', 'L', 'j', 'n', '1'}
)

// ErrNoTransaction is returned by Commit/Rollback outside a transaction.
var ErrNoTransaction = errors.New("sqldb: no active transaction")

// ErrInTransaction is returned by Begin inside a transaction.
var ErrInTransaction = errors.New("sqldb: transaction already active")

// Header layout (page 1):
//
//	[0:8)   magic
//	[8:12)  format version
//	[12:16) page count
//	[16:20) freelist head (0 = empty)
//	[20:24) catalog root page
const (
	hdrVersionOff  = 8
	hdrPageCount   = 12
	hdrFreelist    = 16
	hdrCatalogRoot = 20
	formatVersion  = 1
)

// Pager provides transactional page access over a VFS file pair: the
// database file and its rollback journal (§3.2). With Durable set, every
// commit journals before-images and syncs journal-then-database, giving
// atomicity and durability across crashes; without it, commits write in
// place with no journal and no sync (the paper's no-ACID comparison
// point, §4.2).
//
// The file is the only copy of a page that outlives a transaction: Get
// reads through the file's page views when it offers them (PageViewer)
// and by copy otherwise, and the pager keeps only the open transaction's
// overlay. So nothing needs invalidating when someone else rewrites the
// file between statements (the replicated region's state transfer or
// tentative rollback).
type Pager struct {
	vfs     VFS
	name    string
	db      File
	view    PageViewer // db's page views; nil when it offers none
	durable bool

	// The transaction's overlay; empty outside a transaction.
	pages map[uint32][]byte
	dirty map[uint32]bool
	order []uint32 // flush's scratch: the dirty pages in ascending order

	inTx      bool
	origCount uint32
	before    map[uint32][]byte // before-images of this tx
	journaled bool              // journal file written and synced

	// Stats for the benchmarks.
	Commits   uint64
	Rollbacks uint64
	Syncs     uint64
}

// OpenPager opens (creating or recovering as needed) the named database.
func OpenPager(vfs VFS, name string, durable bool) (*Pager, error) {
	db, err := vfs.Open(name)
	if err != nil {
		return nil, fmt.Errorf("open database: %w", err)
	}
	p := &Pager{
		vfs:     vfs,
		name:    name,
		db:      db,
		durable: durable,
		pages:   make(map[uint32][]byte),
		dirty:   make(map[uint32]bool),
		before:  make(map[uint32][]byte),
	}
	p.view, _ = db.(PageViewer)
	if err := p.recover(); err != nil {
		_ = db.Close()
		return nil, err
	}
	size, err := db.Size()
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	if size == 0 {
		if err := p.initialize(); err != nil {
			_ = db.Close()
			return nil, err
		}
		return p, nil
	}
	hdr, err := p.Get(1)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	if [8]byte(hdr[:8]) != dbMagic {
		_ = db.Close()
		return nil, fmt.Errorf("sqldb: %q is not a database file", name)
	}
	if v := getU32(hdr[hdrVersionOff:]); v != formatVersion {
		_ = db.Close()
		return nil, fmt.Errorf("sqldb: unsupported format version %d", v)
	}
	return p, nil
}

// journalName returns the rollback journal's file name.
func (p *Pager) journalName() string { return p.name + "-journal" }

// initialize lays out a fresh database: header page plus the empty
// catalog B+tree root, written straight to the file.
func (p *Pager) initialize() error {
	hdr := make([]byte, PageSize)
	copy(hdr, dbMagic[:])
	putU32(hdr[hdrVersionOff:], formatVersion)
	putU32(hdr[hdrPageCount:], 2)
	putU32(hdr[hdrFreelist:], 0)
	putU32(hdr[hdrCatalogRoot:], 2)
	root := make([]byte, PageSize)
	initLeaf(root)
	if err := p.Put(1, hdr); err != nil {
		return err
	}
	return p.Put(2, root)
}

// recover rolls back a hot journal left by a crash: restore the
// before-images, truncate to the original size, and delete the journal.
func (p *Pager) recover() error {
	exists, err := p.vfs.Exists(p.journalName())
	if err != nil {
		return err
	}
	if !exists {
		return nil
	}
	// A journal without a database is meaningless: the state it would
	// restore no longer exists. Discard it.
	if size, err := p.db.Size(); err != nil {
		return err
	} else if size == 0 {
		return p.vfs.Delete(p.journalName())
	}
	jf, err := p.vfs.Open(p.journalName())
	if err != nil {
		return err
	}
	defer jf.Close()
	if err := RollbackJournal(jf, p.db); err != nil {
		return err
	}
	return p.vfs.Delete(p.journalName())
}

// journalRecSize is one journal record: page number, before-image,
// checksum.
const journalRecSize = 4 + PageSize + 4

// WriteJournal writes a rollback journal into jf and syncs it: the page
// count to truncate back to, then one checksummed before-image per page
// (keyed by 1-based page number). Whatever jf held before is replaced.
// The pager journals a transaction with it; the replicated SQL layer
// journals a span's worth of its disk image's pages (sqlstate).
func WriteJournal(jf File, origCount uint32, before map[uint32][]byte) error {
	buf := make([]byte, 0, 12+len(before)*journalRecSize)
	buf = append(buf, journalMagic[:]...)
	buf = appendU32(buf, origCount)
	for pgno, img := range before {
		buf = appendU32(buf, pgno)
		buf = append(buf, img...)
		buf = appendU32(buf, journalChecksum(pgno, img))
	}
	if err := jf.Truncate(0); err != nil {
		return err
	}
	if _, err := jf.WriteAt(buf, 0); err != nil {
		return err
	}
	return jf.Sync()
}

// RollbackJournal replays the journal jf onto db: restore the
// before-images, truncate to the original page count, sync. db is left
// untouched when jf is no valid journal: shorter than its header or
// without the magic, which (the journal is synced before db is written)
// means db was never modified under it. A record failing its checksum is
// a torn tail and ends the replay. The caller disposes of the journal
// afterwards.
func RollbackJournal(jf, db File) error {
	size, err := jf.Size()
	if err != nil {
		return err
	}
	if size < 12 {
		return nil
	}
	hdr := make([]byte, 12)
	if _, err := jf.ReadAt(hdr, 0); err != nil {
		return err
	}
	if [8]byte(hdr[:8]) != journalMagic {
		return nil
	}
	origCount := getU32(hdr[8:])
	n := (size - 12) / journalRecSize
	rec := make([]byte, journalRecSize)
	for i := int64(0); i < n; i++ {
		if _, err := jf.ReadAt(rec, 12+i*journalRecSize); err != nil {
			return err
		}
		pgno := getU32(rec)
		data := rec[4 : 4+PageSize]
		if getU32(rec[4+PageSize:]) != journalChecksum(pgno, data) {
			break // torn tail: stop replaying
		}
		if _, err := db.WriteAt(data, int64(pgno-1)*PageSize); err != nil {
			return err
		}
	}
	if err := db.Truncate(int64(origCount) * PageSize); err != nil {
		return err
	}
	return db.Sync()
}

func journalChecksum(pgno uint32, data []byte) uint32 {
	sum := uint32(0x9E3779B9) ^ pgno
	for i := 0; i < len(data); i += 64 {
		sum = sum*31 + uint32(data[i])
	}
	return sum
}

// NumPages returns the database size in pages as the header page
// records it — inside a transaction, counting the pages it allocated —
// or 0 when the header cannot be read.
func (p *Pager) NumPages() uint32 {
	hdr, err := p.Get(1)
	if err != nil {
		return 0
	}
	return getU32(hdr[hdrPageCount:])
}

// CatalogRoot returns the catalog B+tree's root page.
func (p *Pager) CatalogRoot() (uint32, error) {
	hdr, err := p.Get(1)
	if err != nil {
		return 0, err
	}
	return getU32(hdr[hdrCatalogRoot:]), nil
}

// Get returns the content of page pgno: the transaction's overlay entry,
// else the file's view of the page, else a copy read from the file (kept
// in the overlay inside a transaction). Whichever it is, the caller must
// treat it as read-only and Put a fresh buffer to modify the page: the
// bytes may be the file's own, or live on as a before-image.
func (p *Pager) Get(pgno uint32) ([]byte, error) {
	if pgno == 0 {
		return nil, fmt.Errorf("sqldb: page 0 does not exist")
	}
	if data, ok := p.pages[pgno]; ok {
		return data, nil
	}
	if p.view != nil {
		data, err := p.view.ViewPage(pgno)
		if err != nil {
			return nil, fmt.Errorf("read page %d: %w", pgno, err)
		}
		return data, nil
	}
	data := make([]byte, PageSize)
	if _, err := p.db.ReadAt(data, int64(pgno-1)*PageSize); err != nil {
		return nil, fmt.Errorf("read page %d: %w", pgno, err)
	}
	if p.inTx {
		p.pages[pgno] = data
	}
	return data, nil
}

// Put replaces the content of page pgno and takes ownership of data: the
// caller must not write into it afterwards. Inside a transaction the
// page joins the overlay, and a page that predates the transaction keeps
// its before-image: what Get returned for it, not a copy, which is sound
// because neither the overlay nor the file ever changes bytes Get handed
// out. Outside a transaction Put writes the page straight to the file;
// there is nothing to roll back.
func (p *Pager) Put(pgno uint32, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("sqldb: page data of %d bytes", len(data))
	}
	if !p.inTx {
		_, err := p.db.WriteAt(data, int64(pgno-1)*PageSize)
		return err
	}
	if pgno <= p.origCount {
		if _, done := p.before[pgno]; !done {
			old, err := p.Get(pgno)
			if err != nil {
				return err
			}
			p.before[pgno] = old
		}
	}
	p.pages[pgno] = data
	p.dirty[pgno] = true
	return nil
}

// Allocate returns a fresh (or recycled) page number.
func (p *Pager) Allocate() (uint32, error) {
	hdr, err := p.Get(1)
	if err != nil {
		return 0, err
	}
	if head := getU32(hdr[hdrFreelist:]); head != 0 {
		fp, err := p.Get(head)
		if err != nil {
			return 0, err
		}
		next := getU32(fp)
		newHdr := make([]byte, PageSize)
		copy(newHdr, hdr)
		putU32(newHdr[hdrFreelist:], next)
		if err := p.Put(1, newHdr); err != nil {
			return 0, err
		}
		zero := make([]byte, PageSize)
		if err := p.Put(head, zero); err != nil {
			return 0, err
		}
		return head, nil
	}
	pgno := getU32(hdr[hdrPageCount:]) + 1
	newHdr := make([]byte, PageSize)
	copy(newHdr, hdr)
	putU32(newHdr[hdrPageCount:], pgno)
	if err := p.Put(1, newHdr); err != nil {
		return 0, err
	}
	zero := make([]byte, PageSize)
	if err := p.Put(pgno, zero); err != nil {
		return 0, err
	}
	return pgno, nil
}

// Free returns a page to the freelist.
func (p *Pager) Free(pgno uint32) error {
	hdr, err := p.Get(1)
	if err != nil {
		return err
	}
	head := getU32(hdr[hdrFreelist:])
	fp := make([]byte, PageSize)
	putU32(fp, head)
	if err := p.Put(pgno, fp); err != nil {
		return err
	}
	newHdr := make([]byte, PageSize)
	copy(newHdr, hdr)
	putU32(newHdr[hdrFreelist:], pgno)
	return p.Put(1, newHdr)
}

// Begin opens a transaction.
func (p *Pager) Begin() error {
	if p.inTx {
		return ErrInTransaction
	}
	hdr, err := p.Get(1)
	if err != nil {
		return err
	}
	p.inTx = true
	p.origCount = getU32(hdr[hdrPageCount:])
	p.journaled = false
	return nil
}

// InTransaction reports whether a transaction is active.
func (p *Pager) InTransaction() bool { return p.inTx }

// Commit makes the transaction's writes visible and, in durable mode,
// crash-safe: before-images are journaled and synced before the database
// is overwritten and synced (write-ahead discipline of the rollback
// journal, §3.2).
func (p *Pager) Commit() error {
	if !p.inTx {
		return ErrNoTransaction
	}
	if p.durable && len(p.before) > 0 {
		if err := p.writeJournal(); err != nil {
			p.abort()
			return err
		}
	}
	if err := p.flush(); err != nil {
		p.abort()
		return err
	}
	if p.durable {
		if err := p.db.Sync(); err != nil {
			p.abort()
			return err
		}
		p.Syncs++
		if p.journaled {
			if err := p.vfs.Delete(p.journalName()); err != nil {
				return err
			}
		}
	}
	p.end()
	p.Commits++
	return nil
}

// end closes the transaction and empties its overlay.
func (p *Pager) end() {
	p.inTx = false
	clear(p.pages)
	clear(p.dirty)
	clear(p.before)
}

// writeJournal persists the before-images and syncs them.
func (p *Pager) writeJournal() error {
	jf, err := p.vfs.Open(p.journalName())
	if err != nil {
		return err
	}
	defer jf.Close()
	if err := WriteJournal(jf, p.origCount, p.before); err != nil {
		return err
	}
	p.Syncs++
	p.journaled = true
	return nil
}

// flush writes the dirty pages to the database file in ascending order,
// so a write that fails (a file that cannot grow) fails at the same page
// on every run, after the same pages before it.
func (p *Pager) flush() error {
	p.order = p.order[:0]
	for pgno := range p.dirty {
		p.order = append(p.order, pgno)
	}
	slices.Sort(p.order)
	for _, pgno := range p.order {
		if _, err := p.db.WriteAt(p.pages[pgno], int64(pgno-1)*PageSize); err != nil {
			return err
		}
	}
	return nil
}

// Rollback undoes the transaction from the in-memory before-images.
func (p *Pager) Rollback() error {
	if !p.inTx {
		return ErrNoTransaction
	}
	p.abort()
	p.Rollbacks++
	return nil
}

// abort writes the before-images back to the file, cuts it back to its
// size at Begin, and ends the transaction. A failed commit may have
// written some of the overlay already; every page it could have written
// is restored or cut off.
func (p *Pager) abort() {
	count := p.NumPages()
	for pgno, img := range p.before {
		_, _ = p.db.WriteAt(img, int64(pgno-1)*PageSize)
	}
	if count != p.origCount {
		_ = p.db.Truncate(int64(p.origCount) * PageSize)
	}
	if p.journaled {
		_ = p.vfs.Delete(p.journalName())
	}
	p.end()
}

// Close flushes nothing (commits do) and releases the file. A transaction
// still open is rolled back.
func (p *Pager) Close() error {
	if p.inTx {
		_ = p.Rollback()
	}
	return p.db.Close()
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
