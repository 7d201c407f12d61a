package sqldb

import (
	"crypto/rand"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// File is the VFS file abstraction the engine reads and writes through.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Truncate resizes the file.
	Truncate(size int64) error
	// Sync forces the file's content to stable storage. Durability
	// hinges on it; a replicated VFS may treat it differently for the
	// database (memory-backed) and the journal (disk-backed).
	Sync() error
	// Size returns the current file size.
	Size() (int64, error)
	// Close releases the file.
	Close() error
}

// PageViewer is implemented by a File that can lend its pages out instead
// of copying them. ViewPage returns page pgno (1-based, PageSize bytes),
// or the error ReadAt would give for that page. Nobody may write through
// a view, and the file never changes the bytes of a page it lent: it
// stores a changed page anew, so a view shows the page as it was when it
// was taken. The pager reads through views when its file offers them
// (MemVFS, the replicated region's file) and by copy otherwise (DiskVFS).
type PageViewer interface {
	ViewPage(pgno uint32) ([]byte, error)
}

// VFS abstracts the environment below the engine: file storage plus the
// non-deterministic services (time, randomness) that a replicated
// deployment must route through the agreement layer (§3.2, Fig. 3).
type VFS interface {
	// Open opens (creating if needed) the named file.
	Open(name string) (File, error)
	// Delete removes the named file (no error if absent).
	Delete(name string) error
	// Exists reports whether the named file exists.
	Exists(name string) (bool, error)
	// Now is the engine's clock (SQL now()).
	Now() time.Time
	// Rand fills p with randomness (SQL random()).
	Rand(p []byte) error
}

// DiskVFS is the ordinary single-node VFS: real files, real clock, real
// entropy. Root confines all files to one directory.
type DiskVFS struct {
	Root string
}

var _ VFS = (*DiskVFS)(nil)

// Open implements VFS.
func (v *DiskVFS) Open(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(v.Root, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskFile{f: f}, nil
}

// Delete implements VFS.
func (v *DiskVFS) Delete(name string) error {
	err := os.Remove(filepath.Join(v.Root, name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Exists implements VFS.
func (v *DiskVFS) Exists(name string) (bool, error) {
	_, err := os.Stat(filepath.Join(v.Root, name))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

// Rename atomically replaces newName with oldName and syncs the
// directory, so the replacement survives a crash.
func (v *DiskVFS) Rename(oldName, newName string) error {
	if err := os.Rename(filepath.Join(v.Root, oldName), filepath.Join(v.Root, newName)); err != nil {
		return err
	}
	dir, err := os.Open(v.Root)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Now implements VFS.
func (v *DiskVFS) Now() time.Time { return time.Now() }

// Rand implements VFS.
func (v *DiskVFS) Rand(p []byte) error {
	_, err := rand.Read(p)
	return err
}

type diskFile struct{ f *os.File }

func (d *diskFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.f.ReadAt(p, off)
	if err == io.EOF && n == len(p) {
		err = nil
	}
	return n, err
}
func (d *diskFile) WriteAt(p []byte, off int64) (int, error) { return d.f.WriteAt(p, off) }
func (d *diskFile) Truncate(size int64) error                { return d.f.Truncate(size) }
func (d *diskFile) Sync() error                              { return d.f.Sync() }
func (d *diskFile) Close() error                             { return d.f.Close() }
func (d *diskFile) Size() (int64, error) {
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// MemVFS is an in-memory VFS for tests: deterministic time and randomness
// can be injected, and a crash simulated (FailSyncAfter, Crash).
type MemVFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	// NowFunc overrides the clock (nil = real time).
	NowFunc func() time.Time
	// RandFunc overrides entropy (nil = crypto/rand).
	RandFunc func(p []byte) error
	// FailSyncAfter makes the N+1-th Sync fail (crash injection);
	// negative disables.
	FailSyncAfter int
	syncs         int
}

var _ VFS = (*MemVFS)(nil)

// NewMemVFS builds an empty in-memory VFS.
func NewMemVFS() *MemVFS {
	return &MemVFS{files: make(map[string]*memFile), FailSyncAfter: -1}
}

// Open implements VFS.
func (v *MemVFS) Open(name string) (File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	f, ok := v.files[name]
	if !ok {
		f = &memFile{vfs: v}
		v.files[name] = f
	}
	return f, nil
}

// Delete implements VFS.
func (v *MemVFS) Delete(name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.files, name)
	return nil
}

// Exists implements VFS.
func (v *MemVFS) Exists(name string) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.files[name]
	return ok, nil
}

// Rename replaces newName with oldName, like DiskVFS.Rename; the
// replacement counts as synced.
func (v *MemVFS) Rename(oldName, newName string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	f, ok := v.files[oldName]
	if !ok {
		return fmt.Errorf("sqldb: rename %q: no such file", oldName)
	}
	delete(v.files, oldName)
	v.files[newName] = f
	return nil
}

// Crash simulates a power cut: every file falls back to its content at
// its last successful Sync; bytes written since are gone.
func (v *MemVFS) Crash() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, f := range v.files {
		f.size, f.pages = f.syncedSize, slices.Clone(f.syncedPages)
	}
}

// Now implements VFS.
func (v *MemVFS) Now() time.Time {
	if v.NowFunc != nil {
		return v.NowFunc()
	}
	return time.Now()
}

// Rand implements VFS.
func (v *MemVFS) Rand(p []byte) error {
	if v.RandFunc != nil {
		return v.RandFunc(p)
	}
	_, err := rand.Read(p)
	return err
}

// memFile keeps its content in PageSize pages. A stored page is never
// written again — WriteAt and Truncate store a changed page anew — so
// ViewPage can lend pages out and Sync can keep the content by copying
// the page list.
type memFile struct {
	vfs   *MemVFS
	size  int64
	pages [][]byte // covers size; nil entry = zeros
	// Content at the last successful Sync (see Crash).
	syncedSize  int64
	syncedPages [][]byte
}

// zeroPage is the view of a memFile page never written; nobody writes it.
var zeroPage = make([]byte, PageSize)

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	n := 0
	for n < len(p) && off+int64(n) < m.size {
		pos := off + int64(n)
		page, po := m.pages[pos/PageSize], int(pos%PageSize)
		chunk := min(PageSize-po, len(p)-n, int(m.size-pos))
		if page != nil {
			copy(p[n:n+chunk], page[po:])
		} else {
			clear(p[n : n+chunk])
		}
		n += chunk
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) ViewPage(pgno uint32) ([]byte, error) {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	if pgno == 0 || int64(pgno)*PageSize > m.size {
		return nil, io.EOF
	}
	if page := m.pages[pgno-1]; page != nil {
		return page, nil
	}
	return zeroPage, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	if end := off + int64(len(p)); end > m.size {
		m.resize(end)
	}
	for n := 0; n < len(p); {
		pos := off + int64(n)
		i, po := pos/PageSize, int(pos%PageSize)
		chunk := min(PageSize-po, len(p)-n)
		fresh := make([]byte, PageSize)
		if old := m.pages[i]; old != nil && chunk < PageSize {
			copy(fresh, old)
		}
		copy(fresh[po:], p[n:n+chunk])
		m.pages[i] = fresh
		n += chunk
	}
	return len(p), nil
}

// resize sets the size, dropping whole pages past it and zeroing the
// rest of a partial last page.
func (m *memFile) resize(size int64) {
	n := int((size + PageSize - 1) / PageSize)
	if n < len(m.pages) {
		clear(m.pages[n:])
		m.pages = m.pages[:n]
	}
	for len(m.pages) < n {
		m.pages = append(m.pages, nil)
	}
	if tail := int(size % PageSize); size < m.size && tail != 0 && m.pages[n-1] != nil {
		fresh := make([]byte, PageSize)
		copy(fresh, m.pages[n-1][:tail])
		m.pages[n-1] = fresh
	}
	m.size = size
}

func (m *memFile) Truncate(size int64) error {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	m.resize(size)
	return nil
}

func (m *memFile) Sync() error {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	m.vfs.syncs++
	if m.vfs.FailSyncAfter >= 0 && m.vfs.syncs > m.vfs.FailSyncAfter {
		return fmt.Errorf("sqldb: injected sync failure")
	}
	m.syncedSize = m.size
	m.syncedPages = append(m.syncedPages[:0], m.pages...)
	return nil
}

func (m *memFile) Size() (int64, error) {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	return m.size, nil
}

func (m *memFile) Close() error { return nil }
