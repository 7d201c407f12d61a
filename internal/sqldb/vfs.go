package sqldb

import (
	"crypto/rand"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		f.data = append([]byte(nil), f.synced...)
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

type memFile struct {
	vfs    *MemVFS
	data   []byte
	synced []byte // content at the last successful Sync (see Crash)
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(m.data)) {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], p)
	return len(p), nil
}

func (m *memFile) Truncate(size int64) error {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	if size <= int64(len(m.data)) {
		m.data = m.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, m.data)
		m.data = grown
	}
	return nil
}

func (m *memFile) Sync() error {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	m.vfs.syncs++
	if m.vfs.FailSyncAfter >= 0 && m.vfs.syncs > m.vfs.FailSyncAfter {
		return fmt.Errorf("sqldb: injected sync failure")
	}
	m.synced = append(m.synced[:0], m.data...)
	return nil
}

func (m *memFile) Size() (int64, error) {
	m.vfs.mu.Lock()
	defer m.vfs.mu.Unlock()
	return int64(len(m.data)), nil
}

func (m *memFile) Close() error { return nil }
