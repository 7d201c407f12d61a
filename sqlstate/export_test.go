package sqlstate

import (
	"sync"

	"repro/internal/sqldb"
	"repro/internal/state"
)

// Test seams: the disk under the image is injectable only from tests.

// DiskApp is an App whose disk image lives on an injected file system
// instead of Options.DiskDir.
type DiskApp struct {
	*App
	disk diskFS
}

// NewAppOnDisk builds a Durable App over disk.
func NewAppOnDisk(opts Options, disk *HookDisk) *DiskApp {
	opts.Durable = true
	return &DiskApp{App: NewApp(opts), disk: disk}
}

// AttachState shadows App.AttachState with the injected disk.
func (a *DiskApp) AttachState(region *state.Region) {
	vfs, err := newVFS(region, a.opts.DBName, a.disk)
	if err != nil {
		a.err = err
		return
	}
	a.attach(region, vfs)
}

// HookDisk is a MemVFS whose mutating file operations first pass through
// Hook: returning an error fails the operation, blocking stalls it. With
// Tear set, a failing WriteAt still writes the first half of its bytes —
// a torn write.
type HookDisk struct {
	*sqldb.MemVFS
	mu   sync.Mutex
	hook func(file, op string) error
	Tear bool
}

// NewHookDisk wraps a fresh MemVFS.
func NewHookDisk() *HookDisk { return &HookDisk{MemVFS: sqldb.NewMemVFS()} }

// SetHook installs (or, with nil, removes) the hook.
func (d *HookDisk) SetHook(hook func(file, op string) error) {
	d.mu.Lock()
	d.hook = hook
	d.mu.Unlock()
}

func (d *HookDisk) check(file, op string) error {
	d.mu.Lock()
	hook := d.hook
	d.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook(file, op)
}

// Open implements diskFS.
func (d *HookDisk) Open(name string) (sqldb.File, error) {
	f, err := d.MemVFS.Open(name)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, name: name, disk: d}, nil
}

// Rename implements diskFS.
func (d *HookDisk) Rename(oldName, newName string) error {
	if err := d.check(newName, "rename"); err != nil {
		return err
	}
	return d.MemVFS.Rename(oldName, newName)
}

// ReadFile returns the named file's whole content.
func (d *HookDisk) ReadFile(name string) []byte {
	f, _ := d.MemVFS.Open(name)
	size, _ := f.Size()
	out := make([]byte, size)
	_, _ = f.ReadAt(out, 0)
	return out
}

type hookFile struct {
	sqldb.File
	name string
	disk *HookDisk
}

func (f *hookFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.disk.check(f.name, "write"); err != nil {
		if f.disk.Tear {
			_, _ = f.File.WriteAt(p[:len(p)/2], off)
		}
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *hookFile) Truncate(size int64) error {
	if err := f.disk.check(f.name, "truncate"); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *hookFile) Sync() error {
	if err := f.disk.check(f.name, "sync"); err != nil {
		return err
	}
	return f.File.Sync()
}
