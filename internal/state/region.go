// Package state implements the replicated-state subsystem of the PBFT
// middleware: a paged, sparse memory region with copy-on-write snapshots
// and a Merkle (hash) tree over the pages (§2.1 of the paper). Replicas
// agree on the region's root digest at checkpoints; a lagging replica walks
// the tree against a peer's snapshot and fetches only differing pages.
//
// The region is sparse: pages are allocated on first write, so a service
// can declare a large virtual state (the paper's sparse-file trick, §3.2)
// while memory use tracks the touched pages only.
package state

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/crypto"
)

// DefaultPageSize is the page granularity of checkpointing and state
// transfer.
const DefaultPageSize = 4096

// Fanout is the arity of the Merkle tree.
const Fanout = 16

// Region is the application-visible replicated memory. The application has
// free read access but must notify the region before modifying a range
// (Modify), allowing copy-on-write checkpoint snapshots. WriteAt performs
// the notification itself. PageView lends a page out without copying it;
// the region copies a lent page before it next changes, so a view keeps
// the bytes it had when it was taken.
//
// A Region is safe for concurrent use, although the replica confines all
// writes to its event loop.
type Region struct {
	mu        sync.RWMutex
	pageSize  int
	numPages  int
	size      int64
	pages     [][]byte // nil entry = all-zero page, not yet allocated
	shared    []bool   // page is referenced by a snapshot or a view
	dirtyLeaf []bool   // leaf digest out of date
	leaf      []crypto.Digest
	zeroPage  []byte        // the view of every sparse page; never written
	zeroLeaf  crypto.Digest // digest of an all-zero page
	anyDirty  bool
	snaps     map[uint64]*Snapshot

	// Flush contract (flush.go); both set before the region is shared
	// between goroutines.
	flusher     Flusher
	flushDriven bool
}

// NewRegion creates a sparse region of size bytes with the given page size
// (0 means DefaultPageSize). Size is rounded up to a whole number of pages.
func NewRegion(size int64, pageSize int) (*Region, error) {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 64 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("state: page size %d must be a power of two >= 64", pageSize)
	}
	if size <= 0 {
		return nil, fmt.Errorf("state: region size %d must be positive", size)
	}
	numPages := int((size + int64(pageSize) - 1) / int64(pageSize))
	r := &Region{
		pageSize:  pageSize,
		numPages:  numPages,
		size:      int64(numPages) * int64(pageSize),
		pages:     make([][]byte, numPages),
		shared:    make([]bool, numPages),
		dirtyLeaf: make([]bool, numPages),
		leaf:      make([]crypto.Digest, numPages),
		snaps:     make(map[uint64]*Snapshot),
		zeroPage:  make([]byte, pageSize),
	}
	r.zeroLeaf = crypto.DigestOf(r.zeroPage)
	for i := range r.leaf {
		r.leaf[i] = r.zeroLeaf
	}
	return r, nil
}

// Size returns the region length in bytes.
func (r *Region) Size() int64 { return r.size }

// PageSize returns the page granularity.
func (r *Region) PageSize() int { return r.pageSize }

// NumPages returns the number of pages.
func (r *Region) NumPages() int { return r.numPages }

// ReadAt copies len(p) bytes at offset off into p. Reads of unallocated
// pages return zeros.
func (r *Region) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > r.size {
		return 0, fmt.Errorf("state: read [%d,%d) outside region of %d bytes", off, off+int64(len(p)), r.size)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for n < len(p) {
		page := int((off + int64(n)) / int64(r.pageSize))
		po := int((off + int64(n)) % int64(r.pageSize))
		chunk := r.pageSize - po
		if rem := len(p) - n; chunk > rem {
			chunk = rem
		}
		if src := r.pages[page]; src != nil {
			copy(p[n:n+chunk], src[po:])
		} else {
			for i := n; i < n+chunk; i++ {
				p[i] = 0
			}
		}
		n += chunk
	}
	return n, nil
}

// Modify notifies the region that [off, off+length) is about to change.
// It performs the copy-on-write split for pages referenced by snapshots.
// The application (or the VFS layer on its behalf) must call it before
// writing through any pointer it obtained; WriteAt calls it implicitly.
func (r *Region) Modify(off, length int64) error {
	if length == 0 {
		return nil
	}
	if off < 0 || length < 0 || off+length > r.size {
		return fmt.Errorf("state: modify [%d,%d) outside region of %d bytes", off, off+length, r.size)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first := int(off / int64(r.pageSize))
	last := int((off + length - 1) / int64(r.pageSize))
	for p := first; p <= last; p++ {
		r.touchPageLocked(p)
	}
	return nil
}

// touchPageLocked prepares page p for mutation: allocates it if sparse and
// splits it from any snapshot or view that shares its backing array.
func (r *Region) touchPageLocked(p int) {
	if r.pages[p] == nil {
		r.pages[p] = make([]byte, r.pageSize)
	} else if r.shared[p] {
		r.pages[p] = bytes.Clone(r.pages[p]) // no zeroing before the copy
	}
	r.shared[p] = false
	r.dirtyLeaf[p] = true
	r.anyDirty = true
}

// WriteAt writes p at offset off, performing the modify notification
// itself.
func (r *Region) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > r.size {
		return 0, fmt.Errorf("state: write [%d,%d) outside region of %d bytes", off, off+int64(len(p)), r.size)
	}
	if len(p) == 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for n < len(p) {
		page := int((off + int64(n)) / int64(r.pageSize))
		po := int((off + int64(n)) % int64(r.pageSize))
		chunk := r.pageSize - po
		if rem := len(p) - n; chunk > rem {
			chunk = rem
		}
		r.touchPageLocked(page)
		copy(r.pages[page][po:], p[n:n+chunk])
		n += chunk
	}
	return n, nil
}

// ApplyPage installs fetched page data during state transfer (or a
// durable replica's recovery). The page is rewritten underneath the
// application, so the registered Flusher is invalidated; a view of the
// page taken before keeps the old bytes. The replica calls it only while
// no operation executes.
func (r *Region) ApplyPage(index int, data []byte) error {
	if index < 0 || index >= r.numPages {
		return fmt.Errorf("state: page %d out of range [0,%d)", index, r.numPages)
	}
	if len(data) != r.pageSize {
		return fmt.Errorf("state: page data of %d bytes, want %d", len(data), r.pageSize)
	}
	r.mu.Lock()
	r.touchPageLocked(index)
	copy(r.pages[index], data)
	r.mu.Unlock()
	if r.flusher != nil {
		r.flusher.Invalidate()
	}
	return nil
}

// PageView returns page index's current content without copying it: the
// region's own bytes, or a shared zero page for a sparse page. Nobody may
// write through a view. The region copies a viewed page before it next
// changes it, so a view never changes; it shows the page as it was when
// the view was taken.
func (r *Region) PageView(index int) ([]byte, error) {
	if index < 0 || index >= r.numPages {
		return nil, fmt.Errorf("state: page %d out of range [0,%d)", index, r.numPages)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	page := r.pages[index]
	if page == nil {
		return r.zeroPage, nil
	}
	r.shared[index] = true
	return page, nil
}

// Page returns a copy of page index's current content.
func (r *Region) Page(index int) ([]byte, error) {
	if index < 0 || index >= r.numPages {
		return nil, fmt.Errorf("state: page %d out of range [0,%d)", index, r.numPages)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]byte, r.pageSize)
	if src := r.pages[index]; src != nil {
		copy(out, src)
	}
	return out, nil
}

// refreshLeavesLocked brings dirty leaf digests up to date.
func (r *Region) refreshLeavesLocked() {
	if !r.anyDirty {
		return
	}
	for i, d := range r.dirtyLeaf {
		if !d {
			continue
		}
		if r.pages[i] == nil {
			r.leaf[i] = r.zeroLeaf
		} else {
			r.leaf[i] = crypto.DigestOf(r.pages[i])
		}
		r.dirtyLeaf[i] = false
	}
	r.anyDirty = false
}

// Root returns the Merkle root digest of the region's current content.
func (r *Region) Root() crypto.Digest {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLeavesLocked()
	return rootOf(r.leaf)
}

// LeafDigests returns a copy of the current per-page digests.
func (r *Region) LeafDigests() []crypto.Digest {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLeavesLocked()
	out := make([]crypto.Digest, len(r.leaf))
	copy(out, r.leaf)
	return out
}
