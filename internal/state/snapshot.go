package state

import (
	"fmt"

	"repro/internal/crypto"
)

// Snapshot is an immutable checkpoint of the region at a sequence number.
// It shares unmodified pages with the live region (copy-on-write) and owns
// its full Merkle tree, so it can serve state-transfer fetches after the
// live region has moved on.
type Snapshot struct {
	Seq    uint64
	root   crypto.Digest
	levels [][]crypto.Digest
	pages  [][]byte // nil entry = zero page
	psize  int
}

// Snapshot captures the current content as checkpoint seq. The pages are
// shared copy-on-write: the snapshot stays O(dirty pages) as the live
// region keeps executing.
func (r *Region) Snapshot(seq uint64) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLeavesLocked()
	leaf := make([]crypto.Digest, len(r.leaf))
	copy(leaf, r.leaf)
	pages := make([][]byte, len(r.pages))
	copy(pages, r.pages)
	for i := range r.shared {
		if r.pages[i] != nil {
			r.shared[i] = true
		}
	}
	levels := buildLevels(leaf)
	s := &Snapshot{
		Seq:    seq,
		root:   levels[len(levels)-1][0],
		levels: levels,
		pages:  pages,
		psize:  r.pageSize,
	}
	r.snaps[seq] = s
	return s
}

// SnapshotAt returns the retained snapshot for seq, if any.
func (r *Region) SnapshotAt(seq uint64) (*Snapshot, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.snaps[seq]
	return s, ok
}

// ReleaseBelow discards retained snapshots with Seq < seq (log garbage
// collection at stable checkpoints).
func (r *Region) ReleaseBelow(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.snaps {
		if k < seq {
			delete(r.snaps, k)
		}
	}
}

// ReleaseAbove discards retained snapshots with Seq > seq (rollback of
// tentative checkpoints during a view change).
func (r *Region) ReleaseAbove(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.snaps {
		if k > seq {
			delete(r.snaps, k)
		}
	}
}

// Restore rewinds the live region to the snapshot's content (rollback of
// tentative executions on a view change). Only pages whose digest differs
// are touched; when any was, the registered Flusher is invalidated. Views
// taken before keep the old bytes. The replica calls it only while no
// operation executes.
func (r *Region) Restore(s *Snapshot) {
	r.mu.Lock()
	r.refreshLeavesLocked()
	rewritten := false
	for i := range r.pages {
		if r.leaf[i] == s.levels[0][i] {
			continue
		}
		rewritten = true
		r.touchPageLocked(i)
		if src := s.pages[i]; src != nil {
			copy(r.pages[i], src)
		} else {
			clear(r.pages[i])
		}
	}
	r.mu.Unlock()
	if rewritten && r.flusher != nil {
		r.flusher.Invalidate()
	}
}

// Root returns the snapshot's Merkle root.
func (s *Snapshot) Root() crypto.Digest { return s.root }

// Height returns the snapshot tree's height (root level).
func (s *Snapshot) Height() int { return len(s.levels) - 1 }

// Children returns the child digests of node (level, index); level 1 nodes
// have page digests as children. It returns an error outside the tree.
func (s *Snapshot) Children(level, index int) ([]crypto.Digest, error) {
	if level < 1 || level > s.Height() {
		return nil, fmt.Errorf("state: level %d out of range [1,%d]", level, s.Height())
	}
	if index < 0 || index >= len(s.levels[level]) {
		return nil, fmt.Errorf("state: node %d out of range at level %d", index, level)
	}
	return childrenOf(s.levels, level, index), nil
}

// NodeDigest returns the digest of node (level, index); level 0 is a page.
func (s *Snapshot) NodeDigest(level, index int) (crypto.Digest, error) {
	if level < 0 || level > s.Height() {
		return crypto.Digest{}, fmt.Errorf("state: level %d out of range [0,%d]", level, s.Height())
	}
	if index < 0 || index >= len(s.levels[level]) {
		return crypto.Digest{}, fmt.Errorf("state: node %d out of range at level %d", index, level)
	}
	return s.levels[level][index], nil
}

// Page returns a copy of the snapshot's page at index.
func (s *Snapshot) Page(index int) ([]byte, error) {
	if index < 0 || index >= len(s.pages) {
		return nil, fmt.Errorf("state: page %d out of range [0,%d)", index, len(s.pages))
	}
	out := make([]byte, s.psize)
	if src := s.pages[index]; src != nil {
		copy(out, src)
	}
	return out, nil
}

// NumPages returns the number of pages covered by the snapshot.
func (s *Snapshot) NumPages() int { return len(s.pages) }
