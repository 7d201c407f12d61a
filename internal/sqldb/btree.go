package sqldb

import (
	"bytes"
	"fmt"
	"sort"
)

// B+tree page layout.
//
// Leaf:     [0]=pageLeaf  [1:3)=ncells [3:7)=next-leaf  cells...
//
//	cell: rowid i64, payload-len u16, payload
//
// Interior: [0]=pageInt   [1:3)=ncells [3:7)=rightmost  cells...
//
//	cell: key i64 (max rowid of child's subtree), child u32
//
// Rowids are unique and assigned in increasing order by the table layer,
// so inserts cluster on the right edge. Deletes are lazy (no rebalancing;
// pages may underflow but the leaf chain stays intact), a documented
// simplification shared with many embedded engines' early versions.
const (
	pageLeaf     = 1
	pageInterior = 2
	pageHdrSize  = 7
	leafCellOvh  = 10 // rowid + length
	intCellSize  = 12
	// MaxPayload bounds one row's encoded size so any cell fits a page.
	MaxPayload = PageSize - pageHdrSize - leafCellOvh
)

type leafCell struct {
	rowid   int64
	payload []byte
}

type intCell struct {
	key   int64
	child uint32
}

func initLeaf(data []byte) {
	data[0] = pageLeaf
}

func decodeLeaf(data []byte) (cells []leafCell, next uint32, err error) {
	if data[0] != pageLeaf {
		return nil, 0, fmt.Errorf("sqldb: page is not a leaf (type %d)", data[0])
	}
	n := int(data[1])<<8 | int(data[2])
	next = getU32(data[3:])
	off := pageHdrSize
	cells = make([]leafCell, 0, n)
	for i := 0; i < n; i++ {
		if off+leafCellOvh > len(data) {
			return nil, 0, fmt.Errorf("sqldb: corrupt leaf page")
		}
		rowid := int64(getU64(data[off:]))
		plen := int(data[off+8])<<8 | int(data[off+9])
		off += leafCellOvh
		if off+plen > len(data) {
			return nil, 0, fmt.Errorf("sqldb: corrupt leaf cell")
		}
		payload := make([]byte, plen)
		copy(payload, data[off:off+plen])
		off += plen
		cells = append(cells, leafCell{rowid: rowid, payload: payload})
	}
	return cells, next, nil
}

func leafSize(cells []leafCell) int {
	size := pageHdrSize
	for _, c := range cells {
		size += leafCellOvh + len(c.payload)
	}
	return size
}

func encodeLeaf(cells []leafCell, next uint32) ([]byte, bool) {
	if leafSize(cells) > PageSize {
		return nil, false
	}
	data := make([]byte, PageSize)
	data[0] = pageLeaf
	data[1], data[2] = byte(len(cells)>>8), byte(len(cells))
	putU32(data[3:], next)
	off := pageHdrSize
	for _, c := range cells {
		putU64(data[off:], uint64(c.rowid))
		data[off+8], data[off+9] = byte(len(c.payload)>>8), byte(len(c.payload))
		off += leafCellOvh
		copy(data[off:], c.payload)
		off += len(c.payload)
	}
	return data, true
}

// leafSearch looks rowid up in a leaf page in place. It walks every
// cell header, validating the page exactly as decodeLeaf does, and
// returns the matching cell's payload as a sub-slice of data: the caller
// copies what it keeps. On a page whose rowids ascend (every page the
// tree writes) it picks the cell decodeLeaf's binary search would.
func leafSearch(data []byte, rowid int64) (payload []byte, found bool, err error) {
	if data[0] != pageLeaf {
		return nil, false, fmt.Errorf("sqldb: page is not a leaf (type %d)", data[0])
	}
	n := int(data[1])<<8 | int(data[2])
	off := pageHdrSize
	passed := false // a cell with a rowid >= the target was seen
	for i := 0; i < n; i++ {
		if off+leafCellOvh > len(data) {
			return nil, false, fmt.Errorf("sqldb: corrupt leaf page")
		}
		id := int64(getU64(data[off:]))
		plen := int(data[off+8])<<8 | int(data[off+9])
		off += leafCellOvh
		if off+plen > len(data) {
			return nil, false, fmt.Errorf("sqldb: corrupt leaf cell")
		}
		if !passed && id >= rowid {
			passed = true
			if id == rowid {
				payload, found = data[off:off+plen], true
			}
		}
		off += plen
	}
	return payload, found, nil
}

func decodeInterior(data []byte) (cells []intCell, right uint32, err error) {
	if data[0] != pageInterior {
		return nil, 0, fmt.Errorf("sqldb: page is not interior (type %d)", data[0])
	}
	n := int(data[1])<<8 | int(data[2])
	right = getU32(data[3:])
	off := pageHdrSize
	cells = make([]intCell, 0, n)
	for i := 0; i < n; i++ {
		if off+intCellSize > len(data) {
			return nil, 0, fmt.Errorf("sqldb: corrupt interior page")
		}
		cells = append(cells, intCell{
			key:   int64(getU64(data[off:])),
			child: getU32(data[off+8:]),
		})
		off += intCellSize
	}
	return cells, right, nil
}

// interiorChild picks, in place, the child of an interior page covering
// rowid and its cell index (ncells for the rightmost child): the first
// cell whose key is >= rowid, found by binary search over the fixed-size
// cells, else the rightmost child. A cell count that runs past the page
// gets decodeInterior's error.
func interiorChild(data []byte, rowid int64) (child uint32, idx int, err error) {
	n := int(data[1])<<8 | int(data[2])
	if pageHdrSize+n*intCellSize > len(data) {
		return 0, 0, fmt.Errorf("sqldb: corrupt interior page")
	}
	i := sort.Search(n, func(i int) bool { return rowid <= int64(getU64(data[pageHdrSize+i*intCellSize:])) })
	if i < n {
		return getU32(data[pageHdrSize+i*intCellSize+8:]), i, nil
	}
	return getU32(data[3:]), n, nil
}

func encodeInterior(cells []intCell, right uint32) ([]byte, bool) {
	if pageHdrSize+len(cells)*intCellSize > PageSize {
		return nil, false
	}
	data := make([]byte, PageSize)
	data[0] = pageInterior
	data[1], data[2] = byte(len(cells)>>8), byte(len(cells))
	putU32(data[3:], right)
	off := pageHdrSize
	for _, c := range cells {
		putU64(data[off:], uint64(c.key))
		putU32(data[off+8:], c.child)
		off += intCellSize
	}
	return data, true
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v>>32))
	putU32(b[4:], uint32(v))
}

// BTree is a rowid-keyed B+tree rooted at a fixed page (the root page
// number never changes; root splits copy downward).
type BTree struct {
	pager *Pager
	root  uint32
}

// NewBTree opens the tree rooted at page root.
func NewBTree(pager *Pager, root uint32) *BTree {
	return &BTree{pager: pager, root: root}
}

// CreateBTree allocates an empty tree and returns it.
func CreateBTree(pager *Pager) (*BTree, error) {
	pgno, err := pager.Allocate()
	if err != nil {
		return nil, err
	}
	data := make([]byte, PageSize)
	initLeaf(data)
	if err := pager.Put(pgno, data); err != nil {
		return nil, err
	}
	return &BTree{pager: pager, root: pgno}, nil
}

// Root returns the root page number.
func (t *BTree) Root() uint32 { return t.root }

// Get returns the payload stored under rowid. It searches the pages in
// place and copies out only the payload it returns.
func (t *BTree) Get(rowid int64) ([]byte, bool, error) {
	pgno := t.root
	for {
		data, err := t.pager.Get(pgno)
		if err != nil {
			return nil, false, err
		}
		switch data[0] {
		case pageLeaf:
			payload, found, err := leafSearch(data, rowid)
			if err != nil || !found {
				return nil, false, err
			}
			return bytes.Clone(payload), true, nil
		case pageInterior:
			if pgno, _, err = interiorChild(data, rowid); err != nil {
				return nil, false, err
			}
		default:
			return nil, false, fmt.Errorf("sqldb: corrupt page %d", pgno)
		}
	}
}

// Insert stores payload under rowid, replacing any previous payload.
func (t *BTree) Insert(rowid int64, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("sqldb: row of %d bytes exceeds the %d-byte limit", len(payload), MaxPayload)
	}
	split, sep, newRight, err := t.insertInto(t.root, rowid, payload)
	if err != nil {
		return err
	}
	if !split {
		return nil
	}
	// Root split with a fixed root page: move the (already split) left
	// half into a fresh page and turn the root into an interior node.
	leftPg, err := t.pager.Allocate()
	if err != nil {
		return err
	}
	rootData, err := t.pager.Get(t.root)
	if err != nil {
		return err
	}
	leftCopy := make([]byte, PageSize)
	copy(leftCopy, rootData)
	if err := t.pager.Put(leftPg, leftCopy); err != nil {
		return err
	}
	newRoot, _ := encodeInterior([]intCell{{key: sep, child: leftPg}}, newRight)
	return t.pager.Put(t.root, newRoot)
}

// insertInto descends; on split it returns the separator key (max key of
// the left node) and the new right sibling.
func (t *BTree) insertInto(pgno uint32, rowid int64, payload []byte) (bool, int64, uint32, error) {
	data, err := t.pager.Get(pgno)
	if err != nil {
		return false, 0, 0, err
	}
	switch data[0] {
	case pageLeaf:
		cells, next, err := decodeLeaf(data)
		if err != nil {
			return false, 0, 0, err
		}
		i := sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= rowid })
		if i < len(cells) && cells[i].rowid == rowid {
			cells[i].payload = payload
		} else {
			cells = append(cells, leafCell{})
			copy(cells[i+1:], cells[i:])
			cells[i] = leafCell{rowid: rowid, payload: payload}
		}
		if enc, ok := encodeLeaf(cells, next); ok {
			return false, 0, 0, t.pager.Put(pgno, enc)
		}
		// Split: left keeps the lower half (by bytes).
		mid := splitPointLeaf(cells)
		rightPg, err := t.pager.Allocate()
		if err != nil {
			return false, 0, 0, err
		}
		leftEnc, ok := encodeLeaf(cells[:mid], rightPg)
		if !ok {
			return false, 0, 0, fmt.Errorf("sqldb: leaf split left overflow")
		}
		rightEnc, ok := encodeLeaf(cells[mid:], next)
		if !ok {
			return false, 0, 0, fmt.Errorf("sqldb: leaf split right overflow")
		}
		if err := t.pager.Put(pgno, leftEnc); err != nil {
			return false, 0, 0, err
		}
		if err := t.pager.Put(rightPg, rightEnc); err != nil {
			return false, 0, 0, err
		}
		return true, cells[mid-1].rowid, rightPg, nil
	case pageInterior:
		childPg, ci, err := interiorChild(data, rowid)
		if err != nil {
			return false, 0, 0, err
		}
		split, sep, newRight, err := t.insertInto(childPg, rowid, payload)
		if err != nil || !split {
			return false, 0, 0, err
		}
		// Only a child split rewrites this node. data still holds its
		// content: Put never writes into a slice Get returned.
		cells, right, err := decodeInterior(data)
		if err != nil {
			return false, 0, 0, err
		}
		// The child split into (childPg: keys <= sep) and newRight.
		if ci < len(cells) {
			cells = append(cells, intCell{})
			copy(cells[ci+1:], cells[ci:])
			cells[ci] = intCell{key: sep, child: childPg}
			cells[ci+1].child = newRight
		} else {
			cells = append(cells, intCell{key: sep, child: childPg})
			right = newRight
		}
		if enc, ok := encodeInterior(cells, right); ok {
			return false, 0, 0, t.pager.Put(pgno, enc)
		}
		// Split the interior node: promote the middle key.
		mid := len(cells) / 2
		promote := cells[mid].key
		leftCells := append([]intCell(nil), cells[:mid]...)
		leftRight := cells[mid].child
		rightCells := append([]intCell(nil), cells[mid+1:]...)
		rightPg, err := t.pager.Allocate()
		if err != nil {
			return false, 0, 0, err
		}
		leftEnc, ok := encodeInterior(leftCells, leftRight)
		if !ok {
			return false, 0, 0, fmt.Errorf("sqldb: interior split left overflow")
		}
		rightEnc, ok := encodeInterior(rightCells, right)
		if !ok {
			return false, 0, 0, fmt.Errorf("sqldb: interior split right overflow")
		}
		if err := t.pager.Put(pgno, leftEnc); err != nil {
			return false, 0, 0, err
		}
		if err := t.pager.Put(rightPg, rightEnc); err != nil {
			return false, 0, 0, err
		}
		return true, promote, rightPg, nil
	default:
		return false, 0, 0, fmt.Errorf("sqldb: corrupt page %d", pgno)
	}
}

// splitPointLeaf picks the split index balancing bytes.
func splitPointLeaf(cells []leafCell) int {
	total := leafSize(cells)
	acc := pageHdrSize
	for i, c := range cells {
		acc += leafCellOvh + len(c.payload)
		if acc >= total/2 && i+1 < len(cells) {
			return i + 1
		}
	}
	return len(cells) - 1
}

// Delete removes rowid; it reports whether the row existed. Underflowing
// pages are left in place (lazy deletion).
func (t *BTree) Delete(rowid int64) (bool, error) {
	pgno := t.root
	for {
		data, err := t.pager.Get(pgno)
		if err != nil {
			return false, err
		}
		switch data[0] {
		case pageLeaf:
			cells, next, err := decodeLeaf(data)
			if err != nil {
				return false, err
			}
			i := sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= rowid })
			if i >= len(cells) || cells[i].rowid != rowid {
				return false, nil
			}
			cells = append(cells[:i], cells[i+1:]...)
			enc, _ := encodeLeaf(cells, next)
			return true, t.pager.Put(pgno, enc)
		case pageInterior:
			if pgno, _, err = interiorChild(data, rowid); err != nil {
				return false, err
			}
		default:
			return false, fmt.Errorf("sqldb: corrupt page %d", pgno)
		}
	}
}

// Cursor iterates leaf cells in rowid order.
type Cursor struct {
	tree  *BTree
	cells []leafCell
	next  uint32
	idx   int
	err   error
	valid bool
}

// First positions a cursor at the smallest rowid.
func (t *BTree) First() *Cursor {
	return t.SeekGE(-1 << 62)
}

// SeekGE positions a cursor at the smallest rowid >= target.
func (t *BTree) SeekGE(target int64) *Cursor {
	c := &Cursor{tree: t}
	pgno := t.root
	for {
		data, err := t.pager.Get(pgno)
		if err != nil {
			c.err = err
			return c
		}
		switch data[0] {
		case pageLeaf:
			cells, next, err := decodeLeaf(data)
			if err != nil {
				c.err = err
				return c
			}
			c.cells, c.next = cells, next
			c.idx = sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= target })
			c.valid = true
			c.skipEmpty()
			return c
		case pageInterior:
			if pgno, _, err = interiorChild(data, target); err != nil {
				c.err = err
				return c
			}
		default:
			c.err = fmt.Errorf("sqldb: corrupt page %d", pgno)
			return c
		}
	}
}

// skipEmpty advances across exhausted leaves.
func (c *Cursor) skipEmpty() {
	for c.valid && c.idx >= len(c.cells) {
		if c.next == 0 {
			c.valid = false
			return
		}
		data, err := c.tree.pager.Get(c.next)
		if err != nil {
			c.err = err
			c.valid = false
			return
		}
		cells, next, err := decodeLeaf(data)
		if err != nil {
			c.err = err
			c.valid = false
			return
		}
		c.cells, c.next, c.idx = cells, next, 0
	}
}

// Valid reports whether the cursor is on a row.
func (c *Cursor) Valid() bool { return c.valid && c.err == nil }

// Err returns the cursor's error, if any.
func (c *Cursor) Err() error { return c.err }

// RowID returns the current row's id.
func (c *Cursor) RowID() int64 { return c.cells[c.idx].rowid }

// Payload returns the current row's payload.
func (c *Cursor) Payload() []byte { return c.cells[c.idx].payload }

// Next advances the cursor.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.idx++
	c.skipEmpty()
}
