package sqldb

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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

// decodeLeaf returns a leaf page's cells. Their payloads alias data,
// which the pager never writes in place (see Pager.Get): a caller must
// not write into them either.
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
		cells = append(cells, leafCell{rowid: rowid, payload: data[off : off+plen : off+plen]})
		off += plen
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
		putLeafCell(data[off:], c.rowid, c.payload)
		off += leafCellOvh + len(c.payload)
	}
	return data, true
}

func putLeafCell(b []byte, rowid int64, payload []byte) {
	putU64(b, uint64(rowid))
	b[8], b[9] = byte(len(payload)>>8), byte(len(payload))
	copy(b[leafCellOvh:], payload)
}

// leafPos is where a rowid falls in a leaf page.
type leafPos struct {
	n     int  // the page's cell count
	idx   int  // the first cell whose rowid is >= the target; n if none
	off   int  // that cell's offset; end if none
	plen  int  // that cell's payload length
	found bool // that cell's rowid equals the target
	end   int  // the offset just past the last cell
}

// locateLeaf finds rowid's place in a leaf page in place. It walks every
// cell header, validating the page exactly as decodeLeaf does, so a page
// it accepts decodes and one it rejects does not. On a page whose rowids
// ascend (every page the tree writes) it picks the cell decodeLeaf's
// binary search would.
func locateLeaf(data []byte, rowid int64) (leafPos, error) {
	if data[0] != pageLeaf {
		return leafPos{}, fmt.Errorf("sqldb: page is not a leaf (type %d)", data[0])
	}
	n := int(data[1])<<8 | int(data[2])
	pos := leafPos{n: n, idx: n}
	off := pageHdrSize
	for i := 0; i < n; i++ {
		if off+leafCellOvh > len(data) {
			return leafPos{}, fmt.Errorf("sqldb: corrupt leaf page")
		}
		id := int64(getU64(data[off:]))
		plen := int(data[off+8])<<8 | int(data[off+9])
		if off+leafCellOvh+plen > len(data) {
			return leafPos{}, fmt.Errorf("sqldb: corrupt leaf cell")
		}
		if pos.idx == n && id >= rowid {
			pos.idx, pos.off, pos.plen, pos.found = i, off, plen, id == rowid
		}
		off += leafCellOvh + plen
	}
	pos.end = off
	if pos.idx == n {
		pos.off = off
	}
	return pos, nil
}

// leafSearch looks rowid up in a leaf page in place and returns the
// matching cell's payload as a sub-slice of data: the caller copies what
// it keeps.
func leafSearch(data []byte, rowid int64) (payload []byte, found bool, err error) {
	pos, err := locateLeaf(data, rowid)
	if err != nil || !pos.found {
		return nil, false, err
	}
	start := pos.off + leafCellOvh
	return data[start : start+pos.plen : start+pos.plen], true, nil
}

// leafInsert returns a fresh leaf page holding data's cells with payload
// stored under rowid: spliced in at its place, or in place of that
// rowid's cell. ok is false when the result would not fit a page.
func leafInsert(data []byte, rowid int64, payload []byte) (page []byte, ok bool, err error) {
	pos, err := locateLeaf(data, rowid)
	if err != nil {
		return nil, false, err
	}
	n, cut := pos.n+1, pos.off
	if pos.found {
		n, cut = pos.n, pos.off+leafCellOvh+pos.plen
	}
	cell := leafCellOvh + len(payload)
	if pos.end-(cut-pos.off)+cell > PageSize {
		return nil, false, nil
	}
	page = spliceLeaf(data, pos.end, pos.off, cut, cell, n)
	putLeafCell(page[pos.off:], rowid, payload)
	return page, true, nil
}

// leafDelete returns a fresh leaf page holding data's cells without
// rowid's, or found false when data has no such cell.
func leafDelete(data []byte, rowid int64) (page []byte, found bool, err error) {
	pos, err := locateLeaf(data, rowid)
	if err != nil || !pos.found {
		return nil, false, err
	}
	return spliceLeaf(data, pos.end, pos.off, pos.off+leafCellOvh+pos.plen, 0, pos.n-1), true, nil
}

// spliceLeaf copies the leaf page data, whose cells end at end, into a
// fresh page in one pass: the bytes [from, to) are replaced by gap zero
// bytes for the caller to fill, and the cell count is set to n. Bytes
// past the last cell stay zero, so the page is byte-identical to what
// encodeLeaf makes of the same cells.
func spliceLeaf(data []byte, end, from, to, gap, n int) []byte {
	page := make([]byte, PageSize)
	copy(page, data[:from])
	copy(page[from+gap:], data[to:end])
	page[1], page[2] = byte(n>>8), byte(n)
	return page
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
	ups, err := t.insertInto(t.root, rowid, payload)
	if err != nil || ups == nil {
		return err
	}
	// Root split with a fixed root page: move the (already split) left
	// part into a fresh page and turn the root into an interior node.
	leftPg, err := t.pager.Allocate()
	if err != nil {
		return err
	}
	rootData, err := t.pager.Get(t.root)
	if err != nil {
		return err
	}
	if err := t.pager.Put(leftPg, bytes.Clone(rootData)); err != nil {
		return err
	}
	cells, right := addSeparators(nil, 0, 0, leftPg, ups)
	newRoot, _ := encodeInterior(cells, right)
	return t.pager.Put(t.root, newRoot)
}

// insertRun stores each row's payload under its rowid, leaving every page
// byte-identical to Inserting the rows one at a time in order. A row past
// the last cell of its leaf is appended there together with the rows
// after it that ascend, stay in that leaf's key range and still fit it:
// one page build for all of them. Any other row, and the first that does
// not fit, goes through Insert, and the run carries on from there.
func (t *BTree) insertRun(rows []leafCell) error {
	if len(rows) == 1 {
		return t.Insert(rows[0].rowid, rows[0].payload)
	}
	for len(rows) > 0 {
		n, err := t.appendRun(rows)
		if err != nil {
			return err
		}
		if n == 0 {
			if err := t.Insert(rows[0].rowid, rows[0].payload); err != nil {
				return err
			}
			n = 1
		}
		rows = rows[n:]
	}
	return nil
}

// appendRun descends to the leaf covering rows[0] once, carrying the
// upper bound of the key range the path leads to, and appends to it as
// many leading rows as it can in one page build. It returns how many it
// stored: 0 when rows[0] lands before one of the leaf's cells or does
// not fit.
func (t *BTree) appendRun(rows []leafCell) (int, error) {
	pgno, hi := t.root, int64(math.MaxInt64)
	for {
		data, err := t.pager.Get(pgno)
		if err != nil {
			return 0, err
		}
		switch data[0] {
		case pageLeaf:
			pos, err := locateLeaf(data, rows[0].rowid)
			if err != nil || pos.idx < pos.n {
				return 0, err
			}
			end, k := pos.end, 0
			for ; k < len(rows); k++ {
				r := rows[k]
				if r.rowid > hi || (k > 0 && r.rowid <= rows[k-1].rowid) || end+leafCellOvh+len(r.payload) > PageSize {
					break
				}
				end += leafCellOvh + len(r.payload)
			}
			if k == 0 {
				return 0, nil
			}
			page := spliceLeaf(data, pos.end, pos.end, pos.end, end-pos.end, pos.n+k)
			off := pos.end
			for _, r := range rows[:k] {
				putLeafCell(page[off:], r.rowid, r.payload)
				off += leafCellOvh + len(r.payload)
			}
			return k, t.pager.Put(pgno, page)
		case pageInterior:
			child, ci, err := interiorChild(data, rows[0].rowid)
			if err != nil {
				return 0, err
			}
			if ci < int(data[1])<<8|int(data[2]) {
				hi = min(hi, int64(getU64(data[pageHdrSize+ci*intCellSize:])))
			}
			pgno = child
		default:
			return 0, fmt.Errorf("sqldb: corrupt page %d", pgno)
		}
	}
}

// insertInto descends. When the node at pgno splits it returns one cell
// per new right sibling, in key order: the sibling's page, and the
// largest key of the node just left of it (the separator to promote).
func (t *BTree) insertInto(pgno uint32, rowid int64, payload []byte) ([]intCell, error) {
	data, err := t.pager.Get(pgno)
	if err != nil {
		return nil, err
	}
	switch data[0] {
	case pageLeaf:
		page, ok, err := leafInsert(data, rowid, payload)
		if err != nil {
			return nil, err
		}
		if ok {
			return nil, t.pager.Put(pgno, page)
		}
		return t.splitLeaf(pgno, data, rowid, payload)
	case pageInterior:
		childPg, ci, err := interiorChild(data, rowid)
		if err != nil {
			return nil, err
		}
		ups, err := t.insertInto(childPg, rowid, payload)
		if err != nil || ups == nil {
			return nil, err
		}
		// Only a child split rewrites this node. data still holds its
		// content: a slice Get returned is never written.
		cells, right, err := decodeInterior(data)
		if err != nil {
			return nil, err
		}
		cells, right = addSeparators(cells, right, ci, childPg, ups)
		if enc, ok := encodeInterior(cells, right); ok {
			return nil, t.pager.Put(pgno, enc)
		}
		// Split the interior node: promote the middle key.
		mid := len(cells) / 2
		promote := cells[mid].key
		leftCells := append([]intCell(nil), cells[:mid]...)
		leftRight := cells[mid].child
		rightCells := append([]intCell(nil), cells[mid+1:]...)
		rightPg, err := t.pager.Allocate()
		if err != nil {
			return nil, err
		}
		leftEnc, ok := encodeInterior(leftCells, leftRight)
		if !ok {
			return nil, fmt.Errorf("sqldb: interior split left overflow")
		}
		rightEnc, ok := encodeInterior(rightCells, right)
		if !ok {
			return nil, fmt.Errorf("sqldb: interior split right overflow")
		}
		if err := t.pager.Put(pgno, leftEnc); err != nil {
			return nil, err
		}
		if err := t.pager.Put(rightPg, rightEnc); err != nil {
			return nil, err
		}
		return []intCell{{key: promote, child: rightPg}}, nil
	default:
		return nil, fmt.Errorf("sqldb: corrupt page %d", pgno)
	}
}

// addSeparators records in an interior node's cells that its child at
// index ci (len(cells): the rightmost child) split: child keeps the keys
// up to ups[0].key, each ups[k].child those after that up to
// ups[k+1].key, and the last sibling the rest of the child's old range.
func addSeparators(cells []intCell, right uint32, ci int, child uint32, ups []intCell) ([]intCell, uint32) {
	for k := range ups {
		ups[k].child, child = child, ups[k].child
	}
	if ci < len(cells) {
		cells = slices.Insert(cells, ci, ups...)
		cells[ci+len(ups)].child = child
		return cells, right
	}
	return append(cells, ups...), child
}

// splitLeaf stores payload under rowid in the leaf at pgno, which it no
// longer fits, by spreading the leaf's cells over pgno and new right
// siblings. It returns insertInto's separators.
func (t *BTree) splitLeaf(pgno uint32, data []byte, rowid int64, payload []byte) ([]intCell, error) {
	cells, next, err := decodeLeaf(data)
	if err != nil {
		return nil, err
	}
	i := sort.Search(len(cells), func(i int) bool { return cells[i].rowid >= rowid })
	if i < len(cells) && cells[i].rowid == rowid {
		cells[i].payload = payload
	} else {
		cells = slices.Insert(cells, i, leafCell{rowid: rowid, payload: payload})
	}
	groups := splitLeafCells(cells)
	pages := make([]uint32, len(groups))
	pages[0] = pgno
	for k := 1; k < len(groups); k++ {
		if pages[k], err = t.pager.Allocate(); err != nil {
			return nil, err
		}
	}
	ups := make([]intCell, 0, len(groups)-1)
	for k, g := range groups {
		link := next
		if k+1 < len(groups) {
			link = pages[k+1]
			ups = append(ups, intCell{key: g[len(g)-1].rowid, child: link})
		}
		enc, ok := encodeLeaf(g, link)
		if !ok {
			return nil, fmt.Errorf("sqldb: leaf split overflow")
		}
		if err := t.pager.Put(pages[k], enc); err != nil {
			return nil, err
		}
	}
	return ups, nil
}

// splitLeafCells divides cells that overflow one leaf into pages: two
// balanced by bytes, or, when that leaves either over a page (a row
// grown between two big neighbours), as many as filling each from the
// left takes. That is three at most: the cells before the grown row and
// those after it shared one page before, and any row fits a page alone.
func splitLeafCells(cells []leafCell) [][]leafCell {
	mid := splitPointLeaf(cells)
	if leafSize(cells[:mid]) <= PageSize && leafSize(cells[mid:]) <= PageSize {
		return [][]leafCell{cells[:mid], cells[mid:]}
	}
	var groups [][]leafCell
	for len(cells) > 0 {
		k, size := 0, pageHdrSize
		for k < len(cells) && size+leafCellOvh+len(cells[k].payload) <= PageSize {
			size += leafCellOvh + len(cells[k].payload)
			k++
		}
		groups = append(groups, cells[:k])
		cells = cells[k:]
	}
	return groups
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
			page, found, err := leafDelete(data, rowid)
			if err != nil || !found {
				return false, err
			}
			return true, t.pager.Put(pgno, page)
		case pageInterior:
			if pgno, _, err = interiorChild(data, rowid); err != nil {
				return false, err
			}
		default:
			return false, fmt.Errorf("sqldb: corrupt page %d", pgno)
		}
	}
}

// Cursor iterates leaf cells in rowid order. It reads each leaf in place:
// the whole page is validated when the cursor loads it, so a corrupt leaf
// fails the scan before any of its rows is returned.
type Cursor struct {
	tree  *BTree
	page  []byte // the current leaf, as the pager returned it
	n     int    // its cell count
	idx   int    // the current cell's index
	off   int    // the current cell's offset in page
	next  uint32
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
			if c.load(data, target) {
				c.skipEmpty()
			}
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

// load validates the leaf page data and positions the cursor on its
// first cell with a rowid >= target.
func (c *Cursor) load(data []byte, target int64) bool {
	pos, err := locateLeaf(data, target)
	if err != nil {
		c.err, c.valid = err, false
		return false
	}
	c.page, c.n, c.idx, c.off, c.next = data, pos.n, pos.idx, pos.off, getU32(data[3:])
	c.valid = true
	return true
}

// skipEmpty advances across exhausted leaves.
func (c *Cursor) skipEmpty() {
	for c.valid && c.idx >= c.n {
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
		if !c.load(data, -1<<63) {
			return
		}
	}
}

// Valid reports whether the cursor is on a row.
func (c *Cursor) Valid() bool { return c.valid && c.err == nil }

// Err returns the cursor's error, if any.
func (c *Cursor) Err() error { return c.err }

// RowID returns the current row's id.
func (c *Cursor) RowID() int64 { return int64(getU64(c.page[c.off:])) }

// Payload returns the current row's payload. It aliases the page, which
// the pager never writes in place: the caller must not write into it.
func (c *Cursor) Payload() []byte {
	start := c.off + leafCellOvh
	end := start + (int(c.page[c.off+8])<<8 | int(c.page[c.off+9]))
	return c.page[start:end:end]
}

// Next advances the cursor.
func (c *Cursor) Next() {
	if !c.Valid() {
		return
	}
	c.off += leafCellOvh + (int(c.page[c.off+8])<<8 | int(c.page[c.off+9]))
	c.idx++
	c.skipEmpty()
}
