package sqldb

import (
	"fmt"
	"strings"
)

// ColDef describes one column.
type ColDef struct {
	Name string
	Type Type
}

// TableMeta is one catalog entry: the table's schema, its B+tree root and
// the next rowid to assign.
type TableMeta struct {
	catRowID  int64
	Name      string
	Root      uint32
	NextRowID int64
	Cols      []ColDef
}

// ColIndex returns the position of the named column, or -1.
func (t *TableMeta) ColIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// encodeMeta serializes a catalog entry as a row of values.
func encodeMeta(t *TableMeta) []byte {
	vals := []Value{
		Text(t.Name),
		Int(int64(t.Root)),
		Int(t.NextRowID),
		Int(int64(len(t.Cols))),
	}
	for _, c := range t.Cols {
		vals = append(vals, Text(c.Name), Int(int64(c.Type)))
	}
	return EncodeRow(vals)
}

// decodeMeta parses a catalog entry.
func decodeMeta(rowid int64, payload []byte) (*TableMeta, error) {
	vals, err := DecodeRow(payload)
	if err != nil {
		return nil, err
	}
	if len(vals) < 4 {
		return nil, fmt.Errorf("sqldb: corrupt catalog row")
	}
	t := &TableMeta{
		catRowID:  rowid,
		Name:      vals[0].AsText(),
		Root:      uint32(vals[1].AsInt()),
		NextRowID: vals[2].AsInt(),
	}
	ncols := int(vals[3].AsInt())
	if len(vals) != 4+2*ncols {
		return nil, fmt.Errorf("sqldb: corrupt catalog row arity")
	}
	for i := 0; i < ncols; i++ {
		t.Cols = append(t.Cols, ColDef{
			Name: vals[4+2*i].AsText(),
			Type: Type(vals[5+2*i].AsInt()),
		})
	}
	return t, nil
}

// catalog gives access to the table directory stored in the catalog
// B+tree (itself rooted at a fixed page recorded in the header).
type catalog struct {
	tree *BTree
}

func openCatalog(p *Pager) (*catalog, error) {
	root, err := p.CatalogRoot()
	if err != nil {
		return nil, err
	}
	return &catalog{tree: NewBTree(p, root)}, nil
}

// lookup returns the named table's metadata, or nil. Like every catalog
// walk it reports a cursor error (a read error, a corrupt leaf) as an
// error, never as the end of the table list.
func (c *catalog) lookup(name string) (*TableMeta, error) {
	cur := c.tree.First()
	for ; cur.Valid(); cur.Next() {
		t, err := decodeMeta(cur.RowID(), cur.Payload())
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(t.Name, name) {
			return t, nil
		}
	}
	return nil, cur.Err()
}

// tables lists every table.
func (c *catalog) tables() ([]*TableMeta, error) {
	var out []*TableMeta
	cur := c.tree.First()
	for ; cur.Valid(); cur.Next() {
		t, err := decodeMeta(cur.RowID(), cur.Payload())
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// create registers a new table (the caller checked for duplicates).
func (c *catalog) create(t *TableMeta) error {
	maxID := int64(0)
	cur := c.tree.First()
	for ; cur.Valid(); cur.Next() {
		if cur.RowID() > maxID {
			maxID = cur.RowID()
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	t.catRowID = maxID + 1
	return c.tree.Insert(t.catRowID, encodeMeta(t))
}

// update rewrites a table's catalog entry (root or next rowid changed).
func (c *catalog) update(t *TableMeta) error {
	return c.tree.Insert(t.catRowID, encodeMeta(t))
}

// drop removes a table's catalog entry.
func (c *catalog) drop(t *TableMeta) error {
	_, err := c.tree.Delete(t.catRowID)
	return err
}
