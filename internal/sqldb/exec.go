package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// Result reports the outcome of a mutating statement.
type Result struct {
	RowsAffected int64
	LastInsertID int64
}

// Rows is a fully materialized result set.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// evalEnv supplies column values during expression evaluation.
type evalEnv struct {
	db    *DB
	table *TableMeta
	row   []Value
	rowid int64
	args  []Value
}

// eval evaluates an expression.
func (env *evalEnv) eval(e Expr) (Value, error) {
	switch x := e.(type) {
	case *LiteralExpr:
		return x.Val, nil
	case *ParamExpr:
		if x.Index >= len(env.args) {
			return Value{}, fmt.Errorf("sqldb: missing argument %d", x.Index+1)
		}
		return env.args[x.Index], nil
	case *ColumnExpr:
		if env.table == nil || env.row == nil {
			return Value{}, fmt.Errorf("sqldb: no row context for column %q", x.Name)
		}
		if strings.EqualFold(x.Name, "rowid") {
			return Int(env.rowid), nil
		}
		idx := env.table.ColIndex(x.Name)
		if idx < 0 {
			return Value{}, fmt.Errorf("sqldb: no column %q in table %q", x.Name, env.table.Name)
		}
		if idx >= len(env.row) {
			return Null(), nil
		}
		return env.row[idx], nil
	case *UnaryExpr:
		v, err := env.eval(x.E)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			if v.Truthy() {
				return Int(0), nil
			}
			return Int(1), nil
		case "-":
			switch v.T {
			case TInt:
				return Int(-v.I), nil
			case TReal:
				return Real(-v.F), nil
			case TNull:
				return Null(), nil
			default:
				return Real(-v.AsReal()), nil
			}
		}
		return Value{}, fmt.Errorf("sqldb: unknown unary %q", x.Op)
	case *BinaryExpr:
		return env.evalBinary(x)
	case *CallExpr:
		return env.evalCall(x)
	default:
		return Value{}, fmt.Errorf("sqldb: unknown expression %T", e)
	}
}

func (env *evalEnv) evalBinary(x *BinaryExpr) (Value, error) {
	l, err := env.eval(x.L)
	if err != nil {
		return Value{}, err
	}
	// AND/OR short-circuit.
	switch x.Op {
	case "AND":
		if !l.IsNull() && !l.Truthy() {
			return Int(0), nil
		}
		r, err := env.eval(x.R)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return boolVal(l.Truthy() && r.Truthy()), nil
	case "OR":
		if !l.IsNull() && l.Truthy() {
			return Int(1), nil
		}
		r, err := env.eval(x.R)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return boolVal(l.Truthy() || r.Truthy()), nil
	}
	r, err := env.eval(x.R)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := Compare(l, r)
		switch x.Op {
		case "=":
			return boolVal(c == 0), nil
		case "!=":
			return boolVal(c != 0), nil
		case "<":
			return boolVal(c < 0), nil
		case "<=":
			return boolVal(c <= 0), nil
		case ">":
			return boolVal(c > 0), nil
		default:
			return boolVal(c >= 0), nil
		}
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		// TEXT + TEXT concatenates; everything else is numeric.
		if x.Op == "+" && l.T == TText && r.T == TText {
			return Text(l.S + r.S), nil
		}
		if l.T == TInt && r.T == TInt {
			switch x.Op {
			case "+":
				return Int(l.I + r.I), nil
			case "-":
				return Int(l.I - r.I), nil
			case "*":
				return Int(l.I * r.I), nil
			default:
				if r.I == 0 {
					return Null(), nil
				}
				return Int(l.I / r.I), nil
			}
		}
		lf, rf := l.AsReal(), r.AsReal()
		switch x.Op {
		case "+":
			return Real(lf + rf), nil
		case "-":
			return Real(lf - rf), nil
		case "*":
			return Real(lf * rf), nil
		default:
			if rf == 0 {
				return Null(), nil
			}
			return Real(lf / rf), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %q", x.Op)
}

func (env *evalEnv) evalCall(x *CallExpr) (Value, error) {
	switch x.Name {
	case "now":
		// Routed through the VFS so a replicated deployment uses the
		// agreed timestamp (§3.2, Fig. 3).
		return Int(env.db.vfs.Now().UnixNano()), nil
	case "random":
		var b [8]byte
		if err := env.db.vfs.Rand(b[:]); err != nil {
			return Value{}, err
		}
		v := int64(getU64(b[:]))
		return Int(v), nil
	case "length":
		if len(x.Args) != 1 {
			return Value{}, fmt.Errorf("sqldb: length() takes one argument")
		}
		v, err := env.eval(x.Args[0])
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Null(), nil
		}
		return Int(int64(len(v.AsText()))), nil
	case "count", "sum", "min", "max", "avg":
		return Value{}, fmt.Errorf("sqldb: aggregate %s() outside an aggregate query", x.Name)
	default:
		return Value{}, fmt.Errorf("sqldb: unknown function %q", x.Name)
	}
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// hasAggregate reports whether the expression contains an aggregate call.
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *CallExpr:
		switch x.Name {
		case "count", "sum", "min", "max", "avg":
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *UnaryExpr:
		return hasAggregate(x.E)
	case *BinaryExpr:
		return hasAggregate(x.L) || hasAggregate(x.R)
	}
	return false
}

// scanRow is one matched row during statement execution.
type scanRow struct {
	rowid int64
	vals  []Value
}

// scanTable runs the WHERE filter over a table and returns matches. A
// WHERE of the form `rowid = <row-independent expression>` is served by a
// B+tree point lookup instead of a full scan.
func (d *DB) scanTable(meta *TableMeta, where Expr, args []Value) ([]scanRow, error) {
	tree := NewBTree(d.pager, meta.Root)
	env := &evalEnv{db: d, table: meta, args: args}

	if target, ok, err := rowidPointQuery(where, env); err != nil {
		return nil, err
	} else if ok {
		payload, found, err := tree.Get(target)
		if err != nil || !found {
			return nil, err
		}
		vals, err := DecodeRow(payload)
		if err != nil {
			return nil, err
		}
		return []scanRow{{rowid: target, vals: vals}}, nil
	}

	var out []scanRow
	cur := tree.First()
	for ; cur.Valid(); cur.Next() {
		vals, err := DecodeRow(cur.Payload())
		if err != nil {
			return nil, err
		}
		if where != nil {
			env.row, env.rowid = vals, cur.RowID()
			v, err := env.eval(where)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		out = append(out, scanRow{rowid: cur.RowID(), vals: vals})
	}
	// A cursor stops on a read error or a corrupt leaf as if the table
	// ended there: only its Err tells a truncated scan from a full one.
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// rowidPointQuery recognizes `rowid = expr` (either operand order) where
// expr needs no row context, and evaluates the target rowid.
func rowidPointQuery(where Expr, env *evalEnv) (int64, bool, error) {
	be, ok := where.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return 0, false, nil
	}
	var other Expr
	if isRowidRef(be.L) {
		other = be.R
	} else if isRowidRef(be.R) {
		other = be.L
	} else {
		return 0, false, nil
	}
	if dependsOnRow(other) {
		return 0, false, nil
	}
	v, err := env.eval(other)
	if err != nil {
		return 0, false, err
	}
	if v.IsNull() || (v.T != TInt && v.T != TReal) {
		return 0, false, nil // NULL never matches; non-numeric falls back
	}
	if v.T == TReal && v.F != float64(int64(v.F)) {
		return 0, false, nil // fractional rowid matches nothing via scan too
	}
	return v.AsInt(), true, nil
}

func isRowidRef(e Expr) bool {
	col, ok := e.(*ColumnExpr)
	return ok && strings.EqualFold(col.Name, "rowid")
}

// dependsOnRow reports whether evaluating e needs a row context.
func dependsOnRow(e Expr) bool {
	switch x := e.(type) {
	case *ColumnExpr:
		return true
	case *UnaryExpr:
		return dependsOnRow(x.E)
	case *BinaryExpr:
		return dependsOnRow(x.L) || dependsOnRow(x.R)
	case *CallExpr:
		for _, a := range x.Args {
			if dependsOnRow(a) {
				return true
			}
		}
	}
	return false
}

func (d *DB) execCreate(st *CreateTableStmt) (Result, error) {
	cat, err := openCatalog(d.pager)
	if err != nil {
		return Result{}, err
	}
	if existing, err := cat.lookup(st.Name); err != nil {
		return Result{}, err
	} else if existing != nil {
		if st.IfNotExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("sqldb: table %q already exists", st.Name)
	}
	seen := make(map[string]bool, len(st.Cols))
	for _, c := range st.Cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return Result{}, fmt.Errorf("sqldb: duplicate column %q", c.Name)
		}
		seen[lc] = true
	}
	tree, err := CreateBTree(d.pager)
	if err != nil {
		return Result{}, err
	}
	meta := &TableMeta{Name: st.Name, Root: tree.Root(), NextRowID: 1, Cols: st.Cols}
	if err := cat.create(meta); err != nil {
		return Result{}, err
	}
	return Result{}, nil
}

func (d *DB) execDrop(st *DropTableStmt) (Result, error) {
	cat, err := openCatalog(d.pager)
	if err != nil {
		return Result{}, err
	}
	meta, err := cat.lookup(st.Name)
	if err != nil {
		return Result{}, err
	}
	if meta == nil {
		if st.IfExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("sqldb: no table %q", st.Name)
	}
	// Free the table's pages (walk the tree).
	if err := d.freeTree(meta.Root); err != nil {
		return Result{}, err
	}
	if err := cat.drop(meta); err != nil {
		return Result{}, err
	}
	return Result{}, nil
}

// freeTree returns a whole subtree's pages to the freelist.
func (d *DB) freeTree(pgno uint32) error {
	data, err := d.pager.Get(pgno)
	if err != nil {
		return err
	}
	if data[0] == pageInterior {
		cells, right, err := decodeInterior(data)
		if err != nil {
			return err
		}
		for _, c := range cells {
			if err := d.freeTree(c.child); err != nil {
				return err
			}
		}
		if err := d.freeTree(right); err != nil {
			return err
		}
	}
	return d.pager.Free(pgno)
}

func (d *DB) execInsert(st *InsertStmt, args []Value) (Result, error) {
	cat, err := openCatalog(d.pager)
	if err != nil {
		return Result{}, err
	}
	meta, err := cat.lookup(st.Table)
	if err != nil {
		return Result{}, err
	}
	if meta == nil {
		return Result{}, fmt.Errorf("sqldb: no table %q", st.Table)
	}
	colIdx := make([]int, 0, len(st.Cols))
	if len(st.Cols) > 0 {
		for _, c := range st.Cols {
			idx := meta.ColIndex(c)
			if idx < 0 {
				return Result{}, fmt.Errorf("sqldb: no column %q in table %q", c, st.Table)
			}
			colIdx = append(colIdx, idx)
		}
	}
	want := len(meta.Cols)
	if len(st.Cols) > 0 {
		want = len(st.Cols)
	}
	// Every row is evaluated and size-checked before the first tree write:
	// inside an explicit transaction nothing would undo the rows a failing
	// statement had already stored.
	ncols := len(meta.Cols)
	vals := make([]Value, len(st.Rows)*ncols)
	size := 0
	env := &evalEnv{db: d, args: args}
	for r, rowExprs := range st.Rows {
		if len(rowExprs) != want {
			return Result{}, fmt.Errorf("sqldb: %d values for %d columns", len(rowExprs), want)
		}
		row := vals[r*ncols : (r+1)*ncols]
		for i, e := range rowExprs {
			v, err := env.eval(e)
			if err != nil {
				return Result{}, err
			}
			if len(st.Cols) > 0 {
				row[colIdx[i]] = v
			} else {
				row[i] = v
			}
		}
		n := rowSize(row)
		if n > MaxPayload {
			return Result{}, fmt.Errorf("sqldb: row of %d bytes exceeds the %d-byte limit", n, MaxPayload)
		}
		size += n
	}
	// The rows take consecutive rowids and share one encoding buffer.
	buf := make([]byte, 0, size)
	cells := make([]leafCell, len(st.Rows))
	for r := range cells {
		start := len(buf)
		buf = appendRow(buf, vals[r*ncols:(r+1)*ncols])
		cells[r] = leafCell{rowid: meta.NextRowID, payload: buf[start:len(buf):len(buf)]}
		meta.NextRowID++
	}
	if err := NewBTree(d.pager, meta.Root).insertRun(cells); err != nil {
		return Result{}, err
	}
	res := Result{RowsAffected: int64(len(cells))}
	if len(cells) > 0 {
		res.LastInsertID = cells[len(cells)-1].rowid
	}
	if err := cat.update(meta); err != nil {
		return Result{}, err
	}
	return res, nil
}

func (d *DB) execUpdate(st *UpdateStmt, args []Value) (Result, error) {
	cat, err := openCatalog(d.pager)
	if err != nil {
		return Result{}, err
	}
	meta, err := cat.lookup(st.Table)
	if err != nil {
		return Result{}, err
	}
	if meta == nil {
		return Result{}, fmt.Errorf("sqldb: no table %q", st.Table)
	}
	matches, err := d.scanTable(meta, st.Where, args)
	if err != nil {
		return Result{}, err
	}
	setIdx := make([]int, len(st.Sets))
	for i, a := range st.Sets {
		idx := meta.ColIndex(a.Col)
		if idx < 0 {
			return Result{}, fmt.Errorf("sqldb: no column %q in table %q", a.Col, st.Table)
		}
		setIdx[i] = idx
	}
	// Every new row is evaluated, size-checked and encoded before the
	// first tree write, as in execInsert: inside an explicit transaction
	// nothing would undo the rows a failing statement had already changed.
	env := &evalEnv{db: d, table: meta, args: args}
	payloads := make([][]byte, len(matches))
	var newRow []Value
	for j, m := range matches {
		env.row, env.rowid = m.vals, m.rowid
		newRow = append(newRow[:0], m.vals...)
		for len(newRow) < len(meta.Cols) {
			newRow = append(newRow, Null())
		}
		for i, a := range st.Sets {
			v, err := env.eval(a.Expr)
			if err != nil {
				return Result{}, err
			}
			newRow[setIdx[i]] = v
		}
		n := rowSize(newRow)
		if n > MaxPayload {
			return Result{}, fmt.Errorf("sqldb: row of %d bytes exceeds the %d-byte limit", n, MaxPayload)
		}
		payloads[j] = appendRow(make([]byte, 0, n), newRow)
	}
	tree := NewBTree(d.pager, meta.Root)
	for j, m := range matches {
		if err := tree.Insert(m.rowid, payloads[j]); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: int64(len(matches))}, nil
}

func (d *DB) execDelete(st *DeleteStmt, args []Value) (Result, error) {
	cat, err := openCatalog(d.pager)
	if err != nil {
		return Result{}, err
	}
	meta, err := cat.lookup(st.Table)
	if err != nil {
		return Result{}, err
	}
	if meta == nil {
		return Result{}, fmt.Errorf("sqldb: no table %q", st.Table)
	}
	matches, err := d.scanTable(meta, st.Where, args)
	if err != nil {
		return Result{}, err
	}
	tree := NewBTree(d.pager, meta.Root)
	res := Result{}
	for _, m := range matches {
		found, err := tree.Delete(m.rowid)
		if err != nil {
			return Result{}, err
		}
		if found {
			res.RowsAffected++
		}
	}
	return res, nil
}

func (d *DB) execSelect(st *SelectStmt, args []Value) (*Rows, error) {
	// Table-less SELECT evaluates expressions once.
	if st.Table == "" {
		env := &evalEnv{db: d, args: args}
		row := make([]Value, 0, len(st.Items))
		cols := make([]string, 0, len(st.Items))
		for i, item := range st.Items {
			if item.Star {
				return nil, fmt.Errorf("sqldb: SELECT * needs a table")
			}
			v, err := env.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			cols = append(cols, itemName(item, i))
		}
		return &Rows{Columns: cols, Data: [][]Value{row}}, nil
	}
	cat, err := openCatalog(d.pager)
	if err != nil {
		return nil, err
	}
	meta, err := cat.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, fmt.Errorf("sqldb: no table %q", st.Table)
	}

	aggregate := false
	for _, item := range st.Items {
		if !item.Star && hasAggregate(item.Expr) {
			aggregate = true
		}
	}
	matches, err := d.scanTable(meta, st.Where, args)
	if err != nil {
		return nil, err
	}
	if aggregate {
		return d.aggregateSelect(st, meta, matches, args)
	}

	cols := make([]string, 0, len(st.Items))
	for i, item := range st.Items {
		if item.Star {
			for _, c := range meta.Cols {
				cols = append(cols, c.Name)
			}
		} else {
			cols = append(cols, itemName(item, i))
		}
	}
	env := &evalEnv{db: d, table: meta, args: args}
	type outRow struct {
		vals []Value
		keys []Value
	}
	rows := make([]outRow, 0, len(matches))
	for _, m := range matches {
		env.row, env.rowid = m.vals, m.rowid
		out := make([]Value, 0, len(cols))
		for _, item := range st.Items {
			if item.Star {
				for ci := range meta.Cols {
					if ci < len(m.vals) {
						out = append(out, m.vals[ci])
					} else {
						out = append(out, Null())
					}
				}
				continue
			}
			v, err := env.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		var keys []Value
		for _, ob := range st.OrderBy {
			v, err := env.eval(ob.Expr)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		rows = append(rows, outRow{vals: out, keys: keys})
	}
	if len(st.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for k, ob := range st.OrderBy {
				c := Compare(rows[i].keys[k], rows[j].keys[k])
				if c == 0 {
					continue
				}
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	data := make([][]Value, 0, len(rows))
	for _, r := range rows {
		data = append(data, r.vals)
	}
	if st.Limit != nil {
		env := &evalEnv{db: d, args: args}
		lv, err := env.eval(st.Limit)
		if err != nil {
			return nil, err
		}
		n := lv.AsInt()
		if n >= 0 && int64(len(data)) > n {
			data = data[:n]
		}
	}
	return &Rows{Columns: cols, Data: data}, nil
}

// aggregateSelect evaluates aggregate-only projections (no GROUP BY).
func (d *DB) aggregateSelect(st *SelectStmt, meta *TableMeta, matches []scanRow, args []Value) (*Rows, error) {
	cols := make([]string, 0, len(st.Items))
	out := make([]Value, 0, len(st.Items))
	env := &evalEnv{db: d, table: meta, args: args}
	for i, item := range st.Items {
		if item.Star {
			return nil, fmt.Errorf("sqldb: cannot mix * with aggregates")
		}
		call, ok := item.Expr.(*CallExpr)
		if !ok || !hasAggregate(item.Expr) {
			return nil, fmt.Errorf("sqldb: aggregate queries support only plain aggregate projections")
		}
		v, err := d.runAggregate(call, env, matches)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		cols = append(cols, itemName(item, i))
	}
	return &Rows{Columns: cols, Data: [][]Value{out}}, nil
}

func (d *DB) runAggregate(call *CallExpr, env *evalEnv, matches []scanRow) (Value, error) {
	if call.Name == "count" && call.Star {
		return Int(int64(len(matches))), nil
	}
	if len(call.Args) != 1 {
		return Value{}, fmt.Errorf("sqldb: %s() takes one argument", call.Name)
	}
	count := int64(0)
	var sum float64
	sumInt := int64(0)
	allInt := true
	var minV, maxV Value
	for _, m := range matches {
		env.row, env.rowid = m.vals, m.rowid
		v, err := env.eval(call.Args[0])
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		count++
		sum += v.AsReal()
		sumInt += v.AsInt()
		if v.T != TInt {
			allInt = false
		}
		if minV.IsNull() || Compare(v, minV) < 0 {
			minV = v
		}
		if maxV.IsNull() || Compare(v, maxV) > 0 {
			maxV = v
		}
	}
	switch call.Name {
	case "count":
		return Int(count), nil
	case "sum":
		if count == 0 {
			return Null(), nil
		}
		if allInt {
			return Int(sumInt), nil
		}
		return Real(sum), nil
	case "avg":
		if count == 0 {
			return Null(), nil
		}
		return Real(sum / float64(count)), nil
	case "min":
		return minV, nil
	case "max":
		return maxV, nil
	default:
		return Value{}, fmt.Errorf("sqldb: unknown aggregate %q", call.Name)
	}
}

func itemName(item SelectItem, i int) string {
	if item.As != "" {
		return item.As
	}
	if col, ok := item.Expr.(*ColumnExpr); ok {
		return col.Name
	}
	return fmt.Sprintf("col%d", i+1)
}
