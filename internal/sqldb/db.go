package sqldb

import (
	"fmt"
)

// DB is one open database: a pager over the VFS plus the SQL layer.
// Statements run in autocommit mode unless BEGIN opened an explicit
// transaction. A DB is not safe for concurrent use (the replicated
// deployment serializes everything through the replica's event loop,
// like SQLite's single-writer model).
type DB struct {
	vfs   VFS
	pager *Pager
}

// Open opens (creating or crash-recovering) the named database on the
// VFS. durable selects rollback-journal ACID mode (§3.2); without it
// commits neither journal nor sync — the paper's no-ACID comparison
// (§4.2).
func Open(vfs VFS, name string, durable bool) (*DB, error) {
	pager, err := OpenPager(vfs, name, durable)
	if err != nil {
		return nil, err
	}
	return &DB{vfs: vfs, pager: pager}, nil
}

// Close releases the database (rolling back any open transaction).
func (d *DB) Close() error { return d.pager.Close() }

// Pager exposes the pager for statistics (commits, syncs).
func (d *DB) Pager() *Pager { return d.pager }

// Exec parses and runs one statement that returns no rows.
func (d *DB) Exec(sql string, args ...Value) (Result, error) {
	st, nparams, err := Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return d.ExecStmt(st, nparams, args...)
}

// ExecStmt runs one parsed statement that returns no rows; nparams is
// its placeholder count, as Parse returned it.
func (d *DB) ExecStmt(st Stmt, nparams int, args ...Value) (Result, error) {
	if nparams > len(args) {
		return Result{}, fmt.Errorf("sqldb: statement needs %d arguments, got %d", nparams, len(args))
	}
	switch x := st.(type) {
	case *BeginStmt:
		return Result{}, d.pager.Begin()
	case *CommitStmt:
		return Result{}, d.pager.Commit()
	case *RollbackStmt:
		return Result{}, d.pager.Rollback()
	case *SelectStmt:
		return Result{}, fmt.Errorf("sqldb: use Query for SELECT")
	default:
		return d.execMutation(x, args)
	}
}

// execMutation wraps a write statement in an autocommit transaction when
// none is open.
func (d *DB) execMutation(st Stmt, args []Value) (Result, error) {
	auto := !d.pager.InTransaction()
	if auto {
		if err := d.pager.Begin(); err != nil {
			return Result{}, err
		}
	}
	res, err := d.runMutation(st, args)
	if err != nil {
		if auto {
			_ = d.pager.Rollback()
		}
		return Result{}, err
	}
	if auto {
		if err := d.pager.Commit(); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

func (d *DB) runMutation(st Stmt, args []Value) (Result, error) {
	switch x := st.(type) {
	case *CreateTableStmt:
		return d.execCreate(x)
	case *DropTableStmt:
		return d.execDrop(x)
	case *InsertStmt:
		return d.execInsert(x, args)
	case *UpdateStmt:
		return d.execUpdate(x, args)
	case *DeleteStmt:
		return d.execDelete(x, args)
	default:
		return Result{}, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
}

// Query parses and runs a SELECT, returning the materialized rows.
func (d *DB) Query(sql string, args ...Value) (*Rows, error) {
	st, nparams, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return d.QueryStmt(st, nparams, args...)
}

// QueryStmt runs one parsed SELECT; nparams is its placeholder count, as
// Parse returned it.
func (d *DB) QueryStmt(st Stmt, nparams int, args ...Value) (*Rows, error) {
	if nparams > len(args) {
		return nil, fmt.Errorf("sqldb: statement needs %d arguments, got %d", nparams, len(args))
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT (got %T)", st)
	}
	return d.execSelect(sel, args)
}

// Tables lists the table names (for tools and tests).
func (d *DB) Tables() ([]string, error) {
	cat, err := openCatalog(d.pager)
	if err != nil {
		return nil, err
	}
	metas, err := cat.tables()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(metas))
	for _, m := range metas {
		names = append(names, m.Name)
	}
	return names, nil
}
