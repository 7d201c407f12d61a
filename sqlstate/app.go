package sqlstate

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sqldb"
	"repro/internal/state"
	"repro/internal/wire"
)

// Options configures the SQL state application.
type Options struct {
	// DBName names the database file inside the region.
	DBName string
	// DiskDir hosts the database's disk image and its rollback
	// journal. Required when Durable, unused otherwise.
	DiskDir string
	// Durable selects full ACID: the database also has a disk image on
	// DiskDir, brought up to date — rollback journal fsynced, then image
	// fsynced — before any reply for an operation leaves this replica. A
	// replica does it once per execution span; a standalone App (a
	// region nobody drives) once per mutating statement. The region stays
	// the database's only copy in memory: the image is written from it.
	// False reproduces the paper's no-ACID comparison mode (§4.2): no
	// image, no journal, no fsync.
	Durable bool
	// Authorize, if set, authorizes dynamic-client joins (§3.1): it
	// receives the identification buffer and returns the principal.
	Authorize func(appAuth []byte) (string, bool)
	// InitSQL runs once when a fresh database initializes (schema).
	InitSQL []string
}

// App replicates an embedded SQL database behind PBFT: every ordered
// request is a SQL statement executed against the region-hosted database
// (§3.2). It implements core.Application and core.StateUser; requests are
// encoded with EncodeExec/EncodeQuery and replies decoded with
// DecodeResponse.
type App struct {
	opts Options
	vfs  *VFS
	db   *sqldb.DB
	err  error // initialization failure, reported on every Execute
	// selfFlush is set when the App keeps a disk image and nobody
	// drives the region's flush points: Execute then flushes after
	// every mutating statement.
	selfFlush bool
}

var (
	_ core.Application = (*App)(nil)
	_ core.StateUser   = (*App)(nil)
)

// NewApp builds the application; the replica attaches the state region.
func NewApp(opts Options) *App {
	if opts.DBName == "" {
		opts.DBName = "state.db"
	}
	return &App{opts: opts}
}

// AttachState implements core.StateUser: mount the VFS, register it as
// the region's flusher when it keeps a disk image, and open (or
// initialize) the database inside the region.
func (a *App) AttachState(region *state.Region) {
	diskDir := ""
	if a.opts.Durable {
		if diskDir = a.opts.DiskDir; diskDir == "" {
			a.err = errors.New("sqlstate: Durable requires DiskDir")
			return
		}
	}
	vfs, err := NewVFS(region, a.opts.DBName, diskDir)
	if err != nil {
		a.err = err
		return
	}
	a.attach(region, vfs)
}

func (a *App) attach(region *state.Region, vfs *VFS) {
	a.vfs = vfs
	if vfs.disk != nil {
		region.SetFlusher(vfs)
		a.selfFlush = !region.FlushesDriven()
	}
	exists, err := vfs.Exists(a.opts.DBName)
	if err != nil {
		a.err = err
		return
	}
	// The pager never journals here: the file is memory, and the disk
	// image has its own journal below the VFS.
	db, err := sqldb.Open(vfs, a.opts.DBName, false)
	if err != nil {
		a.err = err
		return
	}
	a.db = db
	if exists {
		return
	}
	for _, sql := range a.opts.InitSQL {
		if _, err := db.Exec(sql); err != nil {
			a.err = fmt.Errorf("init sql %q: %w", sql, err)
			return
		}
	}
	// One flush for the whole initialization, whoever drives later ones.
	a.err = vfs.Flush()
}

// DB exposes the underlying database (the paper's "standard SQLite
// handle" returned to the application, §3.2) for direct local reads; in
// a replicated deployment, mutate only through ordered requests.
func (a *App) DB() *sqldb.DB { return a.db }

// Authorize implements core.Authorizer. Without a configured hook the
// service is open: any identification buffer is accepted and used as the
// principal (still enforcing one live session per principal).
func (a *App) Authorize(appAuth []byte) (string, bool) {
	if a.opts.Authorize == nil {
		return string(appAuth), true
	}
	return a.opts.Authorize(appAuth)
}

// Execute implements core.Application: run one encoded SQL operation with
// the agreed non-determinism.
//
// App is not a core.Sharder, so the replica runs every operation
// serially, at any Options.ExecShards, on the long-lived database handle
// with the per-operation nondeterminism installed. The handle keeps no
// page past a statement: it reads the region's own pages through views
// (copies, when a database page spans several region pages) and writes
// each statement's pages back before it returns. So when the replica
// rewrites pages between operations (state transfer, tentative
// rollback), the next statement simply reads the new bytes.
func (a *App) Execute(op []byte, nd core.NonDetValues, readOnly bool) []byte {
	if a.err != nil {
		return encodeError(a.err)
	}
	kind, sql, args, err := decodeOp(op)
	if err != nil {
		return encodeError(err)
	}
	// A statement that does not parse has its parse error reported
	// where the statement would run.
	st, nparams, parseErr := sqldb.Parse(sql)
	if kind == opExec {
		switch st.(type) {
		case *sqldb.BeginStmt, *sqldb.CommitStmt, *sqldb.RollbackStmt:
			// Explicit transactions cannot span ordered operations: a
			// client BEGIN would hold the shared handle's transaction
			// open across requests, and with it pages a state transfer
			// or tentative rollback may rewrite. Each mutating
			// operation already commits atomically; reject transaction
			// control deterministically, identically at every replica.
			return encodeError(errTxnControl)
		}
	}
	a.vfs.SetNonDet(nd)
	switch kind {
	case opQuery:
		if parseErr != nil {
			return encodeError(parseErr)
		}
		rows, err := a.db.QueryStmt(st, nparams, args...)
		if err != nil {
			return encodeError(err)
		}
		return encodeRows(rows)
	case opExec:
		if readOnly {
			return encodeError(errors.New("sqlstate: mutating statement on the read-only path"))
		}
		if parseErr != nil {
			return encodeError(parseErr)
		}
		res, err := a.db.ExecStmt(st, nparams, args...)
		if err == nil && a.selfFlush {
			err = a.vfs.Flush()
		}
		if err != nil {
			return encodeError(err)
		}
		return encodeResult(res)
	default:
		return encodeError(fmt.Errorf("sqlstate: unknown op kind %d", kind))
	}
}

// errTxnControl rejects BEGIN/COMMIT/ROLLBACK on the replicated path.
var errTxnControl = errors.New("sqlstate: explicit transactions are not supported through the replicated service; every operation commits atomically")

// OpenDiskImage opens a replica's on-disk database image as an ordinary
// standalone database — the §3.2 by-product: "even if the node is to be
// removed from the replicated service, its data will be usable on its
// own, being just another database file". diskDir is the DiskDir the
// replica's App used; dbName defaults to "state.db".
func OpenDiskImage(diskDir string, dbName ...string) (*sqldb.DB, error) {
	name := "state.db"
	if len(dbName) > 0 && dbName[0] != "" {
		name = dbName[0]
	}
	vfs := &sqldb.DiskVFS{Root: diskDir}
	return sqldb.Open(vfs, name+".image", false)
}

// --- Operation and response encoding ------------------------------------

const (
	opExec  uint8 = 1
	opQuery uint8 = 2

	respError  uint8 = 0
	respResult uint8 = 1
	respRows   uint8 = 2
)

// EncodeExec encodes a mutating statement as a request body.
func EncodeExec(sql string, args ...sqldb.Value) []byte {
	return encodeOp(opExec, sql, args)
}

// EncodeQuery encodes a SELECT as a request body (safe for the read-only
// path when the statement does not mutate).
func EncodeQuery(sql string, args ...sqldb.Value) []byte {
	return encodeOp(opQuery, sql, args)
}

func encodeOp(kind uint8, sql string, args []sqldb.Value) []byte {
	w := wire.NewWriter(16 + len(sql))
	w.U8(kind)
	w.String32(sql)
	w.Bytes32(sqldb.EncodeRow(args))
	return w.Bytes()
}

func decodeOp(b []byte) (kind uint8, sql string, args []sqldb.Value, err error) {
	r := wire.NewReader(b)
	kind = r.U8()
	sql = r.String32()
	rawArgs := r.Bytes32()
	if err := r.Done(); err != nil {
		return 0, "", nil, err
	}
	if len(rawArgs) > 0 {
		args, err = sqldb.DecodeRow(rawArgs)
		if err != nil {
			return 0, "", nil, err
		}
	}
	return kind, sql, args, nil
}

func encodeError(err error) []byte {
	w := wire.NewWriter(8 + len(err.Error()))
	w.U8(respError)
	w.String32(err.Error())
	return w.Bytes()
}

func encodeResult(res sqldb.Result) []byte {
	w := wire.NewWriter(24)
	w.U8(respResult)
	w.U64(uint64(res.RowsAffected))
	w.U64(uint64(res.LastInsertID))
	return w.Bytes()
}

func encodeRows(rows *sqldb.Rows) []byte {
	w := wire.NewWriter(256)
	w.U8(respRows)
	w.U32(uint32(len(rows.Columns)))
	for _, c := range rows.Columns {
		w.String32(c)
	}
	w.U32(uint32(len(rows.Data)))
	for _, row := range rows.Data {
		w.Bytes32(sqldb.EncodeRow(row))
	}
	return w.Bytes()
}

// Response is a decoded reply from the replicated SQL service.
type Response struct {
	Result *sqldb.Result
	Rows   *sqldb.Rows
}

// DecodeResponse parses a reply body; a service-side error comes back as
// a Go error.
func DecodeResponse(b []byte) (*Response, error) {
	r := wire.NewReader(b)
	switch r.U8() {
	case respError:
		msg := r.String32()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return nil, errors.New(msg)
	case respResult:
		res := sqldb.Result{
			RowsAffected: int64(r.U64()),
			LastInsertID: int64(r.U64()),
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return &Response{Result: &res}, nil
	case respRows:
		ncols := int(r.U32())
		rows := &sqldb.Rows{}
		for i := 0; i < ncols && r.Err() == nil; i++ {
			rows.Columns = append(rows.Columns, r.String32())
		}
		nrows := int(r.U32())
		for i := 0; i < nrows && r.Err() == nil; i++ {
			raw := r.Bytes32()
			if r.Err() != nil {
				break
			}
			vals, err := sqldb.DecodeRow(raw)
			if err != nil {
				return nil, err
			}
			rows.Data = append(rows.Data, vals)
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return &Response{Rows: rows}, nil
	default:
		return nil, errors.New("sqlstate: malformed response")
	}
}
