package sqlstate

import (
	"repro/internal/sqldb"
)

// shardPlanCacheCap bounds the per-app classification cache; workloads
// repeat statement templates, so this stays tiny in practice. The cache
// is dropped wholesale when full (no eviction bookkeeping).
const shardPlanCacheCap = 4096

// shardPlan is one statement's classification. Keys caches it by
// statement text, with the keyset, so the protocol loop parses each
// template once; Execute derives it from the statement it parses anyway.
type shardPlan struct {
	table      string
	shardable  bool
	txnControl bool
	key        [][]byte // precomputed conflict keyset (shardable only)
}

// Keys implements core.Sharder with per-table conflict keysets for
// single-table read-only statements; everything else is a barrier.
//
// Only nondeterminism-free single-table SELECTs get a keyset. Mutating
// statements can never be keyed, whatever tables they name: the embedded
// engine allocates pages from a database-wide freelist, so two writes —
// even into different tables — do not commute at the byte level and would
// break the checkpoint-digest contract if they interleaved differently
// across replicas. Reads write nothing, so spreading them per-table is
// safe; the table key still serializes them behind any scheduled write
// (all writes being barriers) and spreads query execution across shard
// workers. SELECTs calling now()/random() are excluded because their
// result depends on the per-operation agreed nondeterminism values, which
// the concurrent read path does not install (see Execute).
func (a *App) Keys(op []byte) [][]byte {
	if a.err != nil {
		return nil
	}
	kind, sql, err := decodeOpHeader(op)
	if err != nil || kind != opQuery {
		return nil
	}
	// The keyset is precomputed in the cached plan: Keys runs per
	// committed operation on the protocol loop — keep it allocation-free
	// for repeated statement templates.
	return a.classify(sql).key
}

// ObserveExecShards implements core.ShardObserver: Execute routes
// shardable queries down the concurrency-safe private-pager path only
// when the engine can actually run queries in parallel; serial
// deployments keep the long-lived cached handle.
func (a *App) ObserveExecShards(shards int) {
	a.sharded.Store(shards > 1)
}

// classify is parseStatement behind the app's plan cache: Keys
// classifies every committed query on the protocol loop, and workloads
// repeat statement templates — one parse per template instead of one per
// call.
func (a *App) classify(sql string) shardPlan {
	a.planMu.Lock()
	plan, ok := a.plans[sql]
	a.planMu.Unlock()
	if !ok {
		plan = parseStatement(sql)
		a.planMu.Lock()
		if len(a.plans) >= shardPlanCacheCap {
			a.plans = make(map[string]shardPlan, shardPlanCacheCap)
		}
		if a.plans == nil {
			a.plans = make(map[string]shardPlan, 64)
		}
		a.plans[sql] = plan
		a.planMu.Unlock()
	}
	return plan
}

// parseStatement classifies one statement text and, for a shardable
// one, precomputes its conflict keyset.
func parseStatement(sql string) shardPlan {
	st, _, err := sqldb.Parse(sql)
	if err != nil {
		return shardPlan{} // let the engine produce its own parse error
	}
	plan := statementPlan(st)
	if plan.shardable {
		plan.key = [][]byte{[]byte("table:" + plan.table)}
	}
	return plan
}

// statementPlan classifies one parsed statement, without a keyset:
// whether it is transaction control (rejected on the replicated path),
// and whether it is a SELECT confined to a single table and free of the
// agreed-nondeterminism functions — such a statement may execute
// concurrently with other shardable SELECTs over a private pager. A nil
// statement (one that did not parse) is neither.
func statementPlan(st sqldb.Stmt) shardPlan {
	switch st.(type) {
	case *sqldb.BeginStmt, *sqldb.CommitStmt, *sqldb.RollbackStmt:
		return shardPlan{txnControl: true}
	}
	sel, ok := st.(*sqldb.SelectStmt)
	if !ok || sel.Table == "" {
		return shardPlan{}
	}
	for _, it := range sel.Items {
		if !it.Star && exprDeterministic(it.Expr) != nil {
			return shardPlan{}
		}
	}
	if exprDeterministic(sel.Where) != nil {
		return shardPlan{}
	}
	for _, ob := range sel.OrderBy {
		if exprDeterministic(ob.Expr) != nil {
			return shardPlan{}
		}
	}
	if exprDeterministic(sel.Limit) != nil {
		return shardPlan{}
	}
	return shardPlan{table: sel.Table, shardable: true}
}

// nonDetCall marks an expression tree containing now() or random().
type nonDetCall struct{}

func (nonDetCall) Error() string { return "nondeterministic call" }

// exprDeterministic walks an expression and returns non-nil if it calls a
// function whose value comes from the agreed nondeterminism inputs.
func exprDeterministic(e sqldb.Expr) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *sqldb.UnaryExpr:
		return exprDeterministic(x.E)
	case *sqldb.BinaryExpr:
		if err := exprDeterministic(x.L); err != nil {
			return err
		}
		return exprDeterministic(x.R)
	case *sqldb.CallExpr:
		if x.Name == "now" || x.Name == "random" {
			return nonDetCall{}
		}
		for _, arg := range x.Args {
			if err := exprDeterministic(arg); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}
