package sql

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdv/internal/rdb"
)

// DB wraps an rdb.Database with a SQL interface. Statements are serialized
// at statement granularity: reader statements (SELECT) run concurrently
// under the shared statement lock, writer statements (DDL and DML) run
// exclusively. This, together with the materialize-before-mutate execution
// of DML, makes every statement deadlock-free and atomic with respect to
// other statements. Compiled SELECT plans are immutable and allocate all
// cursor state per execution, so any number of goroutines may run the same
// prepared statement concurrently; multi-statement read consistency is
// available through BeginRead/View.
type DB struct {
	raw *rdb.Database
	// stmtMu gives readers shared and writers exclusive access per statement.
	stmtMu sync.RWMutex
	// planVersion invalidates cached prepared-statement plans after DDL.
	planVersion atomic.Uint64
	// stmts caches prepared statements by text.
	stmts stmtCache
	// met is the optional instrument bundle (see EnableMetrics); nil until
	// metrics are enabled, making the disabled path one atomic load.
	met atomic.Pointer[dbMetrics]
}

// NewDB wraps an existing engine database.
func NewDB(raw *rdb.Database) *DB {
	return &DB{raw: raw, stmts: stmtCache{m: make(map[string]*Stmt)}}
}

// Open creates a new, empty SQL database.
func Open() *DB { return NewDB(rdb.NewDatabase()) }

// Raw exposes the underlying engine database (for persistence and direct
// table access in tests).
func (d *DB) Raw() *rdb.Database { return d.raw }

// bumpPlanVersion invalidates cached plans after DDL.
func (d *DB) bumpPlanVersion() { d.planVersion.Add(1) }

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    [][]rdb.Value
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// Empty reports whether the result has no rows.
func (r *Rows) Empty() bool { return len(r.Data) == 0 }

// Scalar returns the single value of a 1x1 result.
func (r *Rows) Scalar() (rdb.Value, error) {
	if len(r.Data) != 1 || len(r.Data[0]) != 1 {
		return rdb.Null(), fmt.Errorf("sql: result is not scalar (%dx%d)", len(r.Data), len(r.Columns))
	}
	return r.Data[0][0], nil
}

// Col returns the position of the named column, or -1.
func (r *Rows) Col(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Exec executes a statement, returning the number of affected rows (for
// DML; DDL returns 0 and a SELECT its row count). The text is parsed once
// and served from the statement cache after that.
func (d *DB) Exec(query string, params ...rdb.Value) (int, error) {
	s, err := d.Prepare(query)
	if err != nil {
		return 0, err
	}
	return s.Exec(params...)
}

// Query executes a SELECT or EXPLAIN, materializing all rows.
func (d *DB) Query(query string, params ...rdb.Value) (*Rows, error) {
	s, err := d.Prepare(query)
	if err != nil {
		return nil, err
	}
	return s.query(params, true)
}

// QueryFunc executes a SELECT or EXPLAIN, streaming each row to visit. The
// row slice is owned by the callback (a fresh slice per row).
func (d *DB) QueryFunc(query string, params []rdb.Value, visit func(row []rdb.Value) error) error {
	s, err := d.Prepare(query)
	if err != nil {
		return err
	}
	_, err = s.run(params, true, visit)
	return err
}

// execStmt executes a parsed DDL or DML statement.
func (d *DB) execStmt(st Statement, params []rdb.Value) (int, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		defer d.observeExec(opDDL, time.Now())
		d.stmtMu.Lock()
		defer d.stmtMu.Unlock()
		defer d.bumpPlanVersion()
		_, err := d.raw.CreateTable(s.Def)
		if err != nil && s.IfNotExists && errors.Is(err, rdb.ErrTableExists) {
			return 0, nil
		}
		return 0, err
	case *CreateIndexStmt:
		defer d.observeExec(opDDL, time.Now())
		d.stmtMu.Lock()
		defer d.stmtMu.Unlock()
		defer d.bumpPlanVersion()
		_, err := d.raw.CreateIndex(s.Def)
		if err != nil && s.IfNotExists && errors.Is(err, rdb.ErrIndexExists) {
			return 0, nil
		}
		return 0, err
	case *DropTableStmt:
		defer d.observeExec(opDDL, time.Now())
		d.stmtMu.Lock()
		defer d.stmtMu.Unlock()
		defer d.bumpPlanVersion()
		err := d.raw.DropTable(s.Name)
		if err != nil && s.IfExists && errors.Is(err, rdb.ErrNoSuchTable) {
			return 0, nil
		}
		return 0, err
	case *DropIndexStmt:
		defer d.observeExec(opDDL, time.Now())
		d.stmtMu.Lock()
		defer d.stmtMu.Unlock()
		defer d.bumpPlanVersion()
		return 0, d.raw.DropIndex(s.Table, s.Name)
	case *InsertStmt:
		defer d.observeExec(opInsert, time.Now())
		d.stmtMu.Lock()
		defer d.stmtMu.Unlock()
		return d.execInsert(s, params)
	case *UpdateStmt:
		defer d.observeExec(opUpdate, time.Now())
		d.stmtMu.Lock()
		defer d.stmtMu.Unlock()
		return d.execUpdate(s, params)
	case *DeleteStmt:
		defer d.observeExec(opDelete, time.Now())
		d.stmtMu.Lock()
		defer d.stmtMu.Unlock()
		return d.execDelete(s, params)
	default:
		return 0, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// execInsert handles INSERT ... VALUES and INSERT ... SELECT. The SELECT
// source is fully materialized before the first row is inserted, so
// inserting into a table read by the SELECT is well defined.
func (d *DB) execInsert(s *InsertStmt, params []rdb.Value) (int, error) {
	t, err := d.raw.Table(s.Table)
	if err != nil {
		return 0, err
	}
	def := t.Def()
	// Map the statement's column list to row positions.
	colPos := make([]int, 0, len(def.Columns))
	if s.Columns == nil {
		for i := range def.Columns {
			colPos = append(colPos, i)
		}
	} else {
		for _, c := range s.Columns {
			ci := def.ColumnIndex(c)
			if ci < 0 {
				return 0, fmt.Errorf("sql: %w: %s.%s", rdb.ErrNoSuchColumn, s.Table, c)
			}
			colPos = append(colPos, ci)
		}
	}

	buildRow := func(vals []rdb.Value) (rdb.Row, error) {
		if len(vals) != len(colPos) {
			return nil, fmt.Errorf("sql: INSERT into %s: %d values for %d columns", s.Table, len(vals), len(colPos))
		}
		row := make(rdb.Row, len(def.Columns))
		for i := range row {
			row[i] = rdb.Null()
		}
		for i, p := range colPos {
			row[p] = vals[i]
		}
		return row, nil
	}

	var source [][]rdb.Value
	if s.Select != nil {
		plan, err := buildSelectPlan(d.raw, s.Select)
		if err != nil {
			return 0, err
		}
		if err := plan.run(params, func(row []rdb.Value) error {
			source = append(source, row)
			return nil
		}); err != nil {
			return 0, err
		}
	} else {
		emptySc := &scope{}
		for _, exprRow := range s.Rows {
			vals := make([]rdb.Value, len(exprRow))
			for i, e := range exprRow {
				ce, err := compileExpr(e, emptySc, nil)
				if err != nil {
					return 0, err
				}
				v, err := ce(nil, params)
				if err != nil {
					return 0, err
				}
				vals[i] = v
			}
			source = append(source, vals)
		}
	}

	n := 0
	for _, vals := range source {
		row, err := buildRow(vals)
		if err != nil {
			return n, err
		}
		if _, err := t.Insert(row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// scanCandidates visits the rows a WHERE clause could match through the
// access path dmlAccess picks, falling back to a full scan. The WHERE clause
// itself is always re-evaluated by the caller, so the index is purely an
// access-path optimization — without it, UPDATE and DELETE on large catalog
// tables (e.g. the per-rule refcount updates during rule-base registration)
// degrade to O(table) per statement.
func scanCandidates(t *rdb.Table, def rdb.TableDef, where Expr, params []rdb.Value,
	visit func(id int64, row rdb.Row) bool) {
	ix, keyExpr := dmlAccess(t, def, where)
	var key rdb.Key
	switch v := keyExpr.(type) {
	case *Literal:
		key = rdb.Key{v.Value}
	case *Param:
		if v.Ordinal < len(params) {
			key = rdb.Key{params[v.Ordinal]}
		}
	}
	switch {
	case key == nil:
		t.Scan(visit)
	case len(ix.ColumnPositions()) == 1:
		for _, id := range ix.Lookup(key) {
			if row, ok := t.Get(id); ok && !visit(id, row) {
				return
			}
		}
	default:
		ix.ScanRange(key, key, func(_ rdb.Key, id int64) bool {
			row, ok := t.Get(id)
			return !ok || visit(id, row)
		})
	}
}

// dmlAccess picks the index an UPDATE or DELETE probes: the first equality
// conjunct between a column and a constant or parameter whose column leads
// an index — a point lookup on a single-column index, a prefix scan on an
// ordered composite one (indexes tried in name order). A nil index means a
// full scan. EXPLAIN reports the same choice.
func dmlAccess(t *rdb.Table, def rdb.TableDef, where Expr) (*rdb.Index, Expr) {
	if where == nil {
		return nil, nil
	}
	indexes := t.Indexes()
	sort.Slice(indexes, func(a, b int) bool { return indexes[a].Def.Name < indexes[b].Def.Name })
	for _, conj := range splitAnd(where) {
		be, ok := conj.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		colSide, valSide := be.Left, be.Right
		if _, ok := colSide.(*ColumnRef); !ok {
			colSide, valSide = be.Right, be.Left
		}
		cr, ok := colSide.(*ColumnRef)
		if !ok {
			continue
		}
		switch valSide.(type) {
		case *Literal, *Param:
		default:
			continue
		}
		ci := def.ColumnIndex(cr.Column)
		if ci < 0 {
			continue
		}
		for _, ix := range indexes {
			cols := ix.ColumnPositions()
			if len(cols) > 0 && cols[0] == ci && (len(cols) == 1 || ix.Ordered()) {
				return ix, valSide
			}
		}
	}
	return nil, nil
}

// execUpdate evaluates the WHERE clause over the table, materializes the
// matching row IDs and their new contents, then applies the updates.
func (d *DB) execUpdate(s *UpdateStmt, params []rdb.Value) (int, error) {
	t, err := d.raw.Table(s.Table)
	if err != nil {
		return 0, err
	}
	def := t.Def()
	sc := &scope{rels: []relBinding{{alias: s.Table, def: def, start: 0}}}

	type setOp struct {
		col int
		val cexpr
	}
	sets := make([]setOp, len(s.Set))
	for i, sc2 := range s.Set {
		ci := def.ColumnIndex(sc2.Column)
		if ci < 0 {
			return 0, fmt.Errorf("sql: %w: %s.%s", rdb.ErrNoSuchColumn, s.Table, sc2.Column)
		}
		ce, err := compileExpr(sc2.Value, sc, nil)
		if err != nil {
			return 0, err
		}
		sets[i] = setOp{col: ci, val: ce}
	}
	var where cexpr
	if s.Where != nil {
		ce, err := compileExpr(s.Where, sc, nil)
		if err != nil {
			return 0, err
		}
		where = ce
	}

	type pending struct {
		id  int64
		row rdb.Row
	}
	var updates []pending
	var evalErr error
	scanCandidates(t, def, s.Where, params, func(id int64, row rdb.Row) bool {
		env := []rdb.Value(row)
		if where != nil {
			v, err := where(env, params)
			if err != nil {
				evalErr = err
				return false
			}
			b, _ := truthy(v)
			if v.IsNull() || !b {
				return true
			}
		}
		newRow := row.Clone()
		for _, op := range sets {
			v, err := op.val(env, params)
			if err != nil {
				evalErr = err
				return false
			}
			newRow[op.col] = v
		}
		updates = append(updates, pending{id: id, row: newRow})
		return true
	})
	if evalErr != nil {
		return 0, evalErr
	}
	for _, u := range updates {
		if err := t.Update(u.id, u.row); err != nil {
			return 0, err
		}
	}
	return len(updates), nil
}

// execDelete materializes matching row IDs, then deletes them.
func (d *DB) execDelete(s *DeleteStmt, params []rdb.Value) (int, error) {
	t, err := d.raw.Table(s.Table)
	if err != nil {
		return 0, err
	}
	def := t.Def()
	sc := &scope{rels: []relBinding{{alias: s.Table, def: def, start: 0}}}
	var where cexpr
	if s.Where != nil {
		ce, err := compileExpr(s.Where, sc, nil)
		if err != nil {
			return 0, err
		}
		where = ce
	}
	var ids []int64
	var evalErr error
	scanCandidates(t, def, s.Where, params, func(id int64, row rdb.Row) bool {
		if where != nil {
			v, err := where([]rdb.Value(row), params)
			if err != nil {
				evalErr = err
				return false
			}
			b, _ := truthy(v)
			if v.IsNull() || !b {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if evalErr != nil {
		return 0, evalErr
	}
	for _, id := range ids {
		if _, err := t.Delete(id); err != nil {
			return 0, err
		}
	}
	return len(ids), nil
}

// StatementCacheSize bounds a DB's statement cache: the number of distinct
// statement texts whose parse tree and compiled plan it keeps.
const StatementCacheSize = 1024

// stmtCache maps statement text to its prepared statement, so ad hoc
// Exec/Query/QueryFunc calls and Prepare parse a text once and then reuse
// its cached plan. Hits take only the read lock. Inserting into a full
// cache evicts an arbitrary entry (the first in map iteration order): that
// bounds memory under a stream of distinct texts without per-hit
// bookkeeping. An evicted statement keeps working for whoever holds it.
type stmtCache struct {
	mu sync.RWMutex
	m  map[string]*Stmt
}

// Stmt is a prepared statement: the parse tree is cached, and for SELECTs
// the compiled plan is cached too and re-validated against catalog changes.
// A Stmt is safe for concurrent use: plans are immutable once built and
// every execution allocates its own cursor state, so concurrent Query /
// QueryFunc calls share the cached plan without any per-execution lock.
type Stmt struct {
	db  *DB
	ast Statement
	// runs counts executions, for CachedStatements.
	runs atomic.Uint64

	// cached is the compiled SELECT plan tagged with the catalog version
	// it was built against. Racing rebuilds after DDL are benign: the
	// plans are equivalent and the last store wins.
	cached atomic.Pointer[cachedPlan]
}

type cachedPlan struct {
	plan *selectPlan
	ver  uint64
}

// errNotQuery rejects running a statement that returns no rows as a query.
var errNotQuery = errors.New("sql: statement is not a SELECT or EXPLAIN")

// Prepare returns the prepared statement for query from the statement
// cache, parsing it on a miss. Parse errors are returned and never cached.
// Equal texts share one Stmt.
func (d *DB) Prepare(query string) (*Stmt, error) {
	d.stmts.mu.RLock()
	s, ok := d.stmts.m[query]
	d.stmts.mu.RUnlock()
	if ok {
		return s, nil
	}
	ast, err := Parse(query)
	if err != nil {
		return nil, err
	}
	s = &Stmt{db: d, ast: ast}
	d.stmts.mu.Lock()
	defer d.stmts.mu.Unlock()
	if cur, ok := d.stmts.m[query]; ok {
		return cur, nil
	}
	if len(d.stmts.m) >= StatementCacheSize {
		for text := range d.stmts.m {
			delete(d.stmts.m, text)
			break
		}
	}
	d.stmts.m[query] = s
	return s, nil
}

// MustPrepare is Prepare, panicking on parse errors. Intended for statically
// known statements (the MDV filter's fixed query set).
func (d *DB) MustPrepare(query string) *Stmt {
	st, err := d.Prepare(query)
	if err != nil {
		panic(err)
	}
	return st
}

// CachedStatement is one entry of a DB's statement cache.
type CachedStatement struct {
	Text string
	// Runs counts the statement's executions since it was cached.
	Runs uint64
}

// CachedStatements lists the statement cache, sorted by text.
func (d *DB) CachedStatements() []CachedStatement {
	d.stmts.mu.RLock()
	out := make([]CachedStatement, 0, len(d.stmts.m))
	for text, s := range d.stmts.m {
		out = append(out, CachedStatement{Text: text, Runs: s.runs.Load()})
	}
	d.stmts.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Text < out[j].Text })
	return out
}

// selectPlanFor returns a cached plan for the prepared SELECT, rebuilding it
// if DDL has run since it was compiled.
func (s *Stmt) selectPlanFor(sel *SelectStmt) (*selectPlan, error) {
	ver := s.db.planVersion.Load()
	if c := s.cached.Load(); c != nil && c.ver == ver {
		s.db.observePlanCache(true)
		return c.plan, nil
	}
	s.db.observePlanCache(false)
	plan, err := buildSelectPlan(s.db.raw, sel)
	if err != nil {
		return nil, err
	}
	s.cached.Store(&cachedPlan{plan: plan, ver: ver})
	return plan, nil
}

// run executes a prepared SELECT or EXPLAIN, streaming rows to visit, and
// returns the result's column names. lock takes the shared statement lock;
// a ReadTxn already holds it.
func (s *Stmt) run(params []rdb.Value, lock bool, visit func(row []rdb.Value) error) ([]string, error) {
	s.runs.Add(1)
	switch st := s.ast.(type) {
	case *ExplainStmt:
		return explainColumns, s.db.explain(st, visit)
	case *SelectStmt:
		t0 := time.Now()
		plan, err := s.selectPlanFor(st)
		if err != nil {
			return nil, err
		}
		defer s.db.observeSelect(plan, t0)
		if lock {
			s.db.stmtMu.RLock()
			defer s.db.stmtMu.RUnlock()
		}
		return plan.projNames, plan.run(params, visit)
	default:
		return nil, errNotQuery
	}
}

// query is run, materializing the rows.
func (s *Stmt) query(params []rdb.Value, lock bool) (*Rows, error) {
	rows := &Rows{}
	cols, err := s.run(params, lock, func(row []rdb.Value) error {
		rows.Data = append(rows.Data, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows.Columns = cols
	return rows, nil
}

// Query executes a prepared SELECT or EXPLAIN.
func (s *Stmt) Query(params ...rdb.Value) (*Rows, error) {
	return s.query(params, true)
}

// QueryFunc executes a prepared SELECT or EXPLAIN, streaming rows to visit.
func (s *Stmt) QueryFunc(params []rdb.Value, visit func(row []rdb.Value) error) error {
	_, err := s.run(params, true, visit)
	return err
}

// Exec executes a prepared statement of any kind.
func (s *Stmt) Exec(params ...rdb.Value) (int, error) {
	switch s.ast.(type) {
	case *SelectStmt, *ExplainStmt:
		rows, err := s.query(params, true)
		if err != nil {
			return 0, err
		}
		return rows.Len(), nil
	}
	s.runs.Add(1)
	return s.db.execStmt(s.ast, params)
}

// ExecBatch executes a prepared single-row INSERT ... VALUES statement once
// per parameter row, acquiring the writer lock and compiling the value
// expressions a single time for the whole batch. The filter engine loads its
// per-run scratch atoms through this: row-at-a-time Exec pays one exclusive
// lock round trip plus one expression compilation per atom, which dominates
// the load cost of large publish batches. Rows inserted before a failing row
// stay inserted — the same contract as issuing the inserts one by one.
func (s *Stmt) ExecBatch(paramRows [][]rdb.Value) (int, error) {
	ins, ok := s.ast.(*InsertStmt)
	if !ok || ins.Select != nil || len(ins.Rows) != 1 {
		return 0, fmt.Errorf("sql: ExecBatch requires a single-row INSERT ... VALUES statement")
	}
	if len(paramRows) == 0 {
		return 0, nil
	}
	s.runs.Add(1)
	defer s.db.observeExec(opInsert, time.Now())
	s.db.stmtMu.Lock()
	defer s.db.stmtMu.Unlock()
	t, err := s.db.raw.Table(ins.Table)
	if err != nil {
		return 0, err
	}
	def := t.Def()
	colPos := make([]int, 0, len(def.Columns))
	if ins.Columns == nil {
		for i := range def.Columns {
			colPos = append(colPos, i)
		}
	} else {
		for _, c := range ins.Columns {
			ci := def.ColumnIndex(c)
			if ci < 0 {
				return 0, fmt.Errorf("sql: %w: %s.%s", rdb.ErrNoSuchColumn, ins.Table, c)
			}
			colPos = append(colPos, ci)
		}
	}
	exprRow := ins.Rows[0]
	if len(exprRow) != len(colPos) {
		return 0, fmt.Errorf("sql: INSERT into %s: %d values for %d columns",
			ins.Table, len(exprRow), len(colPos))
	}
	emptySc := &scope{}
	compiled := make([]cexpr, len(exprRow))
	for i, ex := range exprRow {
		ce, err := compileExpr(ex, emptySc, nil)
		if err != nil {
			return 0, err
		}
		compiled[i] = ce
	}
	n := 0
	for _, params := range paramRows {
		row := make(rdb.Row, len(def.Columns))
		for i := range row {
			row[i] = rdb.Null()
		}
		for i, ce := range compiled {
			v, err := ce(nil, params)
			if err != nil {
				return n, err
			}
			row[colPos[i]] = v
		}
		if _, err := t.Insert(row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// MustExec runs Exec and panics on error. For schema bootstrap code.
func (d *DB) MustExec(query string, params ...rdb.Value) int {
	n, err := d.Exec(query, params...)
	if err != nil {
		panic(fmt.Sprintf("sql: MustExec(%q): %v", query, err))
	}
	return n
}

// ReadTxn is a multi-statement read-only view of the database: it holds the
// shared statement lock for its whole lifetime, so no writer statement (DML
// or DDL) interleaves between its queries, while other readers — including
// other ReadTxns — proceed concurrently. Obtain one with BeginRead and
// release it with End (or use View). The owning goroutine must not run
// writer statements, nor plain DB/Stmt query methods (they would re-acquire
// the read lock and can deadlock behind a waiting writer), between
// BeginRead and End; use the ReadTxn's own methods instead.
type ReadTxn struct {
	db   *DB
	done bool
}

// BeginRead opens a read-only transaction, blocking until no writer
// statement is running.
func (d *DB) BeginRead() *ReadTxn {
	d.stmtMu.RLock()
	return &ReadTxn{db: d}
}

// End releases the transaction's shared lock. Safe to call twice.
func (t *ReadTxn) End() {
	if t.done {
		return
	}
	t.done = true
	t.db.stmtMu.RUnlock()
}

// View runs fn inside a read transaction: every query fn issues through the
// transaction sees the same writer-free snapshot of the database.
func (d *DB) View(fn func(*ReadTxn) error) error {
	t := d.BeginRead()
	defer t.End()
	return fn(t)
}

// Query executes a SELECT or EXPLAIN inside the transaction.
func (t *ReadTxn) Query(query string, params ...rdb.Value) (*Rows, error) {
	s, err := t.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return s.query(params, false)
}

// QueryFunc executes a SELECT or EXPLAIN inside the transaction, streaming
// each row to visit.
func (t *ReadTxn) QueryFunc(query string, params []rdb.Value, visit func(row []rdb.Value) error) error {
	s, err := t.db.Prepare(query)
	if err != nil {
		return err
	}
	_, err = s.run(params, false, visit)
	return err
}

// QueryStmt executes a prepared SELECT or EXPLAIN inside the transaction.
func (t *ReadTxn) QueryStmt(s *Stmt, params ...rdb.Value) (*Rows, error) {
	return s.query(params, false)
}
