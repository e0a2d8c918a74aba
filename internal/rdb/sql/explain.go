package sql

import (
	"fmt"
	"strings"

	"mdv/internal/rdb"
)

// explainColumns are the columns of an EXPLAIN result: one row per relation
// the statement reads, in join order. access is one of accessNames; index
// is empty for a full scan; key lists the index columns the access path
// constrains (the equality prefix, then the ranged column of a range scan),
// comma-separated.
var explainColumns = []string{"step", "table", "alias", "access", "index", "key"}

// explain reports the access paths of the target statement without running
// it: the compiled plan of a SELECT, or the path scanCandidates takes for an
// UPDATE or DELETE.
func (d *DB) explain(ex *ExplainStmt, visit func(row []rdb.Value) error) error {
	step := 0
	emit := func(table, alias string, kind accessKind, ix *rdb.Index, key []string) error {
		step++
		index := ""
		if ix != nil {
			index = ix.Def.Name
		}
		return visit([]rdb.Value{rdb.NewInt(int64(step)), rdb.NewText(table), rdb.NewText(alias),
			rdb.NewText(accessNames[kind]), rdb.NewText(index), rdb.NewText(strings.Join(key, ","))})
	}
	switch st := ex.Target.(type) {
	case *SelectStmt:
		plan, err := buildSelectPlan(d.raw, st)
		if err != nil {
			return err
		}
		for _, rel := range plan.rels {
			a := rel.access
			var key []string
			if a.index != nil {
				n := len(a.keyExprs)
				if a.kind == accessIndexRange {
					n++
				}
				key = a.index.Def.Columns[:n]
			}
			if err := emit(rel.table.Name(), rel.binding.alias, a.kind, a.index, key); err != nil {
				return err
			}
		}
		return nil
	case *UpdateStmt:
		return d.explainDML(st.Table, st.Where, emit)
	case *DeleteStmt:
		return d.explainDML(st.Table, st.Where, emit)
	default:
		return fmt.Errorf("sql: cannot EXPLAIN %T", ex.Target)
	}
}

// explainDML reports the single-table access path of an UPDATE or DELETE,
// after checking that its WHERE clause compiles against the table.
func (d *DB) explainDML(table string, where Expr,
	emit func(table, alias string, kind accessKind, ix *rdb.Index, key []string) error) error {
	t, err := d.raw.Table(table)
	if err != nil {
		return err
	}
	def := t.Def()
	if where != nil {
		sc := &scope{rels: []relBinding{{alias: table, def: def}}}
		if _, err := compileExpr(where, sc, nil); err != nil {
			return err
		}
	}
	ix, _ := dmlAccess(t, def, where)
	switch {
	case ix == nil:
		return emit(t.Name(), table, accessFullScan, nil, nil)
	case len(ix.Def.Columns) == 1:
		return emit(t.Name(), table, accessIndexPoint, ix, ix.Def.Columns[:1])
	default:
		return emit(t.Name(), table, accessIndexPrefix, ix, ix.Def.Columns[:1])
	}
}
