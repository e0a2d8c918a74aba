package sql

import (
	"fmt"
	"strings"
	"testing"

	"mdv/internal/rdb"
)

// explainDB has one index of each shape EXPLAIN must tell apart: the
// single-column primary key (point), a composite B+tree (prefix or range),
// and an unindexed column (full scan).
func explainDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, grp INT, num FLOAT, name TEXT)`)
	mustExec(t, db, `CREATE INDEX t_gn ON t (grp, num)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, `INSERT INTO t (id, grp, num, name) VALUES (?, ?, ?, ?)`,
			rdb.NewInt(int64(i)), rdb.NewInt(int64(i%4)), rdb.NewFloat(float64(i)),
			rdb.NewText(fmt.Sprintf("n%d", i%3)))
	}
	return db
}

// explainRows renders EXPLAIN output as "table alias access index key" lines.
func explainRows(t *testing.T, db *DB, stmt string) []string {
	t.Helper()
	rows, err := db.Query("EXPLAIN " + stmt)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", stmt, err)
	}
	if got := strings.Join(rows.Columns, ","); got != "step,table,alias,access,index,key" {
		t.Fatalf("EXPLAIN columns = %s", got)
	}
	var out []string
	for i, r := range rows.Data {
		if r[0].Int != int64(i+1) {
			t.Fatalf("EXPLAIN %s: row %d has step %d", stmt, i, r[0].Int)
		}
		out = append(out, fmt.Sprintf("%s %s %s %s %s", r[1].Str, r[2].Str, r[3].Str, r[4].Str, r[5].Str))
	}
	return out
}

func TestExplainAccessKinds(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		stmt string
		want []string
	}{
		{`SELECT id FROM t WHERE name = 'n1'`, []string{"t t full_scan  "}},
		{`SELECT id FROM t WHERE id = ?`, []string{"t t index_point t_pk id"}},
		{`SELECT id FROM t WHERE grp = 1`, []string{"t t index_prefix t_gn grp"}},
		{`SELECT id FROM t WHERE grp = 1 AND num > 4`, []string{"t t index_range t_gn grp,num"}},
		{`SELECT id FROM t WHERE grp > 2`, []string{"t t index_range t_gn grp"}},
		{`SELECT id FROM t WHERE num < 3`, []string{"t t full_scan  "}},
		// Join order is FROM order: the second relation is probed through
		// the key the first one binds.
		{`SELECT a.id FROM t a, t b WHERE b.id = a.grp AND a.name = 'n0'`,
			[]string{"t a full_scan  ", "t b index_point t_pk id"}},
		{`SELECT a.id FROM t b, t a WHERE b.id = a.grp AND a.name = 'n0'`,
			[]string{"t b full_scan  ", "t a index_prefix t_gn grp"}},
		{`UPDATE t SET name = 'x' WHERE id = ?`, []string{"t t index_point t_pk id"}},
		{`DELETE FROM t WHERE grp = 2 AND name = 'n1'`, []string{"t t index_prefix t_gn grp"}},
		{`DELETE FROM t WHERE name = 'n1'`, []string{"t t full_scan  "}},
		{`DELETE FROM t`, []string{"t t full_scan  "}},
	}
	for _, c := range cases {
		got := explainRows(t, db, c.stmt)
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("EXPLAIN %s:\n got %q\nwant %q", c.stmt, got, c.want)
		}
	}
}

// TestExplainDoesNotExecute: EXPLAIN of a mutating statement describes it
// and leaves the table as it was.
func TestExplainDoesNotExecute(t *testing.T) {
	db := explainDB(t)
	snapshot := func() string {
		rows, err := db.Query(`SELECT id, grp, num, name FROM t ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows.Data)
	}
	before := snapshot()
	for _, stmt := range []string{
		`EXPLAIN UPDATE t SET name = 'changed' WHERE grp = 1`,
		`EXPLAIN UPDATE t SET name = 'changed'`,
		`EXPLAIN DELETE FROM t WHERE id = 3`,
		`EXPLAIN DELETE FROM t`,
	} {
		if _, err := db.Query(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if n, err := db.Exec(stmt); err != nil || n != 1 {
			t.Fatalf("Exec %s = %d, %v; want the one plan row", stmt, n, err)
		}
	}
	if after := snapshot(); after != before {
		t.Fatalf("EXPLAIN changed the table:\nbefore %s\nafter  %s", before, after)
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainDB(t)
	for _, stmt := range []string{
		`EXPLAIN SELECT x FROM missing`,
		`EXPLAIN UPDATE missing SET x = 1 WHERE id = 1`,
		`EXPLAIN DELETE FROM missing WHERE id = 1`,
		`EXPLAIN SELECT nope FROM t`,
		`EXPLAIN DELETE FROM t WHERE nope = 1`,
		`EXPLAIN INSERT INTO t (id) VALUES (1)`,
		`EXPLAIN EXPLAIN SELECT id FROM t`,
		`EXPLAIN`,
	} {
		if _, err := db.Query(stmt); err == nil {
			t.Errorf("%s: want an error", stmt)
		}
	}
}

// TestPlanFollowsCreateIndex: a statement cached before CREATE INDEX is
// re-planned after it, so both its EXPLAIN and its cached execution plan
// switch from a full scan to the new index, with unchanged results.
func TestPlanFollowsCreateIndex(t *testing.T) {
	db := explainDB(t)
	const q = `SELECT id FROM t WHERE name = ? ORDER BY id`
	run := func() string {
		rows, err := db.Query(q, rdb.NewText("n2"))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows.Data)
	}
	cachedKind := func() string {
		s, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		c := s.cached.Load()
		if c == nil {
			t.Fatal("no cached plan")
		}
		return accessNames[c.plan.rels[0].access.kind]
	}
	before := run()
	if k := cachedKind(); k != "full_scan" {
		t.Fatalf("before CREATE INDEX the cached plan is %s, want full_scan", k)
	}
	if got := explainRows(t, db, q); got[0] != "t t full_scan  " {
		t.Fatalf("before CREATE INDEX: %q", got)
	}
	mustExec(t, db, `CREATE INDEX t_name ON t (name)`)
	if got := explainRows(t, db, q); got[0] != "t t index_point t_name name" {
		t.Fatalf("after CREATE INDEX: %q", got)
	}
	if after := run(); after != before {
		t.Fatalf("results changed with the index: %s vs %s", before, after)
	}
	if k := cachedKind(); k != "index_point" {
		t.Fatalf("after CREATE INDEX the cached plan is %s, want index_point", k)
	}
}
