package sql

import (
	"fmt"
	"sync"
	"testing"

	"mdv/internal/rdb"
)

func cacheLen(db *DB) int {
	db.stmts.mu.RLock()
	defer db.stmts.mu.RUnlock()
	return len(db.stmts.m)
}

// TestStatementCacheBounded: a stream of distinct texts never grows the
// cache past StatementCacheSize, and every statement still runs correctly.
func TestStatementCacheBounded(t *testing.T) {
	db := explainDB(t)
	for i := 0; i < 3*StatementCacheSize; i++ {
		rows, err := db.Query(fmt.Sprintf(`SELECT id, %d FROM t WHERE id = %d`, i, i%20))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 1 || rows.Data[0][0].Int != int64(i%20) || rows.Data[0][1].Int != int64(i) {
			t.Fatalf("query %d = %v", i, rows.Data)
		}
		if n := cacheLen(db); n > StatementCacheSize {
			t.Fatalf("after %d distinct texts the cache holds %d > %d", i+1, n, StatementCacheSize)
		}
	}
	if n := cacheLen(db); n != StatementCacheSize {
		t.Fatalf("cache holds %d entries, want it full at %d", n, StatementCacheSize)
	}
}

// TestStatementCacheSharesStatements: one text maps to one Stmt, whatever
// entry point reached it, and its run count covers every execution.
func TestStatementCacheSharesStatements(t *testing.T) {
	db := explainDB(t)
	const q = `SELECT name FROM t WHERE id = ?`
	s1 := db.MustPrepare(q)
	if _, err := db.Query(q, rdb.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryFunc(q, []rdb.Value{rdb.NewInt(2)}, func([]rdb.Value) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(txn *ReadTxn) error {
		_, err := txn.Query(q, rdb.NewInt(3))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if s2 := db.MustPrepare(q); s2 != s1 {
		t.Fatal("Prepare of an equal text returned a second Stmt")
	}
	for _, c := range db.CachedStatements() {
		if c.Text == q {
			if c.Runs != 3 {
				t.Fatalf("runs = %d, want 3", c.Runs)
			}
			return
		}
	}
	t.Fatal("statement missing from CachedStatements")
}

// TestStatementCacheConcurrentQuery: many goroutines query one text — the
// first of them racing to insert it — while a writer mutates the table.
// Run under -race.
func TestStatementCacheConcurrentQuery(t *testing.T) {
	db := explainDB(t)
	const q = `SELECT COUNT(*) FROM t WHERE grp = ?`
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				rows, err := db.Query(q, rdb.NewInt(int64(g%4)))
				if err != nil {
					t.Error(err)
					return
				}
				if v, err := rows.Scalar(); err != nil || v.Int < 5 {
					t.Errorf("count = %v, %v; want at least the 5 seeded rows", v, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 100; i++ {
			if _, err := db.Exec(`INSERT INTO t (id, grp, num, name) VALUES (?, ?, ?, ?)`,
				rdb.NewInt(int64(100+i)), rdb.NewInt(int64(i%4)), rdb.NewFloat(0), rdb.NewText("w")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	for _, c := range db.CachedStatements() {
		if c.Text == q && c.Runs != 8*200 {
			t.Fatalf("runs = %d, want %d", c.Runs, 8*200)
		}
	}
}

// TestStatementCacheSkipsParseErrors: a text that fails to parse is never
// cached, so it fails the same way every time and takes no slot.
func TestStatementCacheSkipsParseErrors(t *testing.T) {
	db := explainDB(t)
	n := cacheLen(db)
	const bad = `SELEC id FROM t`
	for i := 0; i < 3; i++ {
		if _, err := db.Query(bad); err == nil {
			t.Fatal("want a parse error")
		}
		if _, err := db.Exec(bad); err == nil {
			t.Fatal("want a parse error")
		}
		if _, err := db.Prepare(bad); err == nil {
			t.Fatal("want a parse error")
		}
	}
	if got := cacheLen(db); got != n {
		t.Fatalf("cache grew from %d to %d on parse errors", n, got)
	}
	for _, c := range db.CachedStatements() {
		if c.Text == bad {
			t.Fatal("unparsable text was cached")
		}
	}
}
