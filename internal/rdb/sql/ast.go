package sql

import "mdv/internal/rdb"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (...).
type CreateTableStmt struct {
	IfNotExists bool
	Def         rdb.TableDef
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON table (cols) [USING kind].
type CreateIndexStmt struct {
	IfNotExists bool
	Def         rdb.IndexDef
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	IfExists bool
	Name     string
}

// DropIndexStmt is DROP INDEX name ON table.
type DropIndexStmt struct {
	Table string
	Name  string
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...),(...) or
// INSERT INTO table [(cols)] SELECT ...
type InsertStmt struct {
	Table   string
	Columns []string // nil means all columns in definition order
	Rows    [][]Expr // literal VALUES rows; nil when Select is set
	Select  *SelectStmt
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem // empty means SELECT *
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int
}

// SelectItem is one projected expression with an optional alias.
// Star marks a bare * or table.* item.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	// StarTable qualifies a table.* item; empty for a bare *.
	StarTable string
}

// TableRef is one relation in the FROM clause. Explicit INNER JOIN ... ON
// chains are flattened by the parser: the ON condition is attached to the
// right-hand relation and ANDed into the WHERE during planning.
type TableRef struct {
	Table string
	Alias string // defaults to Table
	On    Expr   // join condition from explicit JOIN syntax, or nil
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// ExplainStmt is EXPLAIN <SELECT|UPDATE|DELETE>: it reports the access path
// of every relation the target statement reads, without executing it.
type ExplainStmt struct {
	Target Statement
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*DropIndexStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}

// Expr is a parsed expression tree node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Value rdb.Value }

// Param is a ? placeholder; Ordinal is its zero-based position.
type Param struct{ Ordinal int }

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Table  string // optional qualifier (alias)
	Column string
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op    string // = != < <= > >= AND OR + - * / % LIKE CONTAINS
	Left  Expr
	Right Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // NOT, -
	X  Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is x IN (e1, e2, ...).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X    Expr
	Type rdb.Kind
}

// FuncExpr is a scalar function call (LOWER, UPPER, LENGTH, ABS, COALESCE).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
}

// AggExpr is an aggregate call: COUNT(*), COUNT(x), SUM, AVG, MIN, MAX.
type AggExpr struct {
	Name string // upper-cased
	Arg  Expr   // nil for COUNT(*)
	Star bool
}

func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*ColumnRef) expr()  {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*IsNullExpr) expr() {}
func (*InExpr) expr()     {}
func (*CastExpr) expr()   {}
func (*FuncExpr) expr()   {}
func (*AggExpr) expr()    {}
