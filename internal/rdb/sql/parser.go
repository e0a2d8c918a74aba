package sql

import (
	"fmt"
	"strconv"
	"strings"

	"mdv/internal/rdb"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, tokens: tokens}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.at(tkEOF, "") {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return st, nil
}

type parser struct {
	src       string
	tokens    []token
	pos       int
	numParams int
}

func (p *parser) peek() token { return p.tokens[p.pos] }
func (p *parser) next() token { t := p.tokens[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }

// at reports whether the current token matches kind (and text, if non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a matching token or fails.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		switch kind {
		case tkIdent:
			want = "identifier"
		case tkNumber:
			want = "number"
		case tkString:
			want = "string"
		default:
			want = "token"
		}
	}
	return token{}, p.errorf("expected %s, found %q", want, p.peek().text)
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// identOrKeyword consumes an identifier; non-reserved keywords (type names,
// aggregate names, HASH/BTREE/KEY) are accepted as identifiers too, since
// the MDV filter uses column names like "value" and "class".
func (p *parser) identOrKeyword() (string, error) {
	t := p.peek()
	if t.kind == tkIdent {
		p.pos++
		return t.text, nil
	}
	if t.kind == tkKeyword {
		switch t.text {
		case "INT", "INTEGER", "FLOAT", "REAL", "DOUBLE", "TEXT", "VARCHAR",
			"STRING", "BOOL", "BOOLEAN", "HASH", "BTREE", "KEY",
			"COUNT", "SUM", "AVG", "MIN", "MAX":
			p.pos++
			return t.text, nil
		}
	}
	return "", p.errorf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return nil, p.errorf("expected statement, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "EXPLAIN":
		return p.parseExplain()
	default:
		return nil, p.errorf("unsupported statement %q", t.text)
	}
}

// parseExplain parses EXPLAIN followed by a SELECT, UPDATE or DELETE.
func (p *parser) parseExplain() (Statement, error) {
	p.next() // EXPLAIN
	if !p.at(tkKeyword, "SELECT") && !p.at(tkKeyword, "UPDATE") && !p.at(tkKeyword, "DELETE") {
		return nil, p.errorf("EXPLAIN expects SELECT, UPDATE or DELETE, found %q", p.peek().text)
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Target: st}, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.accept(tkKeyword, "UNIQUE")
	switch {
	case p.accept(tkKeyword, "TABLE"):
		if unique {
			return nil, p.errorf("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.accept(tkKeyword, "INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseIfNotExists() bool {
	if p.at(tkKeyword, "IF") {
		save := p.pos
		p.next()
		if p.accept(tkKeyword, "NOT") && p.accept(tkKeyword, "EXISTS") {
			return true
		}
		p.pos = save
	}
	return false
}

func (p *parser) parseCreateTable() (Statement, error) {
	st := &CreateTableStmt{IfNotExists: p.parseIfNotExists()}
	name, err := p.identOrKeyword()
	if err != nil {
		return nil, err
	}
	st.Def.Name = name
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	for {
		// Table-level PRIMARY KEY (cols) clause.
		if p.accept(tkKeyword, "PRIMARY") {
			if _, err := p.expect(tkKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, "("); err != nil {
				return nil, err
			}
			for {
				col, err := p.identOrKeyword()
				if err != nil {
					return nil, err
				}
				ci := st.Def.ColumnIndex(col)
				if ci < 0 {
					return nil, p.errorf("PRIMARY KEY references unknown column %q", col)
				}
				st.Def.Columns[ci].PrimaryKey = true
				if !p.accept(tkSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Def.Columns = append(st.Def.Columns, col)
		}
		if p.accept(tkSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseColumnDef() (rdb.ColumnDef, error) {
	var col rdb.ColumnDef
	name, err := p.identOrKeyword()
	if err != nil {
		return col, err
	}
	col.Name = name
	kind, err := p.parseTypeName()
	if err != nil {
		return col, err
	}
	col.Type = kind
	for {
		switch {
		case p.accept(tkKeyword, "PRIMARY"):
			if _, err := p.expect(tkKeyword, "KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
		case p.accept(tkKeyword, "NOT"):
			if _, err := p.expect(tkKeyword, "NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.at(tkKeyword, "UNIQUE"):
			return col, p.errorf("column-level UNIQUE is not supported; use CREATE UNIQUE INDEX")
		default:
			return col, nil
		}
	}
}

func (p *parser) parseTypeName() (rdb.Kind, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return 0, p.errorf("expected type name, found %q", t.text)
	}
	var kind rdb.Kind
	switch t.text {
	case "INT", "INTEGER":
		kind = rdb.KindInt
	case "FLOAT", "REAL", "DOUBLE":
		kind = rdb.KindFloat
	case "TEXT", "STRING":
		kind = rdb.KindText
	case "VARCHAR":
		kind = rdb.KindText
	case "BOOL", "BOOLEAN":
		kind = rdb.KindBool
	default:
		return 0, p.errorf("expected type name, found %q", t.text)
	}
	p.next()
	// Optional length, e.g. VARCHAR(255): parsed and ignored.
	if p.accept(tkSymbol, "(") {
		if _, err := p.expect(tkNumber, ""); err != nil {
			return 0, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return 0, err
		}
	}
	return kind, nil
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	st := &CreateIndexStmt{IfNotExists: p.parseIfNotExists()}
	st.Def.Unique = unique
	name, err := p.identOrKeyword()
	if err != nil {
		return nil, err
	}
	st.Def.Name = name
	if _, err := p.expect(tkKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.identOrKeyword()
	if err != nil {
		return nil, err
	}
	st.Def.Table = table
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.identOrKeyword()
		if err != nil {
			return nil, err
		}
		st.Def.Columns = append(st.Def.Columns, col)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	st.Def.Kind = rdb.IndexBTree
	if p.accept(tkKeyword, "USING") {
		switch {
		case p.accept(tkKeyword, "HASH"):
			st.Def.Kind = rdb.IndexHash
		case p.accept(tkKeyword, "BTREE"):
			st.Def.Kind = rdb.IndexBTree
		default:
			return nil, p.errorf("expected HASH or BTREE after USING")
		}
	}
	return st, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	switch {
	case p.accept(tkKeyword, "TABLE"):
		st := &DropTableStmt{}
		if p.accept(tkKeyword, "IF") {
			if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.identOrKeyword()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	case p.accept(tkKeyword, "INDEX"):
		st := &DropIndexStmt{}
		name, err := p.identOrKeyword()
		if err != nil {
			return nil, err
		}
		st.Name = name
		if _, err := p.expect(tkKeyword, "ON"); err != nil {
			return nil, err
		}
		table, err := p.identOrKeyword()
		if err != nil {
			return nil, err
		}
		st.Table = table
		return st, nil
	default:
		return nil, p.errorf("expected TABLE or INDEX after DROP")
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	st := &InsertStmt{}
	table, err := p.identOrKeyword()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if p.accept(tkSymbol, "(") {
		for {
			col, err := p.identOrKeyword()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if p.at(tkKeyword, "SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel
		return st, nil
	}
	if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	st := &UpdateStmt{}
	table, err := p.identOrKeyword()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if _, err := p.expect(tkKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.identOrKeyword()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Column: col, Value: val})
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.accept(tkKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	table, err := p.identOrKeyword()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if p.accept(tkKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.accept(tkKeyword, "DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, ref)
		// Explicit JOIN chains.
		for p.at(tkKeyword, "JOIN") || p.at(tkKeyword, "INNER") {
			p.accept(tkKeyword, "INNER")
			if _, err := p.expect(tkKeyword, "JOIN"); err != nil {
				return nil, err
			}
			jref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			jref.On = on
			st.From = append(st.From, jref)
		}
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.accept(tkKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tkKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
		if p.accept(tkKeyword, "OFFSET") {
			m, err := p.parseIntLiteral()
			if err != nil {
				return nil, err
			}
			st.Offset = m
		}
	}
	return st, nil
}

func (p *parser) parseIntLiteral() (int, error) {
	t, err := p.expect(tkNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf("invalid integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tkSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// table.* form: identifier '.' '*'
	if p.peek().kind == tkIdent {
		save := p.pos
		name := p.next().text
		if p.accept(tkSymbol, ".") && p.accept(tkSymbol, "*") {
			return SelectItem{Star: true, StarTable: name}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tkKeyword, "AS") {
		alias, err := p.identOrKeyword()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tkIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.identOrKeyword()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name, Alias: name}
	if p.accept(tkKeyword, "AS") {
		alias, err := p.identOrKeyword()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tkIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr     := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | cmpExpr
//	cmpExpr  := addExpr ((=|!=|<|<=|>|>=|LIKE|CONTAINS) addExpr
//	          | IS [NOT] NULL | [NOT] IN (list))?
//	addExpr  := mulExpr ((+|-) mulExpr)*
//	mulExpr  := unary ((*|/|%) unary)*
//	unary    := - unary | primary
//	primary  := literal | ? | column | func(...) | CAST(e AS t) | (expr)
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tkKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tkSymbol {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: t.text, Left: left, Right: right}, nil
		}
	}
	if t.kind == tkKeyword {
		switch t.text {
		case "LIKE", "CONTAINS":
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: t.text, Left: left, Right: right}, nil
		case "IS":
			p.next()
			not := p.accept(tkKeyword, "NOT")
			if _, err := p.expect(tkKeyword, "NULL"); err != nil {
				return nil, err
			}
			return &IsNullExpr{X: left, Not: not}, nil
		case "NOT":
			// x NOT IN (...) / x NOT LIKE y / x NOT CONTAINS y
			save := p.pos
			p.next()
			switch {
			case p.accept(tkKeyword, "IN"):
				in, err := p.parseInList(left, true)
				if err != nil {
					return nil, err
				}
				return in, nil
			case p.accept(tkKeyword, "LIKE"):
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				return &UnaryExpr{Op: "NOT", X: &BinaryExpr{Op: "LIKE", Left: left, Right: right}}, nil
			case p.accept(tkKeyword, "CONTAINS"):
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				return &UnaryExpr{Op: "NOT", X: &BinaryExpr{Op: "CONTAINS", Left: left, Right: right}}, nil
			}
			p.pos = save
		case "IN":
			p.next()
			return p.parseInList(left, false)
		}
	}
	return left, nil
}

func (p *parser) parseInList(left Expr, not bool) (Expr, error) {
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	in := &InExpr{X: left, Not: not}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tkSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals.
		if lit, ok := x.(*Literal); ok {
			switch lit.Value.Kind {
			case rdb.KindInt:
				return &Literal{Value: rdb.NewInt(-lit.Value.Int)}, nil
			case rdb.KindFloat:
				return &Literal{Value: rdb.NewFloat(-lit.Value.Float)}, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", t.text)
			}
			return &Literal{Value: rdb.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.text)
		}
		return &Literal{Value: rdb.NewInt(n)}, nil
	case tkString:
		p.next()
		return &Literal{Value: rdb.NewText(t.text)}, nil
	case tkParam:
		p.next()
		e := &Param{Ordinal: p.numParams}
		p.numParams++
		return e, nil
	case tkSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Value: rdb.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: rdb.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: rdb.NewBool(false)}, nil
		case "CAST":
			p.next()
			if _, err := p.expect(tkSymbol, "("); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkKeyword, "AS"); err != nil {
				return nil, err
			}
			kind, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return &CastExpr{X: x, Type: kind}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			// Aggregate only when followed by '('; otherwise treat as column
			// name (the filter schema uses none of these, but be safe).
			if p.tokens[p.pos+1].kind == tkSymbol && p.tokens[p.pos+1].text == "(" {
				p.next()
				p.next() // (
				agg := &AggExpr{Name: t.text}
				if t.text == "COUNT" && p.accept(tkSymbol, "*") {
					agg.Star = true
				} else {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					agg.Arg = arg
				}
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				return agg, nil
			}
		}
	case tkIdent:
		p.next()
		name := t.text
		// Scalar function call.
		if p.at(tkSymbol, "(") {
			upper := strings.ToUpper(name)
			switch upper {
			case "LOWER", "UPPER", "LENGTH", "ABS", "COALESCE":
				p.next() // (
				fn := &FuncExpr{Name: upper}
				if !p.at(tkSymbol, ")") {
					for {
						arg, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						fn.Args = append(fn.Args, arg)
						if !p.accept(tkSymbol, ",") {
							break
						}
					}
				}
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				return fn, nil
			default:
				return nil, p.errorf("unknown function %q", name)
			}
		}
		// Qualified column reference.
		if p.accept(tkSymbol, ".") {
			col, err := p.identOrKeyword()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}
