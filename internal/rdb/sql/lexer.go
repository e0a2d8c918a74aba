// Package sql implements a SQL subset on top of the rdb engine: DDL
// (CREATE/DROP TABLE, CREATE/DROP INDEX), DML (INSERT, UPDATE, DELETE,
// INSERT ... SELECT), queries (SELECT with multi-way joins, WHERE,
// GROUP BY with aggregates, HAVING, ORDER BY, DISTINCT, LIMIT/OFFSET), and
// EXPLAIN of a SELECT, UPDATE or DELETE.
//
// The dialect includes a CONTAINS operator (substring match) because the MDV
// rule language exposes it, and CAST, which the filter algorithm uses to
// reconvert numeric constants stored as strings in the FilterRulesOP tables
// (paper §3.3.4).
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkParam  // ?
	tkSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers as written
	pos  int    // byte offset in the input, for error messages
}

// keywords recognized by the lexer. Identifiers matching these
// (case-insensitively) become tkKeyword tokens with upper-cased text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true, "INDEX": true,
	"DROP": true, "ON": true, "AS": true, "DISTINCT": true, "GROUP": true,
	"BY": true, "HAVING": true, "ORDER": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "JOIN": true, "INNER": true, "PRIMARY": true,
	"KEY": true, "UNIQUE": true, "NULL": true, "TRUE": true, "FALSE": true,
	"IS": true, "IN": true, "LIKE": true, "CONTAINS": true, "CAST": true,
	"USING": true, "HASH": true, "BTREE": true, "IF": true, "EXISTS": true,
	"INT": true, "INTEGER": true, "FLOAT": true, "REAL": true, "DOUBLE": true,
	"TEXT": true, "VARCHAR": true, "STRING": true, "BOOL": true, "BOOLEAN": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"EXPLAIN": true,
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex tokenizes the whole input up front; the parser then walks the slice.
func lex(src string) ([]token, error) {
	lx := &lexer{src: src}
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		lx.tokens = append(lx.tokens, tok)
		if tok.kind == tkEOF {
			return lx.tokens, nil
		}
	}
}

func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token{kind: tkEOF, pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch {
	case c == '?':
		lx.pos++
		return token{kind: tkParam, text: "?", pos: start}, nil
	case c == '\'':
		return lx.lexString()
	case isDigit(c) || (c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1])):
		return lx.lexNumber()
	case isIdentStart(c):
		return lx.lexIdent()
	default:
		return lx.lexSymbol()
	}
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		if c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-' {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
			continue
		}
		break
	}
}

func (lx *lexer) lexString() (token, error) {
	start := lx.pos
	lx.pos++ // opening quote
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '\'' {
			// '' is an escaped quote.
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
				sb.WriteByte('\'')
				lx.pos += 2
				continue
			}
			lx.pos++
			return token{kind: tkString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		lx.pos++
	}
	return token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

func (lx *lexer) lexNumber() (token, error) {
	start := lx.pos
	seenDot, seenExp := false, false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case isDigit(c):
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp && lx.pos > start:
			seenExp = true
			lx.pos++
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.pos++
			}
		default:
			return token{kind: tkNumber, text: lx.src[start:lx.pos], pos: start}, nil
		}
	}
	return token{kind: tkNumber, text: lx.src[start:lx.pos], pos: start}, nil
}

func (lx *lexer) lexIdent() (token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
		lx.pos++
	}
	text := lx.src[start:lx.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		return token{kind: tkKeyword, text: upper, pos: start}, nil
	}
	return token{kind: tkIdent, text: text, pos: start}, nil
}

func (lx *lexer) lexSymbol() (token, error) {
	start := lx.pos
	two := ""
	if lx.pos+1 < len(lx.src) {
		two = lx.src[lx.pos : lx.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>", "==":
		lx.pos += 2
		text := two
		if text == "<>" {
			text = "!="
		}
		if text == "==" {
			text = "="
		}
		return token{kind: tkSymbol, text: text, pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', ',', '.', '*', '=', '<', '>', '+', '-', '/', '%', ';':
		lx.pos++
		return token{kind: tkSymbol, text: string(c), pos: start}, nil
	}
	r := rune(c)
	if r > unicode.MaxASCII {
		return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c == '#' || isAlpha(c) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
func isAlpha(c byte) bool      { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
