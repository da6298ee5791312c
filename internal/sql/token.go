// Package sql implements the SQL front end: lexer, parser, AST, analyzer
// (name resolution against a catalog), and the logical plan the Catalyst-
// style optimizer consumes. The dialect covers the analytical subset the
// paper's workloads need: SELECT with expressions and aliases, FROM with
// joins and subqueries, WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, CASE, CAST,
// BETWEEN, IN, LIKE, EXISTS-free decorrelated forms, and the usual scalar
// and aggregate functions.
package sql

import (
	"fmt"
	"strings"
)

// TokKind classifies lexer tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp // punctuation and operators
)

// Token is one lexeme.
type Token struct {
	Kind TokKind
	Text string // keywords upper-cased; idents original case
	Pos  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "<eof>"
	}
	return t.Text
}

// keywords recognized by the lexer.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "LIKE": true, "BETWEEN": true,
	"IS": true, "NULL": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CAST": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "OUTER": true, "SEMI": true, "ANTI": true,
	"ON": true, "ASC": true, "DESC": true, "DISTINCT": true, "TRUE": true,
	"FALSE": true, "INTERVAL": true, "DATE": true, "ALL": true, "UNION": true,
	"EXISTS": true, "EXTRACT": true, "CROSS": true, "USING": true,
}

// Lexer splits SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer wraps src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return Token{Kind: TokEOF, Pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		up := strings.ToUpper(text)
		if keywords[up] {
			return Token{Kind: TokKeyword, Text: up, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if d == '.' {
				if seenDot {
					break
				}
				seenDot = true
				l.pos++
				continue
			}
			if d < '0' || d > '9' {
				break
			}
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if d == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(d)
			l.pos++
		}
		return Token{}, fmt.Errorf("sql: unterminated string at %d", start)
	default:
		for _, op := range []string{"<=", ">=", "<>", "!=", "||"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				return Token{Kind: TokOp, Text: op, Pos: start}, nil
			}
		}
		switch c {
		case '(', ')', ',', '+', '-', '*', '/', '%', '<', '>', '=', ';', '.', '?':
			l.pos++
			return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// LexAll tokenizes the whole input (parser convenience).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
