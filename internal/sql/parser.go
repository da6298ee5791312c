package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks   []Token
	pos    int
	params int // number of '?' placeholders seen, in reading order
}

// Parse parses one SELECT statement.
func Parse(src string) (*SelectStmt, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: trailing input at %q", p.peek())
	}
	return stmt, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

// next consumes a token; at the end it returns EOF again instead of
// running past it.
func (p *Parser) next() Token {
	t := p.peek()
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// accept consumes the token if it matches.
func (p *Parser) accept(kind TokKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return true
	}
	return false
}

// acceptKw consumes a keyword if present.
func (p *Parser) acceptKw(kw string) bool { return p.accept(TokKeyword, kw) }

// expect consumes a required token.
func (p *Parser) expect(kind TokKind, text string) error {
	if !p.accept(kind, text) {
		return fmt.Errorf("sql: expected %q, found %q at offset %d", text, p.peek(), p.peek().Pos)
	}
	return nil
}

func (p *Parser) expectKw(kw string) error { return p.expect(TokKeyword, kw) }

// parseSelect parses SELECT ... [FROM ...] [WHERE] [GROUP BY] [HAVING]
// [ORDER BY] [LIMIT].
func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.acceptKw("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		stmt.From = from
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.next()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("sql: LIMIT requires a number, found %q", t)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		t := p.next()
		if t.Kind != TokIdent && t.Kind != TokKeyword {
			return SelectItem{}, fmt.Errorf("sql: expected alias, found %q", t)
		}
		item.Alias = t.Text
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseFrom parses a comma/JOIN table expression tree.
func (p *Parser) parseFrom() (TableExpr, error) {
	left, err := p.parseJoinTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, ","):
			right, err := p.parseJoinTerm()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Kind: JoinCross, Left: left, Right: right}
		default:
			kind, isJoin, err := p.parseJoinKind()
			if err != nil {
				return nil, err
			}
			if !isJoin {
				return left, nil
			}
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			var on AstExpr
			if kind != JoinCross {
				if err := p.expectKw("ON"); err != nil {
					return nil, err
				}
				on, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			left = &JoinExpr{Kind: kind, Left: left, Right: right, On: on}
		}
	}
}

// parseJoinKind consumes [INNER|LEFT [OUTER|SEMI|ANTI]|CROSS] JOIN.
func (p *Parser) parseJoinKind() (JoinKind, bool, error) {
	switch {
	case p.acceptKw("JOIN"):
		return JoinInner, true, nil
	case p.acceptKw("INNER"):
		return JoinInner, true, p.expectKw("JOIN")
	case p.acceptKw("CROSS"):
		return JoinCross, true, p.expectKw("JOIN")
	case p.acceptKw("LEFT"):
		kind := JoinLeftOuter
		switch {
		case p.acceptKw("OUTER"):
		case p.acceptKw("SEMI"):
			kind = JoinLeftSemi
		case p.acceptKw("ANTI"):
			kind = JoinLeftAnti
		}
		return kind, true, p.expectKw("JOIN")
	}
	return 0, false, nil
}

// parseJoinTerm parses one comma-operand (which may itself contain JOINs).
func (p *Parser) parseJoinTerm() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind, isJoin, err := p.parseJoinKind()
		if err != nil {
			return nil, err
		}
		if !isJoin {
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		var on AstExpr
		if kind != JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		left = &JoinExpr{Kind: kind, Left: left, Right: right, On: on}
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.accept(TokOp, "(") {
		stmt, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		sub := &Subquery{Stmt: stmt}
		p.acceptKw("AS")
		if p.peek().Kind == TokIdent {
			sub.Alias = p.next().Text
		}
		return sub, nil
	}
	t := p.next()
	if t.Kind != TokIdent {
		return nil, fmt.Errorf("sql: expected table name, found %q", t)
	}
	tn := &TableName{Name: t.Text}
	if p.acceptKw("AS") {
		a := p.next()
		if a.Kind != TokIdent {
			return nil, fmt.Errorf("sql: expected alias, found %q", a)
		}
		tn.Alias = a.Text
	} else if p.peek().Kind == TokIdent {
		tn.Alias = p.next().Text
	}
	return tn, nil
}

// Expression grammar (loosest to tightest): OR, AND, NOT, predicates
// (comparison/BETWEEN/IN/LIKE/IS), additive, multiplicative, unary,
// primary.

func (p *Parser) parseExpr() (AstExpr, error) { return p.parseOr() }

func (p *Parser) parseOr() (AstExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (AstExpr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (AstExpr, error) {
	if p.acceptKw("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Inner: inner}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (AstExpr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := p.acceptKw("NOT")
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Inner: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.acceptKw("IN"):
		if err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var list []AstExpr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return &InExpr{Inner: left, List: list, Negate: negate}, nil
	case p.acceptKw("LIKE"):
		t := p.next()
		if t.Kind != TokString {
			return nil, fmt.Errorf("sql: LIKE requires a string pattern, found %q", t)
		}
		return &LikeExpr{Inner: left, Pattern: t.Text, Negate: negate}, nil
	case p.acceptKw("IS"):
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Inner: left, Negate: neg}, nil
	}
	if negate {
		return nil, fmt.Errorf("sql: NOT must precede BETWEEN/IN/LIKE at %q", p.peek())
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.accept(TokOp, op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (AstExpr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, "+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "+", Left: left, Right: right}
		case p.accept(TokOp, "-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "-", Left: left, Right: right}
		case p.accept(TokOp, "||"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "||", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (AstExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, "*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "*", Left: left, Right: right}
		case p.accept(TokOp, "/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "/", Left: left, Right: right}
		case p.accept(TokOp, "%"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "%", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseUnary() (AstExpr, error) {
	if p.accept(TokOp, "-") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Inner: inner}, nil
	}
	if p.accept(TokOp, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (AstExpr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.next()
		return &NumberLit{Text: t.Text, IsInt: !strings.Contains(t.Text, ".")}, nil
	case t.Kind == TokString:
		p.next()
		return &StringLit{Val: t.Text}, nil
	case t.Kind == TokOp && t.Text == "?":
		p.next()
		ph := &Placeholder{Idx: p.params}
		p.params++
		return ph, nil
	case t.Kind == TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &BoolLit{Val: true}, nil
		case "FALSE":
			p.next()
			return &BoolLit{Val: false}, nil
		case "NULL":
			p.next()
			return &NullLit{}, nil
		case "DATE":
			p.next()
			s := p.next()
			if s.Kind != TokString {
				return nil, fmt.Errorf("sql: DATE requires a string literal")
			}
			return &DateLit{Text: s.Text}, nil
		case "INTERVAL":
			p.next()
			s := p.next()
			if s.Kind != TokString {
				return nil, fmt.Errorf("sql: INTERVAL requires a quoted count")
			}
			n, err := strconv.ParseInt(strings.TrimSpace(s.Text), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad INTERVAL count %q", s.Text)
			}
			u := p.next()
			if u.Kind != TokKeyword && u.Kind != TokIdent {
				return nil, fmt.Errorf("sql: INTERVAL requires a unit")
			}
			return &IntervalLit{N: n, Unit: strings.ToUpper(u.Text)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.next()
			if err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			typeName, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &CastExpr{Inner: inner, TypeName: typeName}, nil
		case "EXTRACT":
			p.next()
			if err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			field := p.next()
			if err := p.expectKw("FROM"); err != nil {
				return nil, err
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: strings.ToUpper(field.Text), Args: []AstExpr{inner}}, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %q in expression", t.Text)
	case t.Kind == TokIdent:
		p.next()
		// Qualified name or function call.
		if p.accept(TokOp, ".") {
			col := p.next()
			if col.Kind != TokIdent && col.Kind != TokKeyword {
				return nil, fmt.Errorf("sql: expected column after %q.", t.Text)
			}
			return &ColName{Table: t.Text, Name: col.Text}, nil
		}
		if p.peek().Kind == TokOp && p.peek().Text == "(" {
			return p.parseCallArgs(strings.ToUpper(t.Text))
		}
		return &ColName{Name: t.Text}, nil
	case t.Kind == TokOp && t.Text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(TokOp, ")")
	}
	return nil, fmt.Errorf("sql: unexpected token %q at offset %d", t, t.Pos)
}

// parseCallArgs parses "(args)" for a named function.
func (p *Parser) parseCallArgs(name string) (AstExpr, error) {
	if err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: name}
	if p.accept(TokOp, "*") {
		call.Star = true
		return call, p.expect(TokOp, ")")
	}
	if p.acceptKw("DISTINCT") {
		call.Distinct = true
	}
	if !p.accept(TokOp, ")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
	}
	return call, nil
}

func (p *Parser) parseCase() (AstExpr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: val})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	return c, p.expectKw("END")
}

// parseTypeName parses a type like BIGINT or DECIMAL(12,2).
func (p *Parser) parseTypeName() (string, error) {
	t := p.next()
	if t.Kind != TokIdent && t.Kind != TokKeyword {
		return "", fmt.Errorf("sql: expected type name, found %q", t)
	}
	name := strings.ToUpper(t.Text)
	if p.accept(TokOp, "(") {
		var parts []string
		for {
			n := p.next()
			if n.Kind != TokNumber {
				return "", fmt.Errorf("sql: expected type parameter, found %q", n)
			}
			parts = append(parts, n.Text)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if err := p.expect(TokOp, ")"); err != nil {
			return "", err
		}
		name += "(" + strings.Join(parts, ",") + ")"
	}
	return name, nil
}
