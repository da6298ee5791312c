package sql

import "strings"

// AST node definitions. Expressions here are unresolved (names, not column
// ordinals); the analyzer lowers them onto the vectorized expression IR.

// Node is any AST node.
type Node interface{ sqlNode() }

// SelectStmt is a full SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil for SELECT without FROM
	Where    AstExpr
	GroupBy  []AstExpr
	Having   AstExpr
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
}

func (*SelectStmt) sqlNode() {}

// SelectItem is one projection with an optional alias; Star marks "*".
type SelectItem struct {
	Expr  AstExpr
	Alias string
	Star  bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr AstExpr
	Desc bool
}

// TableExpr is a FROM-clause term.
type TableExpr interface{ tableExpr() }

// TableName references a catalog table with an optional alias.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableExpr() {}

// Subquery is a parenthesized SELECT used as a table.
type Subquery struct {
	Stmt  *SelectStmt
	Alias string
}

func (*Subquery) tableExpr() {}

// JoinKind mirrors the engines' join types.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinLeftSemi
	JoinLeftAnti
	JoinCross
)

// JoinExpr combines two table expressions.
type JoinExpr struct {
	Kind  JoinKind
	Left  TableExpr
	Right TableExpr
	On    AstExpr // nil for CROSS (or comma joins; predicate in WHERE)
}

func (*JoinExpr) tableExpr() {}

// AstExpr is an unresolved scalar expression.
type AstExpr interface{ astExpr() }

// ColName is a possibly-qualified column reference.
type ColName struct {
	Table string // "" if unqualified
	Name  string
}

func (*ColName) astExpr() {}

// String renders the reference.
func (c *ColName) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// NumberLit is an unparsed numeric literal (typed by the analyzer).
type NumberLit struct {
	Text  string
	IsInt bool
}

func (*NumberLit) astExpr() {}

// StringLit is a string literal.
type StringLit struct{ Val string }

func (*StringLit) astExpr() {}

// BoolLit is TRUE/FALSE.
type BoolLit struct{ Val bool }

func (*BoolLit) astExpr() {}

// NullLit is NULL.
type NullLit struct{}

func (*NullLit) astExpr() {}

// DateLit is DATE 'YYYY-MM-DD'.
type DateLit struct{ Text string }

func (*DateLit) astExpr() {}

// IntervalLit is INTERVAL 'n' DAY|MONTH|YEAR (used in date arithmetic).
type IntervalLit struct {
	N    int64
	Unit string // DAY | MONTH | YEAR
}

func (*IntervalLit) astExpr() {}

// BinaryExpr covers arithmetic, comparison, AND/OR, and || (concat).
type BinaryExpr struct {
	Op    string
	Left  AstExpr
	Right AstExpr
}

func (*BinaryExpr) astExpr() {}

// UnaryExpr covers NOT and unary minus.
type UnaryExpr struct {
	Op    string
	Inner AstExpr
}

func (*UnaryExpr) astExpr() {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Inner  AstExpr
	Lo, Hi AstExpr
	Negate bool
}

func (*BetweenExpr) astExpr() {}

// InExpr is x [NOT] IN (literal list).
type InExpr struct {
	Inner  AstExpr
	List   []AstExpr
	Negate bool
}

func (*InExpr) astExpr() {}

// LikeExpr is x [NOT] LIKE 'pattern'.
type LikeExpr struct {
	Inner   AstExpr
	Pattern string
	Negate  bool
}

func (*LikeExpr) astExpr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Inner  AstExpr
	Negate bool
}

func (*IsNullExpr) astExpr() {}

// CaseExpr is CASE [WHEN cond THEN val]... [ELSE val] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  AstExpr
}

// CaseWhen is one branch.
type CaseWhen struct {
	Cond AstExpr
	Then AstExpr
}

func (*CaseExpr) astExpr() {}

// CastExpr is CAST(x AS TYPE).
type CastExpr struct {
	Inner    AstExpr
	TypeName string // e.g. "BIGINT", "DECIMAL(12,2)"
}

func (*CastExpr) astExpr() {}

// FuncCall is a named function or aggregate call.
type FuncCall struct {
	Name     string // upper-cased
	Args     []AstExpr
	Star     bool // COUNT(*)
	Distinct bool
}

func (*FuncCall) astExpr() {}

// rewriteAst is the one walk over an expression's shape: pre-order and in
// place. f sees each node and returns its replacement and whether to
// descend into the replacement's children. Literals, column names and the
// parameter markers (ParamLit, Placeholder) are leaves.
func rewriteAst(e AstExpr, f func(AstExpr) (AstExpr, bool)) AstExpr {
	if e == nil {
		return nil
	}
	e, descend := f(e)
	if !descend {
		return e
	}
	sub := func(x *AstExpr) { *x = rewriteAst(*x, f) }
	switch n := e.(type) {
	case *BinaryExpr:
		sub(&n.Left)
		sub(&n.Right)
	case *UnaryExpr:
		sub(&n.Inner)
	case *BetweenExpr:
		sub(&n.Inner)
		sub(&n.Lo)
		sub(&n.Hi)
	case *InExpr:
		sub(&n.Inner)
		for i := range n.List {
			sub(&n.List[i])
		}
	case *LikeExpr:
		sub(&n.Inner)
	case *IsNullExpr:
		sub(&n.Inner)
	case *CaseExpr:
		for i := range n.Whens {
			sub(&n.Whens[i].Cond)
			sub(&n.Whens[i].Then)
		}
		sub(&n.Else)
	case *CastExpr:
		sub(&n.Inner)
	case *FuncCall:
		for i := range n.Args {
			sub(&n.Args[i])
		}
	}
	return e
}

// rewriteStmt applies rewriteAst to every expression of s and of its FROM
// subqueries, in NormalizeStmt's order: select items, FROM (subqueries and
// ON conditions), WHERE, GROUP BY, HAVING, ORDER BY. With keys false it
// skips GROUP BY and ORDER BY.
func rewriteStmt(s *SelectStmt, keys bool, f func(AstExpr) (AstExpr, bool)) {
	each := func(e *AstExpr) { *e = rewriteAst(*e, f) }
	for i := range s.Items {
		each(&s.Items[i].Expr)
	}
	var table func(TableExpr)
	table = func(t TableExpr) {
		switch n := t.(type) {
		case *Subquery:
			rewriteStmt(n.Stmt, keys, f)
		case *JoinExpr:
			table(n.Left)
			table(n.Right)
			each(&n.On)
		}
	}
	table(s.From)
	each(&s.Where)
	if keys {
		for i := range s.GroupBy {
			each(&s.GroupBy[i])
		}
	}
	each(&s.Having)
	if keys {
		for i := range s.OrderBy {
			each(&s.OrderBy[i].Expr)
		}
	}
}

// render helps error messages.
func renderAst(e AstExpr) string {
	switch n := e.(type) {
	case *ColName:
		return n.String()
	case *NumberLit:
		return n.Text
	case *StringLit:
		return "'" + n.Val + "'"
	case *FuncCall:
		return strings.ToLower(n.Name) + "(...)"
	default:
		return "expr"
	}
}
