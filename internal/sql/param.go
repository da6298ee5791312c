package sql

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"photon/internal/expr"
	"photon/internal/types"
)

// Plan-cache parameterization: after parsing, Parameterize rewrites the
// eligible literals of a statement into ParamLit wrappers so that queries
// differing only in literal values normalize to one cache key and compile
// to one shared plan. The analyzer converts a ParamLit exactly like its
// wrapped literal but tags the resulting expr.Literal with the parameter
// slot; the rebind pass (rebind.go) later substitutes fresh values by slot.

// ParamLit wraps a literal extracted as a plan-cache parameter. Inner is
// the original literal AST (*NumberLit, *StringLit, or *DateLit), so
// analysis and optimization see exactly the value the query carried.
type ParamLit struct {
	Slot  int // 0-based parameter slot
	Inner AstExpr
}

func (*ParamLit) astExpr() {}

// Placeholder is a `?` parameter marker from a prepared statement. It is
// only valid when executed through PreparedStatement.Execute, which
// substitutes argument literals before analysis.
type Placeholder struct {
	Idx int // 0-based argument position
}

func (*Placeholder) astExpr() {}

// Parameterize extracts cache parameters from stmt in place and returns
// the raw literal AST per slot. Literals are NOT extracted where the
// analyzer consumes the value (not just the type) structurally:
//
//   - ORDER BY and GROUP BY items (ordinal resolution, structural matching
//     against select items);
//   - direct literal arguments of function calls (SUBSTRING's start/length
//     must be integer literals);
//   - literals under unary minus (folded into one negative literal);
//   - operands of +/- whose sibling is an INTERVAL (date folding);
//   - BOOLEAN/NULL literals and INTERVAL literals.
//
// Excluded literals stay verbatim in the AST and render verbatim into the
// normalized cache key, so queries differing in an excluded literal map to
// distinct entries.
func Parameterize(stmt *SelectStmt) []AstExpr {
	var raws []AstExpr
	var param func(AstExpr) (AstExpr, bool)
	param = func(e AstExpr) (AstExpr, bool) {
		switch n := e.(type) {
		case *NumberLit, *StringLit, *DateLit:
			raws = append(raws, n)
			return &ParamLit{Slot: len(raws) - 1, Inner: n}, false
		case *UnaryExpr:
			// -5 folds into a single negative literal at analysis; keep the
			// number verbatim. NOT recurses normally.
			_, isNum := n.Inner.(*NumberLit)
			return n, n.Op != "-" || !isNum
		case *BinaryExpr:
			// date ± INTERVAL folds at analysis time when the date side is
			// a literal; keep both operands verbatim.
			_, lIv := n.Left.(*IntervalLit)
			_, rIv := n.Right.(*IntervalLit)
			return n, !((n.Op == "+" || n.Op == "-") && (lIv || rIv))
		case *FuncCall:
			// Direct literal arguments stay verbatim (SUBSTRING requires raw
			// integer literals; COALESCE/CONCAT literal adaptation is
			// type-derivation-sensitive). Nested expressions recurse.
			for i, a := range n.Args {
				switch a.(type) {
				case *NumberLit, *StringLit, *DateLit:
				default:
					n.Args[i] = rewriteAst(a, param)
				}
			}
			return n, false
		}
		// Everything else descends. A LIKE pattern is a plain string field
		// (compiled at analysis), so only the tested expression is walked.
		return e, true
	}
	// GROUP BY and ORDER BY items are excluded wholesale: the analyzer
	// resolves ORDER BY integer literals as output ordinals and matches
	// select items against GROUP BY expressions structurally.
	rewriteStmt(stmt, false, param)
	return raws
}

// SubstituteArgs replaces every Placeholder in stmt (in place) with a
// literal AST node built from the corresponding Go argument. Supported
// argument types: integers, float64, string, bool, and nil; pass decimals
// as float64 or embed them in the SQL text.
func SubstituteArgs(stmt *SelectStmt, args []any) error {
	seen := 0
	var err error
	rewriteStmt(stmt, true, func(e AstExpr) (AstExpr, bool) {
		ph, ok := e.(*Placeholder)
		if !ok {
			return e, true
		}
		seen++
		if ph.Idx >= len(args) {
			err = cmp.Or(err, fmt.Errorf("sql: missing argument for placeholder %d", ph.Idx+1))
			return e, false
		}
		lit, aerr := argLiteral(args[ph.Idx])
		if aerr != nil {
			err = cmp.Or(err, aerr)
			return e, false
		}
		return lit, false
	})
	if err == nil && seen != len(args) {
		return fmt.Errorf("sql: statement has %d placeholders, got %d arguments", seen, len(args))
	}
	return err
}

// CountPlaceholders reports the number of `?` markers in stmt.
func CountPlaceholders(stmt *SelectStmt) int {
	n := 0
	rewriteStmt(stmt, true, func(e AstExpr) (AstExpr, bool) {
		if _, ok := e.(*Placeholder); ok {
			n++
		}
		return e, true
	})
	return n
}

// argLiteral lowers a Go value to a literal AST node.
func argLiteral(v any) (AstExpr, error) {
	switch x := v.(type) {
	case nil:
		return &NullLit{}, nil
	case bool:
		return &BoolLit{Val: x}, nil
	case int:
		return &NumberLit{Text: strconv.FormatInt(int64(x), 10), IsInt: true}, nil
	case int32:
		return &NumberLit{Text: strconv.FormatInt(int64(x), 10), IsInt: true}, nil
	case int64:
		return &NumberLit{Text: strconv.FormatInt(x, 10), IsInt: true}, nil
	case float64:
		t := strconv.FormatFloat(x, 'f', -1, 64)
		if !strings.Contains(t, ".") {
			t += ".0"
		}
		return &NumberLit{Text: t, IsInt: false}, nil
	case string:
		return &StringLit{Val: x}, nil
	}
	return nil, fmt.Errorf("sql: unsupported argument type %T", v)
}

// SelfLiteral converts a raw literal AST node to its self-derived typed
// literal — the same typing rule analysis applies before any adaptation
// (integers → BIGINT, decimals → DECIMAL(precision, scale) from the digit
// text, DATE 'x' parsed to days).
func SelfLiteral(raw AstExpr) (*expr.Literal, error) {
	switch n := raw.(type) {
	case *NumberLit:
		e, err := numberLit(n)
		if err != nil {
			return nil, err
		}
		return e.(*expr.Literal), nil
	case *StringLit:
		return expr.StringLit(n.Val), nil
	case *DateLit:
		d, err := types.ParseDate(n.Text)
		if err != nil {
			return nil, err
		}
		return expr.DateLit(d), nil
	}
	return nil, fmt.Errorf("sql: %s is not a bindable literal", renderAst(raw))
}

// BindParam converts a raw literal for an execution against a compiled
// plan: the raw value must self-type exactly as the compile-time value did
// (so every downstream type derivation in the cached plan is reproduced),
// then adapts to the compiled literal's final type. A false return means
// the value does not fit the compiled shape and the caller must recompile.
func BindParam(raw AstExpr, self, target types.DataType) (*expr.Literal, bool) {
	lit, err := SelfLiteral(raw)
	if err != nil || !lit.T.Equal(self) {
		return nil, false
	}
	adapted, ok := adaptLiteral(lit, target)
	if !ok {
		return nil, false
	}
	return adapted, true
}

// NormalizeStmt renders a parameterized statement to its canonical cache
// key: parameters as '?', everything else (including excluded literals)
// verbatim in a fixed grammar. One walk produces both the key and the
// parameter slots in order, so two queries with equal keys always agree on
// slot positions.
func NormalizeStmt(stmt *SelectStmt) (string, error) {
	r := &normRenderer{}
	r.selectStmt(stmt)
	if r.err != nil {
		return "", r.err
	}
	return r.sb.String(), nil
}

type normRenderer struct {
	sb  strings.Builder
	err error
}

func (r *normRenderer) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *normRenderer) selectStmt(s *SelectStmt) {
	r.sb.WriteString("SELECT ")
	if s.Distinct {
		r.sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			r.sb.WriteString(", ")
		}
		if it.Star {
			r.sb.WriteByte('*')
			continue
		}
		r.expr(it.Expr)
		if it.Alias != "" {
			// Aliases and column names keep their case: a result column
			// is named as the query spells it.
			r.sb.WriteString(" AS ")
			r.sb.WriteString(it.Alias)
		}
	}
	if s.From != nil {
		r.sb.WriteString(" FROM ")
		r.table(s.From)
	}
	if s.Where != nil {
		r.sb.WriteString(" WHERE ")
		r.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		r.sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				r.sb.WriteString(", ")
			}
			r.expr(g)
		}
	}
	if s.Having != nil {
		r.sb.WriteString(" HAVING ")
		r.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		r.sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				r.sb.WriteString(", ")
			}
			r.expr(o.Expr)
			if o.Desc {
				r.sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&r.sb, " LIMIT %d", s.Limit)
	}
}

func (r *normRenderer) table(t TableExpr) {
	switch n := t.(type) {
	case *TableName:
		r.sb.WriteString(strings.ToLower(n.Name))
		if n.Alias != "" {
			r.sb.WriteString(" AS ")
			r.sb.WriteString(strings.ToLower(n.Alias))
		}
	case *Subquery:
		r.sb.WriteByte('(')
		r.selectStmt(n.Stmt)
		r.sb.WriteByte(')')
		if n.Alias != "" {
			r.sb.WriteString(" AS ")
			r.sb.WriteString(strings.ToLower(n.Alias))
		}
	case *JoinExpr:
		r.table(n.Left)
		switch n.Kind {
		case JoinInner:
			r.sb.WriteString(" JOIN ")
		case JoinLeftOuter:
			r.sb.WriteString(" LEFT JOIN ")
		case JoinLeftSemi:
			r.sb.WriteString(" SEMI JOIN ")
		case JoinLeftAnti:
			r.sb.WriteString(" ANTI JOIN ")
		case JoinCross:
			r.sb.WriteString(" CROSS JOIN ")
		}
		r.table(n.Right)
		if n.On != nil {
			r.sb.WriteString(" ON ")
			r.expr(n.On)
		}
	default:
		r.fail("sql: normalize: unsupported table expression %T", t)
	}
}

func (r *normRenderer) expr(e AstExpr) {
	switch n := e.(type) {
	case *ParamLit:
		r.sb.WriteByte('?')
	case *Placeholder:
		// An unsubstituted placeholder cannot be planned; refuse the key so
		// the caller surfaces the analysis error instead of caching it.
		r.fail("sql: normalize: unsubstituted placeholder")
	case *ColName:
		if n.Table != "" {
			r.sb.WriteString(strings.ToLower(n.Table))
			r.sb.WriteByte('.')
		}
		r.sb.WriteString(n.Name)
	case *NumberLit:
		r.sb.WriteString(n.Text)
	case *StringLit:
		fmt.Fprintf(&r.sb, "%q", n.Val)
	case *BoolLit:
		if n.Val {
			r.sb.WriteString("TRUE")
		} else {
			r.sb.WriteString("FALSE")
		}
	case *NullLit:
		r.sb.WriteString("NULL")
	case *DateLit:
		fmt.Fprintf(&r.sb, "DATE %q", n.Text)
	case *IntervalLit:
		fmt.Fprintf(&r.sb, "INTERVAL '%d' %s", n.N, n.Unit)
	case *BinaryExpr:
		r.sb.WriteByte('(')
		r.expr(n.Left)
		r.sb.WriteByte(' ')
		r.sb.WriteString(n.Op)
		r.sb.WriteByte(' ')
		r.expr(n.Right)
		r.sb.WriteByte(')')
	case *UnaryExpr:
		r.sb.WriteByte('(')
		r.sb.WriteString(n.Op)
		r.sb.WriteByte(' ')
		r.expr(n.Inner)
		r.sb.WriteByte(')')
	case *BetweenExpr:
		r.sb.WriteByte('(')
		r.expr(n.Inner)
		if n.Negate {
			r.sb.WriteString(" NOT")
		}
		r.sb.WriteString(" BETWEEN ")
		r.expr(n.Lo)
		r.sb.WriteString(" AND ")
		r.expr(n.Hi)
		r.sb.WriteByte(')')
	case *InExpr:
		r.sb.WriteByte('(')
		r.expr(n.Inner)
		if n.Negate {
			r.sb.WriteString(" NOT")
		}
		r.sb.WriteString(" IN (")
		for i, item := range n.List {
			if i > 0 {
				r.sb.WriteString(", ")
			}
			r.expr(item)
		}
		r.sb.WriteString("))")
	case *LikeExpr:
		r.sb.WriteByte('(')
		r.expr(n.Inner)
		if n.Negate {
			r.sb.WriteString(" NOT")
		}
		fmt.Fprintf(&r.sb, " LIKE %q)", n.Pattern)
	case *IsNullExpr:
		r.sb.WriteByte('(')
		r.expr(n.Inner)
		r.sb.WriteString(" IS ")
		if n.Negate {
			r.sb.WriteString("NOT ")
		}
		r.sb.WriteString("NULL)")
	case *CaseExpr:
		r.sb.WriteString("CASE")
		for _, w := range n.Whens {
			r.sb.WriteString(" WHEN ")
			r.expr(w.Cond)
			r.sb.WriteString(" THEN ")
			r.expr(w.Then)
		}
		if n.Else != nil {
			r.sb.WriteString(" ELSE ")
			r.expr(n.Else)
		}
		r.sb.WriteString(" END")
	case *CastExpr:
		r.sb.WriteString("CAST(")
		r.expr(n.Inner)
		r.sb.WriteString(" AS ")
		r.sb.WriteString(strings.ToUpper(n.TypeName))
		r.sb.WriteByte(')')
	case *FuncCall:
		r.sb.WriteString(n.Name)
		r.sb.WriteByte('(')
		if n.Distinct {
			r.sb.WriteString("DISTINCT ")
		}
		if n.Star {
			r.sb.WriteByte('*')
		}
		for i, a := range n.Args {
			if i > 0 {
				r.sb.WriteString(", ")
			}
			r.expr(a)
		}
		r.sb.WriteByte(')')
	default:
		r.fail("sql: normalize: unsupported expression %T", e)
	}
}
