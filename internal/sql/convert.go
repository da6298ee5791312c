package sql

import (
	"fmt"
	"strconv"
	"strings"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/types"
)

// convertScalar lowers an AST expression to the vectorized expression IR.
func (a *analyzer) convertScalar(e AstExpr, c exprConverter) (expr.Expr, error) {
	switch n := e.(type) {
	case *ColName:
		return c.resolveCol(n.Table, n.Name)
	case *NumberLit:
		return numberLit(n)
	case *StringLit:
		return expr.StringLit(n.Val), nil
	case *BoolLit:
		return expr.BoolLit(n.Val), nil
	case *NullLit:
		return expr.NullLit(types.StringType), nil
	case *DateLit:
		d, err := types.ParseDate(n.Text)
		if err != nil {
			return nil, err
		}
		return expr.DateLit(d), nil
	case *ParamLit:
		inner, err := a.convertScalar(n.Inner, c)
		if err != nil {
			return nil, err
		}
		lit, ok := inner.(*expr.Literal)
		if !ok {
			return nil, fmt.Errorf("sql: parameter %d is not a literal", n.Slot+1)
		}
		tagged := *lit
		tagged.Param = n.Slot + 1
		return &tagged, nil
	case *Placeholder:
		return nil, fmt.Errorf("sql: placeholder '?' requires Prepare/Execute with arguments")
	case *UnaryExpr:
		if n.Op != "-" {
			return nil, fmt.Errorf("sql: unary %q is not a scalar expression", n.Op)
		}
		if num, ok := n.Inner.(*NumberLit); ok {
			return numberLit(&NumberLit{Text: "-" + num.Text, IsInt: num.IsInt})
		}
		return operators["unary -"].call(&FuncCall{Name: "unary -", Args: []AstExpr{n.Inner}}, c)
	case *BinaryExpr:
		switch n.Op {
		case "||":
			return a.convertFunc(concatCall(n.Left, n.Right), c)
		case "AND", "OR":
			return nil, fmt.Errorf("sql: boolean %s is only supported in predicates", n.Op)
		}
		return convertOp(n, c)
	case *CaseExpr:
		branches := make([]expr.CaseBranch, len(n.Whens))
		vals := make([]expr.Expr, len(n.Whens), len(n.Whens)+1)
		for i, w := range n.Whens {
			cond, err := a.convertPred(w.Cond, c)
			if err != nil {
				return nil, err
			}
			branches[i].When = cond
			if vals[i], err = c.convertChild(w.Then); err != nil {
				return nil, err
			}
		}
		if n.Else != nil {
			els, err := c.convertChild(n.Else)
			if err != nil {
				return nil, err
			}
			vals = append(vals, els)
		}
		vals, err := align(vals)
		if err != nil {
			return nil, err
		}
		for i := range branches {
			branches[i].Then = vals[i]
		}
		var els expr.Expr
		if n.Else != nil {
			els = vals[len(branches)]
		}
		return expr.NewCase(branches, els)
	case *CastExpr:
		inner, err := c.convertChild(n.Inner)
		if err != nil {
			return nil, err
		}
		t, err := parseTypeName(n.TypeName)
		if err != nil {
			return nil, err
		}
		return castTo(inner, t)
	case *FuncCall:
		return a.convertFunc(n, c)
	case *IsNullExpr:
		inner, err := c.convertChild(n.Inner)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Inner: inner, Negate: n.Negate}, nil
	case *IntervalLit:
		return nil, fmt.Errorf("sql: INTERVAL is only valid in date arithmetic")
	}
	return nil, fmt.Errorf("sql: unsupported scalar expression %s", renderAst(e))
}

// numberLit types a numeric literal: integers as BIGINT, decimals as
// DECIMAL(precision, scale) from the literal's digits.
func numberLit(n *NumberLit) (expr.Expr, error) {
	if n.IsInt {
		v, err := strconv.ParseInt(n.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad integer literal %q", n.Text)
		}
		return expr.Int64Lit(v), nil
	}
	text := strings.TrimPrefix(n.Text, "-")
	_, frac, _ := strings.Cut(text, ".")
	scale := len(frac)
	prec := len(strings.ReplaceAll(text, ".", ""))
	d, err := types.ParseDecimal(n.Text, scale)
	if err != nil {
		return nil, err
	}
	return expr.Lit(d, types.DecimalType(max(prec, 1), scale)), nil
}

// convertOp lowers an arithmetic operator, a comparison or date ±
// INTERVAL through its entry of operators. A date literal ± INTERVAL folds
// at analysis time, in any unit; any other date ± INTERVAL n DAY is the
// entry "INTERVAL" with the signed day count as its integer argument.
func convertOp(n *BinaryExpr, c exprConverter) (expr.Expr, error) {
	key, call := n.Op, &FuncCall{Name: n.Op, Args: []AstExpr{n.Left, n.Right}}
	if iv, ok := n.Right.(*IntervalLit); ok && (n.Op == "+" || n.Op == "-") {
		days := iv.N
		if n.Op == "-" {
			days = -days
		}
		if dl, ok := n.Left.(*DateLit); ok {
			d, err := types.ParseDate(dl.Text)
			if err != nil {
				return nil, err
			}
			return expr.DateLit(shiftDate(d, days, iv.Unit)), nil
		}
		if iv.Unit != "DAY" {
			return nil, fmt.Errorf("sql: non-constant date %s INTERVAL %s is not supported", n.Op, iv.Unit)
		}
		key, call.Name = "INTERVAL", n.Op+" INTERVAL"
		call.Args[1] = &NumberLit{Text: strconv.FormatInt(days, 10), IsInt: true}
	}
	f := operators[key]
	if f == nil {
		return nil, fmt.Errorf("sql: unsupported scalar expression %s", renderAst(n))
	}
	return f.call(call, c)
}

// shiftDate moves a day count by n units.
func shiftDate(days int32, n int64, unit string) int32 {
	switch unit {
	case "DAY":
		return days + int32(n)
	case "MONTH":
		return types.AddMonths(days, int32(n))
	case "YEAR":
		return types.AddMonths(days, int32(n*12))
	}
	return days
}

// coercePair reconciles the two sides' types: literal adaptation first,
// then implicit casts (int widening, int→float, int→decimal, string
// literal→date/timestamp).
func coercePair(l, r expr.Expr) (expr.Expr, expr.Expr, error) {
	lt, rt := l.Type(), r.Type()
	if lt.ID == rt.ID {
		return l, r, nil
	}
	// Literal adaptation avoids casting whole columns.
	if lit, ok := r.(*expr.Literal); ok {
		if adapted, ok2 := adaptLiteral(lit, lt); ok2 {
			return l, adapted, nil
		}
	}
	if lit, ok := l.(*expr.Literal); ok {
		if adapted, ok2 := adaptLiteral(lit, rt); ok2 {
			return adapted, r, nil
		}
	}
	// Column-level implicit casts.
	rank := func(t types.DataType) int {
		switch t.ID {
		case types.Int32:
			return 1
		case types.Int64:
			return 2
		case types.Decimal:
			return 3
		case types.Float64:
			return 4
		}
		return 0
	}
	lr, rr := rank(lt), rank(rt)
	if lr > 0 && rr > 0 {
		if lr < rr {
			return expr.NewCast(l, castTarget(rt, lt)), r, nil
		}
		return l, expr.NewCast(r, castTarget(lt, rt)), nil
	}
	return nil, nil, fmt.Errorf("sql: cannot compare/combine %v with %v", lt, rt)
}

// castTarget picks the widened type when casting `from` up to `to`'s rank.
func castTarget(to, from types.DataType) types.DataType {
	if to.ID == types.Decimal && from.ID != types.Decimal {
		return types.DecimalType(to.Precision, to.Scale)
	}
	return types.DataType{ID: to.ID, Precision: to.Precision, Scale: to.Scale}
}

// adaptLiteral rewrites a literal to the target type when lossless,
// carrying the parameter-slot tag onto the adapted literal so plan-cache
// rebinding finds it regardless of adaptation.
func adaptLiteral(lit *expr.Literal, to types.DataType) (*expr.Literal, bool) {
	out, ok := adaptLiteralValue(lit, to)
	if !ok {
		return nil, false
	}
	if out != lit && lit.Param != 0 {
		out.Param = lit.Param
	}
	return out, true
}

// roundLiteral is adaptLiteral for a value rather than a comparison (a
// CASE branch, a COALESCE argument): a DECIMAL with no exact value at
// to's scale is rounded half away from zero.
func roundLiteral(lit *expr.Literal, to types.DataType) (*expr.Literal, bool) {
	if out, ok := adaptLiteral(lit, to); ok || lit.T.ID != types.Decimal || to.ID != types.Decimal {
		return out, ok
	}
	out := expr.Lit(lit.Dec(to.Scale), to)
	out.Param = lit.Param
	return out, true
}

func adaptLiteralValue(lit *expr.Literal, to types.DataType) (*expr.Literal, bool) {
	if lit.IsNullLit() {
		return expr.NullLit(to), true
	}
	from := lit.Type()
	switch {
	case from.ID == types.Decimal && to.ID == types.Decimal:
		// Only an exact rescale: one that rounds would change what the
		// literal compares equal to (expr.DecAtScale).
		if d := lit.Dec(to.Scale); d.Rescale(to.Scale, from.Scale) == lit.Val.(types.Decimal128) {
			return expr.Lit(d, to), true
		}
	case from.ID == to.ID:
		return lit, true
	case from.ID == types.Int64 && to.ID == types.Int32:
		v := lit.I64()
		if int64(int32(v)) == v {
			return expr.Int32Lit(int32(v)), true
		}
	case from.ID == types.Int64 && to.ID == types.Float64:
		return expr.Float64Lit(float64(lit.I64())), true
	case from.ID == types.Int64 && to.ID == types.Decimal:
		d := types.DecimalFromInt64(lit.I64()).Rescale(0, to.Scale)
		return expr.Lit(d, to), true
	case from.ID == types.Decimal && to.ID == types.Float64:
		div := types.Pow10(from.Scale).ToFloat64()
		return expr.Float64Lit(lit.Val.(types.Decimal128).ToFloat64() / div), true
	case from.ID == types.String && to.ID == types.Date:
		if d, err := types.ParseDate(lit.Val.(string)); err == nil {
			return expr.DateLit(d), true
		}
	case from.ID == types.String && to.ID == types.Timestamp:
		if ts, err := types.ParseTimestamp(lit.Val.(string)); err == nil {
			return expr.Lit(ts, types.TimestampType), true
		}
	}
	return nil, false
}

// convertFunc lowers a scalar function call through its table entry.
func (a *analyzer) convertFunc(n *FuncCall, c exprConverter) (expr.Expr, error) {
	f := functions[n.Name]
	switch {
	case f == nil:
		return nil, fmt.Errorf("sql: unknown function %s", n.Name)
	case f.build == nil:
		return nil, fmt.Errorf("sql: aggregate %s is not allowed here", n.Name)
	}
	return f.call(n, c)
}

// parseTypeName maps SQL type names to DataTypes.
func parseTypeName(name string) (types.DataType, error) {
	up := strings.ToUpper(name)
	switch {
	case up == "BOOLEAN" || up == "BOOL":
		return types.BoolType, nil
	case up == "INT" || up == "INTEGER":
		return types.Int32Type, nil
	case up == "BIGINT" || up == "LONG":
		return types.Int64Type, nil
	case up == "DOUBLE" || up == "FLOAT":
		return types.Float64Type, nil
	case up == "STRING" || up == "VARCHAR" || up == "TEXT":
		return types.StringType, nil
	case up == "DATE":
		return types.DateType, nil
	case up == "TIMESTAMP":
		return types.TimestampType, nil
	case strings.HasPrefix(up, "DECIMAL(") || strings.HasPrefix(up, "NUMERIC("):
		inner := up[strings.Index(up, "(")+1 : len(up)-1]
		var p, s int
		if _, err := fmt.Sscanf(inner, "%d,%d", &p, &s); err != nil {
			if _, err := fmt.Sscanf(inner, "%d", &p); err != nil {
				return types.DataType{}, fmt.Errorf("sql: bad decimal type %q", name)
			}
		}
		return types.DecimalType(p, s), nil
	case up == "DECIMAL" || up == "NUMERIC":
		return types.DecimalType(10, 0), nil
	}
	return types.DataType{}, fmt.Errorf("sql: unknown type %q", name)
}

// convertPred lowers an AST predicate to a vectorized filter.
func (a *analyzer) convertPred(e AstExpr, c exprConverter) (expr.Filter, error) {
	switch n := e.(type) {
	case *BinaryExpr:
		switch n.Op {
		case "AND":
			l, err := a.convertPred(n.Left, c)
			if err != nil {
				return nil, err
			}
			r, err := a.convertPred(n.Right, c)
			if err != nil {
				return nil, err
			}
			return expr.NewAnd(l, r), nil
		case "OR":
			l, err := a.convertPred(n.Left, c)
			if err != nil {
				return nil, err
			}
			r, err := a.convertPred(n.Right, c)
			if err != nil {
				return nil, err
			}
			return expr.NewOr(l, r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			e, err := convertOp(n, c)
			if err != nil {
				return nil, err
			}
			return e.(expr.Filter), nil
		}
		return nil, fmt.Errorf("sql: %q is not a predicate", n.Op)
	case *UnaryExpr:
		if n.Op == "NOT" {
			inner, err := a.convertPred(n.Inner, c)
			if err != nil {
				return nil, err
			}
			return expr.NewNot(inner), nil
		}
	case *BetweenExpr:
		inner, err := c.convertChild(n.Inner)
		if err != nil {
			return nil, err
		}
		loE, err := c.convertChild(n.Lo)
		if err != nil {
			return nil, err
		}
		hiE, err := c.convertChild(n.Hi)
		if err != nil {
			return nil, err
		}
		lo, okLo := litOf(loE, inner.Type())
		hi, okHi := litOf(hiE, inner.Type())
		// The fused kernel (§3.3) takes two non-NULL literal bounds; any
		// other BETWEEN is the two comparisons, which carry a NULL bound's
		// three-valued logic.
		var f expr.Filter
		if okLo && okHi && !lo.IsNullLit() && !hi.IsNullLit() {
			f = expr.NewBetween(inner, lo, hi)
		} else {
			_, lo2, err1 := coercePairKeepLeft(inner, loE)
			_, hi2, err2 := coercePairKeepLeft(inner, hiE)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("sql: BETWEEN bounds incompatible with %v", inner.Type())
			}
			f = expr.NewAnd(
				expr.MustCmp(kernels.CmpGe, inner, lo2),
				expr.MustCmp(kernels.CmpLe, inner, hi2),
			)
		}
		if n.Negate {
			return expr.NewNot(f), nil
		}
		return f, nil
	case *InExpr:
		inner, err := c.convertChild(n.Inner)
		if err != nil {
			return nil, err
		}
		var lits []*expr.Literal
		for _, item := range n.List {
			le, err := c.convertChild(item)
			if err != nil {
				return nil, err
			}
			lit, ok := litOf(le, inner.Type())
			if !ok {
				return nil, fmt.Errorf("sql: IN list supports literals only")
			}
			lits = append(lits, lit)
		}
		var f expr.Filter = expr.NewIn(inner, lits)
		if n.Negate {
			return expr.NewNot(f), nil
		}
		return f, nil
	case *LikeExpr:
		inner, err := c.convertChild(n.Inner)
		if err != nil {
			return nil, err
		}
		if inner.Type().ID != types.String {
			return nil, fmt.Errorf("sql: LIKE does not take %v", inner.Type())
		}
		return expr.NewLike(inner, n.Pattern, n.Negate), nil
	case *IsNullExpr:
		inner, err := c.convertChild(n.Inner)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Inner: inner, Negate: n.Negate}, nil
	case *BoolLit:
		if n.Val {
			return expr.NewAnd(), nil // always-true
		}
		return expr.NewLike(expr.StringLit(""), "x", false), nil // always-false
	}
	// Fallback: a boolean-typed scalar (e.g. boolean column).
	se, err := c.convertChild(e)
	if err != nil {
		return nil, err
	}
	if se.Type().ID != types.Bool {
		return nil, fmt.Errorf("sql: %s is not a boolean predicate", renderAst(e))
	}
	return &expr.BoolColFilter{Inner: se}, nil
}

// litOf extracts an expression as a literal adapted to type t. A DECIMAL
// with no exact value at t's scale stays as written: IN and BETWEEN compare
// it by expr.DecAtScale.
func litOf(e expr.Expr, t types.DataType) (*expr.Literal, bool) {
	lit, ok := e.(*expr.Literal)
	if !ok {
		return nil, false
	}
	if out, ok := adaptLiteral(lit, t); ok {
		return out, true
	}
	return lit, lit.T.ID == types.Decimal && t.ID == types.Decimal
}

// coercePairKeepLeft coerces only the right side toward the left's type.
func coercePairKeepLeft(l, r expr.Expr) (expr.Expr, expr.Expr, error) {
	lc, rc, err := coercePair(l, r)
	if err != nil {
		return nil, nil, err
	}
	if lc != l {
		return nil, nil, fmt.Errorf("sql: cannot coerce without casting the column side")
	}
	return lc, rc, nil
}
