package rowengine

import (
	"fmt"

	"photon/internal/expr"
	"photon/internal/kernels"
)

// One lowering serves both modes: lowerExpr and lowerPred hold the only
// per-node cases, and turn a node into a row closure, reaching its children
// through a lowering. The mode decides only when a child is lowered — its
// binding time. Compiled lowers every child once per query, the
// whole-stage-codegen analogue: a row runs straight-line closures with
// pre-resolved literals and patterns and no node-kind switch, but still over
// boxed values, like generated Java. Interpreted lowers a node each time a
// row reaches it, so every row walks the tree and dispatches on node kind,
// the Volcano path Spark falls back to when codegen bails out.

// CompileExpr lowers a vectorized expression tree into a row closure.
func CompileExpr(e expr.Expr, mode Mode) (RowExpr, error) {
	return lowering{mode}.expr(e)
}

// CompilePred lowers a filter tree into a row predicate.
func CompilePred(f expr.Filter, mode Mode) (RowPred, error) {
	tp, err := lowering{mode}.pred(f)
	if err != nil {
		return nil, err
	}
	return func(row []any) (bool, error) {
		t, err := tp(row)
		return t == triTrue, err
	}, nil
}

// lowering is how a node reaches its children, and the one place Mode takes
// effect.
type lowering struct{ mode Mode }

// expr lowers e now (Compiled) or returns a thunk that lowers it for each
// row it evaluates (Interpreted).
func (lw lowering) expr(e expr.Expr) (RowExpr, error) {
	if lw.mode == Interpreted {
		return func(row []any) (any, error) {
			fn, err := lowerExpr(e, lw)
			if err != nil {
				return nil, err
			}
			return fn(row)
		}, nil
	}
	return lowerExpr(e, lw)
}

// pred is expr for filters.
func (lw lowering) pred(f expr.Filter) (triPred, error) {
	if lw.mode == Interpreted {
		return func(row []any) (tri, error) {
			fn, err := lowerPred(f, lw)
			if err != nil {
				return triNull, err
			}
			return fn(row)
		}, nil
	}
	return lowerPred(f, lw)
}

// lowerExpr holds the one case per expression node kind.
func lowerExpr(e expr.Expr, lw lowering) (RowExpr, error) {
	switch n := e.(type) {
	case *expr.ColRef:
		idx := n.Idx
		return func(row []any) (any, error) { return row[idx], nil }, nil
	case *expr.Literal:
		if n.IsNullLit() {
			return func([]any) (any, error) { return nil, nil }, nil
		}
		v := n.Val
		return func([]any) (any, error) { return v, nil }, nil
	case *expr.Arith:
		l, err := lw.expr(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := lw.expr(n.Right)
		if err != nil {
			return nil, err
		}
		return func(row []any) (any, error) {
			lv, err := l(row)
			if err != nil {
				return nil, err
			}
			rv, err := r(row)
			if err != nil {
				return nil, err
			}
			return applyArith(n, lv, rv)
		}, nil
	case *expr.Cmp, *expr.IsNull: // filters used as BOOLEAN values
		tp, err := lowerPred(e.(expr.Filter), lw)
		if err != nil {
			return nil, err
		}
		return func(row []any) (any, error) {
			t, err := tp(row)
			if err != nil {
				return nil, err
			}
			return triToAny(t), nil
		}, nil
	case *expr.Case:
		type branch struct {
			when triPred
			then RowExpr
		}
		var branches []branch
		for _, br := range n.Branches {
			w, err := lw.pred(br.When)
			if err != nil {
				return nil, err
			}
			t, err := lw.expr(br.Then)
			if err != nil {
				return nil, err
			}
			branches = append(branches, branch{w, t})
		}
		var els RowExpr
		if n.Else != nil {
			var err error
			els, err = lw.expr(n.Else)
			if err != nil {
				return nil, err
			}
		}
		return func(row []any) (any, error) {
			for _, br := range branches {
				t, err := br.when(row)
				if err != nil {
					return nil, err
				}
				if t == triTrue {
					return br.then(row)
				}
			}
			if els == nil {
				return nil, nil
			}
			return els(row)
		}, nil
	case *expr.Coalesce:
		var args []RowExpr
		for _, a := range n.Args {
			c, err := lw.expr(a)
			if err != nil {
				return nil, err
			}
			args = append(args, c)
		}
		return func(row []any) (any, error) {
			for _, a := range args {
				v, err := a(row)
				if err != nil {
					return nil, err
				}
				if v != nil {
					return v, nil
				}
			}
			return nil, nil
		}, nil
	case *expr.Cast:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		from, to := n.Inner.Type(), n.To
		return func(row []any) (any, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			return applyCast(v, from, to)
		}, nil
	case *expr.StrFunc:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		var arg RowExpr
		if len(n.Args) > 0 {
			arg, err = lw.expr(n.Args[0])
			if err != nil {
				return nil, err
			}
		}
		return func(row []any) (any, error) {
			return evalStrFunc(n, inner, arg, row)
		}, nil
	case *expr.Unary:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		return func(row []any) (any, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			return applyUnary(n, v)
		}, nil
	case *expr.Extract:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		from := n.Inner.Type()
		return func(row []any) (any, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			return applyExtract(n, v, from)
		}, nil
	case *expr.DateAdd:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		days := n.Days
		return func(row []any) (any, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, nil
			}
			return v.(int32) + days, nil
		}, nil
	}
	return nil, fmt.Errorf("rowengine: unsupported expression %T", e)
}

// lowerPred holds the one case per filter node kind, with three-valued
// logic.
func lowerPred(f expr.Filter, lw lowering) (triPred, error) {
	switch n := f.(type) {
	case *expr.Cmp:
		l, err := lw.expr(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := lw.expr(n.Right)
		if err != nil {
			return nil, err
		}
		return func(row []any) (tri, error) {
			return cmpTri(n, l, r, row)
		}, nil
	case *expr.And:
		var subs []triPred
		for _, s := range n.Filters {
			c, err := lw.pred(s)
			if err != nil {
				return nil, err
			}
			subs = append(subs, c)
		}
		return func(row []any) (tri, error) {
			result := triTrue
			for _, s := range subs {
				t, err := s(row)
				if err != nil {
					return triNull, err
				}
				if t == triFalse {
					return triFalse, nil
				}
				if t == triNull {
					result = triNull
				}
			}
			return result, nil
		}, nil
	case *expr.Or:
		l, err := lw.pred(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := lw.pred(n.Right)
		if err != nil {
			return nil, err
		}
		return func(row []any) (tri, error) {
			lt, err := l(row)
			if err != nil {
				return triNull, err
			}
			if lt == triTrue {
				return triTrue, nil
			}
			rt, err := r(row)
			if err != nil {
				return triNull, err
			}
			if rt == triTrue {
				return triTrue, nil
			}
			if lt == triNull || rt == triNull {
				return triNull, nil
			}
			return triFalse, nil
		}, nil
	case *expr.Not:
		inner, err := lw.pred(n.Inner)
		if err != nil {
			return nil, err
		}
		return func(row []any) (tri, error) {
			t, err := inner(row)
			if err != nil {
				return triNull, err
			}
			switch t {
			case triTrue:
				return triFalse, nil
			case triFalse:
				return triTrue, nil
			}
			return triNull, nil
		}, nil
	case *expr.Between:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		t := n.Inner.Type()
		lo, _ := normLit(n.Lo, t, kernels.CmpGe)
		hi, _ := normLit(n.Hi, t, kernels.CmpLe)
		return func(row []any) (tri, error) {
			v, err := inner(row)
			if err != nil {
				return triNull, err
			}
			if v == nil {
				return triNull, nil
			}
			if isNaN(v) || isNaN(lo) || isNaN(hi) {
				return triFalse, nil
			}
			cLo, err := compareAny(v, lo, t)
			if err != nil {
				return triNull, err
			}
			cHi, err := compareAny(v, hi, t)
			if err != nil {
				return triNull, err
			}
			if cLo >= 0 && cHi <= 0 {
				return triTrue, nil
			}
			return triFalse, nil
		}, nil
	case *expr.In:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		t := n.Inner.Type()
		var vals []any
		notFound := triFalse
		for _, lit := range n.Vals {
			switch w, ok := normLit(lit, t, kernels.CmpEq); {
			case w == nil:
				notFound = triNull // x IN (..., NULL) is never FALSE
			case ok && !isNaN(w): // NaN equals nothing
				vals = append(vals, w)
			}
		}
		return func(row []any) (tri, error) {
			v, err := inner(row)
			if err != nil {
				return triNull, err
			}
			if v == nil {
				return triNull, nil
			}
			if isNaN(v) {
				return notFound, nil
			}
			for _, w := range vals {
				c, err := compareAny(v, w, t)
				if err != nil {
					return triNull, err
				}
				if c == 0 {
					return triTrue, nil
				}
			}
			return notFound, nil
		}, nil
	case *expr.Like:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		p := n.Compiled()
		neg := n.Negate
		return func(row []any) (tri, error) {
			v, err := inner(row)
			if err != nil {
				return triNull, err
			}
			if v == nil {
				return triNull, nil
			}
			if p.Match([]byte(v.(string))) != neg {
				return triTrue, nil
			}
			return triFalse, nil
		}, nil
	case *expr.IsNull:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		neg := n.Negate
		return func(row []any) (tri, error) {
			v, err := inner(row)
			if err != nil {
				return triNull, err
			}
			if (v == nil) != neg {
				return triTrue, nil
			}
			return triFalse, nil
		}, nil
	case *expr.BoolColFilter:
		inner, err := lw.expr(n.Inner)
		if err != nil {
			return nil, err
		}
		return func(row []any) (tri, error) {
			v, err := inner(row)
			if err != nil {
				return triNull, err
			}
			if v == nil {
				return triNull, nil
			}
			if v.(bool) {
				return triTrue, nil
			}
			return triFalse, nil
		}, nil
	}
	return nil, fmt.Errorf("rowengine: unsupported filter %T", f)
}
