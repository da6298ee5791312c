package rowengine

import (
	"fmt"

	"photon/internal/expr"
	"photon/internal/kernels"
)

// Compiled mode: expression trees lower once into closure chains, the
// whole-stage-codegen analogue. Per-row execution runs straight-line
// closures with no tree dispatch, no node-kind switches, and pre-resolved
// literals/patterns — but still over boxed values, like generated Java.

func compileExpr(e expr.Expr) (RowExpr, error) {
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
		l, err := compileExpr(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(n.Right)
		if err != nil {
			return nil, err
		}
		node := n
		return func(row []any) (any, error) {
			lv, err := l(row)
			if err != nil {
				return nil, err
			}
			rv, err := r(row)
			if err != nil {
				return nil, err
			}
			return applyArith(node, lv, rv)
		}, nil
	case *expr.Cmp:
		tp, err := compileCmp(n)
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
	case *expr.IsNull:
		inner, err := compileExpr(n.Inner)
		if err != nil {
			return nil, err
		}
		neg := n.Negate
		return func(row []any) (any, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			return (v == nil) != neg, nil
		}, nil
	case *expr.Case:
		type branch struct {
			when triPred
			then RowExpr
		}
		var branches []branch
		for _, br := range n.Branches {
			w, err := compilePred(br.When)
			if err != nil {
				return nil, err
			}
			t, err := compileExpr(br.Then)
			if err != nil {
				return nil, err
			}
			branches = append(branches, branch{w, t})
		}
		var els RowExpr
		if n.Else != nil {
			var err error
			els, err = compileExpr(n.Else)
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
			c, err := compileExpr(a)
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
		inner, err := compileExpr(n.Inner)
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
		node := n
		inner, err := compileExpr(n.Inner)
		if err != nil {
			return nil, err
		}
		var arg RowExpr
		if len(n.Args) > 0 {
			arg, err = compileExpr(n.Args[0])
			if err != nil {
				return nil, err
			}
		}
		return func(row []any) (any, error) {
			return evalStrFunc(node, row, func(e expr.Expr, r []any) (any, error) {
				if e == node.Inner {
					return inner(r)
				}
				return arg(r)
			})
		}, nil
	case *expr.Unary:
		inner, err := compileExpr(n.Inner)
		if err != nil {
			return nil, err
		}
		node := n
		return func(row []any) (any, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			return applyUnary(node, v)
		}, nil
	case *expr.Extract:
		inner, err := compileExpr(n.Inner)
		if err != nil {
			return nil, err
		}
		node := n
		from := n.Inner.Type()
		return func(row []any) (any, error) {
			v, err := inner(row)
			if err != nil {
				return nil, err
			}
			return applyExtract(node, v, from)
		}, nil
	case *expr.DateAdd:
		inner, err := compileExpr(n.Inner)
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
	return nil, fmt.Errorf("rowengine: cannot compile %T", e)
}

func compileCmp(n *expr.Cmp) (triPred, error) {
	l, err := compileExpr(n.Left)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(n.Right)
	if err != nil {
		return nil, err
	}
	node := n
	return func(row []any) (tri, error) {
		return cmpTri(node, row, func(e expr.Expr, rw []any) (any, error) {
			if e == node.Left {
				return l(rw)
			}
			return r(rw)
		})
	}, nil
}

func compilePred(f expr.Filter) (triPred, error) {
	switch n := f.(type) {
	case *expr.Cmp:
		return compileCmp(n)
	case *expr.And:
		var subs []triPred
		for _, s := range n.Filters {
			c, err := compilePred(s)
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
		l, err := compilePred(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(n.Right)
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
		inner, err := compilePred(n.Inner)
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
		inner, err := compileExpr(n.Inner)
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
		inner, err := compileExpr(n.Inner)
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
		inner, err := compileExpr(n.Inner)
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
		inner, err := compileExpr(n.Inner)
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
		inner, err := compileExpr(n.Inner)
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
	return nil, fmt.Errorf("rowengine: cannot compile filter %T", f)
}
