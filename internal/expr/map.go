package expr

import (
	"fmt"
	"slices"
)

// MapLeaves returns e with every leaf — each *ColRef and *Literal, the
// literal bounds of Between and In included — replaced by f's result. It is
// the one walk over the tree's shape: a pass that renumbers columns, binds
// parameters or only reads the leaves is a callback on it, so a new node
// kind is taught here and nowhere else.
//
// A node whose leaves all come back unchanged is returned as is: nodes are
// immutable once built, so trees may share them. Every other node is rebuilt
// through its constructor, typed and prepared like one the analyzer built.
// The first error, f's or a constructor's, is returned.
func MapLeaves(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	var err error
	m := leafMap{f: f, err: &err}
	if out := m.expr(e); err == nil {
		return out, nil
	}
	return nil, err
}

// MapFilterLeaves is MapLeaves over a filter tree.
func MapFilterLeaves(fl Filter, f func(Expr) (Expr, error)) (Filter, error) {
	var err error
	m := leafMap{f: f, err: &err}
	if out := m.filter(fl); err == nil {
		return out, nil
	}
	return nil, err
}

// leafMap is one map's state. The error lives outside the struct: escape
// analysis does not tell a struct's fields apart, so an error field would
// make f leak into the result, and every callback closure a heap
// allocation.
type leafMap struct {
	f   func(Expr) (Expr, error)
	err *error
}

// expr maps e. After an error it returns its input, so no parent is built
// over a failed child.
func (m *leafMap) expr(e Expr) Expr {
	if *m.err != nil || e == nil {
		return e
	}
	out, err := m.exprNode(e)
	if err != nil {
		m.fail(err)
		return e
	}
	return out
}

func (m *leafMap) filter(f Filter) Filter {
	if *m.err != nil {
		return f
	}
	out, err := m.filterNode(f)
	if err != nil {
		m.fail(err)
		return f
	}
	return out
}

func (m *leafMap) fail(err error) {
	if *m.err == nil {
		*m.err = err
	}
}

// lit maps a literal bound of Between or In, which must stay a literal.
func (m *leafMap) lit(l *Literal) *Literal {
	if out, ok := m.expr(l).(*Literal); ok {
		return out
	}
	m.fail(fmt.Errorf("expr: literal %s mapped to a non-literal", l))
	return l
}

func (m *leafMap) exprNode(e Expr) (Expr, error) {
	switch n := e.(type) {
	case *ColRef, *Literal:
		return m.f(e)
	case *Arith:
		if l, r := m.expr(n.Left), m.expr(n.Right); l != n.Left || r != n.Right {
			return NewArith(n.Op, l, r)
		}
	case *Cmp:
		if l, r := m.expr(n.Left), m.expr(n.Right); l != n.Left || r != n.Right {
			return NewCmp(n.Op, l, r)
		}
	case *Unary:
		if in := m.expr(n.Inner); in != n.Inner {
			return &Unary{Op: n.Op, Inner: in}, nil
		}
	case *Cast:
		if in := m.expr(n.Inner); in != n.Inner {
			return NewCast(in, n.To), nil
		}
	case *Extract:
		if in := m.expr(n.Inner); in != n.Inner {
			return &Extract{Field: n.Field, Inner: in}, nil
		}
	case *DateAdd:
		if in := m.expr(n.Inner); in != n.Inner {
			return &DateAdd{Inner: in, Days: n.Days}, nil
		}
	case *IsNull:
		if in := m.expr(n.Inner); in != n.Inner {
			return &IsNull{Inner: in, Negate: n.Negate}, nil
		}
	case *StrFunc:
		if in, args := m.expr(n.Inner), mapList(n.Args, m.expr); in != n.Inner || args != nil {
			cp := *n
			cp.Inner = in
			if args != nil {
				cp.Args = args
			}
			return &cp, nil
		}
	case *Coalesce:
		if args := mapList(n.Args, m.expr); args != nil {
			return NewCoalesce(args...)
		}
	case *Case:
		branches := mapList(n.Branches, func(br CaseBranch) CaseBranch {
			return CaseBranch{When: m.filter(br.When), Then: m.expr(br.Then)}
		})
		if els := m.expr(n.Else); branches != nil || els != n.Else {
			if branches == nil {
				branches = n.Branches
			}
			return NewCase(branches, els)
		}
	default:
		return nil, fmt.Errorf("expr: cannot map %T", e)
	}
	return e, nil
}

func (m *leafMap) filterNode(f Filter) (Filter, error) {
	switch n := f.(type) {
	case *Cmp, *IsNull:
		return m.expr(f.(Expr)).(Filter), nil
	case *And:
		if fs := mapList(n.Filters, m.filter); fs != nil {
			return NewAnd(fs...), nil
		}
	case *Or:
		if l, r := m.filter(n.Left), m.filter(n.Right); l != n.Left || r != n.Right {
			return NewOr(l, r), nil
		}
	case *Not:
		if in := m.filter(n.Inner); in != n.Inner {
			return NewNot(in), nil
		}
	case *Between:
		if in, lo, hi := m.expr(n.Inner), m.lit(n.Lo), m.lit(n.Hi); in != n.Inner || lo != n.Lo || hi != n.Hi {
			return NewBetween(in, lo, hi), nil
		}
	case *In:
		if in, vals := m.expr(n.Inner), mapList(n.Vals, m.lit); in != n.Inner || vals != nil {
			if vals == nil {
				vals = n.Vals
			}
			return NewIn(in, vals), nil
		}
	case *Like:
		if in := m.expr(n.Inner); in != n.Inner {
			return NewLike(in, n.Pattern, n.Negate), nil
		}
	case *BoolColFilter:
		if in := m.expr(n.Inner); in != n.Inner {
			return &BoolColFilter{Inner: in}, nil
		}
	default:
		return nil, fmt.Errorf("expr: cannot map filter %T", f)
	}
	return f, nil
}

// mapList applies f to each element of xs. It returns nil when no element
// changed, and otherwise a copy of xs with the changed elements replaced.
func mapList[T comparable](xs []T, f func(T) T) []T {
	var out []T
	for i, x := range xs {
		y := f(x)
		if y != x && out == nil {
			out = slices.Clone(xs)
		}
		if out != nil {
			out[i] = y
		}
	}
	return out
}
