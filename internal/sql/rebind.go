package sql

import (
	"fmt"

	"photon/internal/expr"
	"photon/internal/types"
)

// ClonePlan copies an optimized logical plan so a cached plan can be
// bound and staged privately per execution. Two modes:
//
//   - vals == nil (compile): collect the parameter slots present in the
//     plan into the returned slot → type map. The clone itself is a
//     throwaway the compiler can hand to PlanStages for classification.
//   - vals != nil (bind): substitute each Param-tagged literal with the
//     already-adapted value for its slot; the value's type must equal the
//     compiled literal's type (the caller guarantees this via BindParam).
//
// Plan nodes, which the planner restructures, are copied. Expressions are
// immutable once built, so each is mapped with expr.MapLeaves: a subtree
// without a parameter is shared with the compiled plan, and one with a
// parameter is rebuilt around the bound value. An expression or plan node
// kind the cloner does not know is an error, which callers treat as "do not
// cache this plan".
func ClonePlan(p LogicalPlan, vals map[int]*expr.Literal) (LogicalPlan, map[int]types.DataType, error) {
	r := &rebinder{vals: vals}
	if vals == nil {
		r.seen = make(map[int]types.DataType)
	}
	out := r.plan(p)
	if r.err != nil {
		return nil, nil, r.err
	}
	return out, r.seen, nil
}

type rebinder struct {
	vals map[int]*expr.Literal
	seen map[int]types.DataType
	err  error
}

func (r *rebinder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *rebinder) plan(p LogicalPlan) LogicalPlan {
	switch n := p.(type) {
	case *LScan:
		cp := *n
		cp.Projection = append([]int(nil), n.Projection...)
		if n.Filter != nil {
			cp.Filter = r.filter(n.Filter)
		}
		return &cp
	case *LFilter:
		return &LFilter{Child: r.plan(n.Child), Pred: r.filter(n.Pred)}
	case *LProject:
		cp := *n
		cp.Child = r.plan(n.Child)
		cp.Exprs = r.exprs(n.Exprs)
		cp.Names = append([]string(nil), n.Names...)
		// An unnamed column is named after its expression, so a value
		// bound into one renames it: drop the memoized schema.
		for i, e := range cp.Exprs {
			if e != n.Exprs[i] && n.Names[i] == "" {
				cp.InvalidateSchema()
			}
		}
		return &cp
	case *LAggregate:
		cp := *n
		cp.Child = r.plan(n.Child)
		cp.Keys = r.exprs(n.Keys)
		cp.KeyNames = append([]string(nil), n.KeyNames...)
		cp.Aggs = make([]expr.AggSpec, len(n.Aggs))
		for i, a := range n.Aggs {
			cp.Aggs[i] = a
			if a.Arg != nil {
				cp.Aggs[i].Arg = r.expr(a.Arg)
			}
		}
		return &cp
	case *LJoin:
		cp := *n
		cp.Left = r.plan(n.Left)
		cp.Right = r.plan(n.Right)
		cp.LeftKeys = r.exprs(n.LeftKeys)
		cp.RightKeys = r.exprs(n.RightKeys)
		if n.Residual != nil {
			cp.Residual = r.filter(n.Residual)
		}
		return &cp
	case *LCrossJoin:
		cp := *n
		cp.Left = r.plan(n.Left)
		cp.Right = r.plan(n.Right)
		return &cp
	case *LSort:
		return &LSort{Child: r.plan(n.Child), Keys: append([]SortKeyPlan(nil), n.Keys...)}
	case *LLimit:
		return &LLimit{Child: r.plan(n.Child), N: n.N}
	default:
		r.fail("sql: clone: unsupported plan node %T", p)
		return p
	}
}

func (r *rebinder) filter(f expr.Filter) expr.Filter {
	out, err := expr.MapFilterLeaves(f, r.literal)
	if err != nil {
		r.fail("sql: clone: %v", err)
		return f
	}
	return out
}

func (r *rebinder) exprs(es []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = r.expr(e)
	}
	return out
}

func (r *rebinder) expr(e expr.Expr) expr.Expr {
	out, err := expr.MapLeaves(e, r.literal)
	if err != nil {
		r.fail("sql: clone: %v", err)
		return e
	}
	return out
}

// literal is the leaf callback that binds parameters. Column references
// and untagged literals are kept. A tagged literal is recorded by slot
// (collect mode) or replaced with the slot's bound value (bind mode),
// keeping the slot tag so a bound plan could itself be rebound.
func (r *rebinder) literal(leaf expr.Expr) (expr.Expr, error) {
	l, ok := leaf.(*expr.Literal)
	if !ok || l.Param == 0 {
		return leaf, nil
	}
	slot := l.Param - 1
	if r.vals == nil {
		if prev, ok := r.seen[slot]; ok && !prev.Equal(l.T) {
			return nil, fmt.Errorf("parameter %d appears with types %v and %v", slot+1, prev, l.T)
		}
		r.seen[slot] = l.T
		return l, nil
	}
	v, ok := r.vals[slot]
	if !ok {
		return nil, fmt.Errorf("no value bound for parameter %d", slot+1)
	}
	if !v.T.Equal(l.T) {
		return nil, fmt.Errorf("parameter %d bound as %v, compiled as %v", slot+1, v.T, l.T)
	}
	cp := *v
	cp.Param = l.Param
	return &cp, nil
}
