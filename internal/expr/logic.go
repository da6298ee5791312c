package expr

import (
	"fmt"
	"strings"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// And is a conjunction of filters, evaluated by chaining: each child runs
// over the previous child's surviving position list, so selectivity
// compounds without touching filtered-out rows — the core reason the
// position-list representation beats byte vectors on selective predicates
// (§4.1, [42]).
type And struct {
	Filters []Filter
}

// NewAnd builds a conjunction.
func NewAnd(fs ...Filter) *And { return &And{Filters: fs} }

// String implements Filter.
func (a *And) String() string {
	parts := make([]string, len(a.Filters))
	for i, f := range a.Filters {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// EvalSel implements Filter.
func (a *And) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	if len(a.Filters) == 0 {
		if b.Sel == nil {
			return kernels.DenseSel(b.NumRows, out), nil
		}
		return append(out, b.Sel...), nil
	}
	cur, err := a.Filters[0].EvalSel(ctx, b, ctx.GetSel())
	if err != nil {
		return nil, err
	}
	savedSel := b.Sel
	for _, f := range a.Filters[1:] {
		if len(cur) == 0 {
			break
		}
		b.Sel = cur
		next, err := f.EvalSel(ctx, b, ctx.GetSel())
		if err != nil {
			b.Sel = savedSel
			ctx.PutSel(cur)
			return nil, err
		}
		ctx.PutSel(cur)
		cur = next
	}
	b.Sel = savedSel
	out = append(out, cur...)
	ctx.PutSel(cur)
	return out, nil
}

// Or is a disjunction: children evaluate under the same parent selection
// and their results union (both position lists are sorted).
type Or struct {
	Left, Right Filter
}

// NewOr builds a disjunction.
func NewOr(l, r Filter) *Or { return &Or{Left: l, Right: r} }

// String implements Filter.
func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.Left, o.Right) }

// EvalSel implements Filter.
func (o *Or) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	l, err := o.Left.EvalSel(ctx, b, ctx.GetSel())
	if err != nil {
		return nil, err
	}
	r, err := o.Right.EvalSel(ctx, b, ctx.GetSel())
	if err != nil {
		ctx.PutSel(l)
		return nil, err
	}
	out = kernels.UnionSel(l, r, out)
	ctx.PutSel(l)
	ctx.PutSel(r)
	return out, nil
}

// Not negates a filter: parent selection minus the child's survivors.
// SQL caveat: NOT(pred) is TRUE only where pred is FALSE — rows where pred
// was NULL must not pass, so Not also removes the rows the child reports
// through NullSel (every filter that can be NULL reports them).
type Not struct {
	Inner Filter
}

// NewNot builds a negation.
func NewNot(f Filter) *Not { return &Not{Inner: f} }

// String implements Filter.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.Inner) }

// EvalSel implements Filter.
func (n *Not) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	notFalse, err := trueOrNull(ctx, n.Inner, b, ctx.GetSel())
	if err != nil {
		return nil, err
	}
	out = activeMinus(ctx, b, notFalse, out)
	ctx.PutSel(notFalse)
	return out, nil
}

// NullSel implements nullAware: NOT is NULL where its operand is.
func (n *Not) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	return nullSel(ctx, n.Inner, b, out)
}

// NullSel implements nullAware: the rows where some child is NULL and none
// is TRUE.
func (o *Or) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	l, err := nullSel(ctx, o.Left, b, ctx.GetSel())
	if err != nil {
		return nil, err
	}
	r, err := nullSel(ctx, o.Right, b, ctx.GetSel())
	if err != nil {
		ctx.PutSel(l)
		return nil, err
	}
	nulls := kernels.UnionSel(l, r, ctx.GetSel())
	ctx.PutSel(l)
	ctx.PutSel(r)
	hit, err := o.EvalSel(ctx, b, ctx.GetSel())
	if err != nil {
		ctx.PutSel(nulls)
		return nil, err
	}
	out = kernels.DiffSel(nulls, hit, out)
	ctx.PutSel(nulls)
	ctx.PutSel(hit)
	return out, nil
}

// NullSel implements nullAware: the rows where no child is FALSE and some
// child is NULL. Each child runs over the rows no earlier child is FALSE
// on; of what remains, the rows where every child is TRUE are not NULL.
func (a *And) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	saved := b.Sel
	defer func() { b.Sel = saved }()
	var notFalse []int32
	for _, f := range a.Filters {
		next, err := trueOrNull(ctx, f, b, ctx.GetSel())
		if notFalse != nil {
			ctx.PutSel(notFalse)
		}
		if err != nil {
			return nil, err
		}
		notFalse, b.Sel = next, next
	}
	if notFalse == nil {
		return out, nil // no children: always TRUE
	}
	hit, err := a.EvalSel(ctx, b, ctx.GetSel())
	if err != nil {
		ctx.PutSel(notFalse)
		return nil, err
	}
	out = kernels.DiffSel(notFalse, hit, out)
	ctx.PutSel(notFalse)
	ctx.PutSel(hit)
	return out, nil
}

// nullAware is implemented by filters that can report the active rows where
// they evaluate to NULL (needed for correct NOT semantics).
type nullAware interface {
	NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error)
}

// nullSel appends the active rows where f is NULL; a filter that is never
// NULL (IS NULL) appends none.
func nullSel(ctx *Ctx, f Filter, b *vector.Batch, out []int32) ([]int32, error) {
	if ns, ok := f.(nullAware); ok {
		return ns.NullSel(ctx, b, out)
	}
	return out, nil
}

// trueOrNull appends the active rows where f is TRUE or NULL, in order.
func trueOrNull(ctx *Ctx, f Filter, b *vector.Batch, out []int32) ([]int32, error) {
	hit, err := f.EvalSel(ctx, b, ctx.GetSel())
	if err != nil {
		return nil, err
	}
	nulls, err := nullSel(ctx, f, b, ctx.GetSel())
	if err != nil {
		ctx.PutSel(hit)
		return nil, err
	}
	out = kernels.UnionSel(hit, nulls, out)
	ctx.PutSel(hit)
	ctx.PutSel(nulls)
	return out, nil
}

// activeMinus appends the batch's active rows that are not in sub (sorted).
func activeMinus(ctx *Ctx, b *vector.Batch, sub, out []int32) []int32 {
	if b.Sel != nil {
		return kernels.DiffSel(b.Sel, sub, out)
	}
	dense := kernels.DenseSel(b.NumRows, ctx.GetSel())
	out = kernels.DiffSel(dense, sub, out)
	ctx.PutSel(dense)
	return out
}

// NullSel for comparisons: rows where either operand is NULL.
func (c *Cmp) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	a, err := c.args(ctx, b)
	if err != nil {
		return nil, err
	}
	defer a.release(ctx)
	return a.nullRows(b.Sel, b.NumRows, out), nil
}

// BoolColFilter treats a BOOLEAN expression as a filter (e.g. a projected
// boolean column used in WHERE).
type BoolColFilter struct {
	Inner Expr
}

// String implements Filter.
func (f *BoolColFilter) String() string { return f.Inner.String() }

// EvalSel implements Filter.
func (f *BoolColFilter) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	if v.Type.ID != types.Bool {
		return nil, errType("boolean filter", v.Type)
	}
	return kernels.SelCmpVS(kernels.CmpNe, v.Bool, 0, v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
}

// NullSel implements nullAware.
func (f *BoolColFilter) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	return kernels.SelIsNull(v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
}
