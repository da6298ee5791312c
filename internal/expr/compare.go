package expr

import (
	"fmt"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// Cmp is a comparison. As a Filter it produces a position list; as an Expr
// it produces a BOOLEAN vector with SQL three-valued semantics (NULL when
// either operand is NULL).
type Cmp struct {
	Op    kernels.CmpOp
	Left  Expr
	Right Expr
}

// NewCmp builds a comparison node; operand types must match.
func NewCmp(op kernels.CmpOp, l, r Expr) (*Cmp, error) {
	lt, rt := l.Type(), r.Type()
	if lt.ID != rt.ID {
		return nil, errType("compare", lt, rt)
	}
	return &Cmp{Op: op, Left: l, Right: r}, nil
}

// MustCmp panics on error (builder-API convenience).
func MustCmp(op kernels.CmpOp, l, r Expr) *Cmp {
	c, err := NewCmp(op, l, r)
	if err != nil {
		panic(err)
	}
	return c
}

// Convenience constructors.
func Eq(l, r Expr) *Cmp { return MustCmp(kernels.CmpEq, l, r) }
func Ne(l, r Expr) *Cmp { return MustCmp(kernels.CmpNe, l, r) }
func Lt(l, r Expr) *Cmp { return MustCmp(kernels.CmpLt, l, r) }
func Le(l, r Expr) *Cmp { return MustCmp(kernels.CmpLe, l, r) }
func Gt(l, r Expr) *Cmp { return MustCmp(kernels.CmpGt, l, r) }
func Ge(l, r Expr) *Cmp { return MustCmp(kernels.CmpGe, l, r) }

// Type implements Expr.
func (c *Cmp) Type() types.DataType { return types.BoolType }

// String implements Expr and Filter.
func (c *Cmp) String() string {
	ops := [...]string{"=", "<>", "<", "<=", ">", ">="}
	return fmt.Sprintf("(%s %s %s)", c.Left, ops[c.Op], c.Right)
}

// swapOp mirrors a comparison when operands are exchanged.
func swapOp(op kernels.CmpOp) kernels.CmpOp {
	switch op {
	case kernels.CmpLt:
		return kernels.CmpGt
	case kernels.CmpLe:
		return kernels.CmpGe
	case kernels.CmpGt:
		return kernels.CmpLt
	case kernels.CmpGe:
		return kernels.CmpLe
	}
	return op
}

// cmpArgs are a comparison's operands, each evaluated once. A literal
// operand is not evaluated: it is lit, on the right, with op mirrored to
// match, and r is nil. Against a NULL literal l is nil too, since every row
// is NULL.
type cmpArgs struct {
	op             kernels.CmpOp
	l, r           *vector.Vector
	lit            *Literal
	lOwned, rOwned bool
}

// args evaluates c's operands; release returns them to ctx.
func (c *Cmp) args(ctx *Ctx, b *vector.Batch) (a cmpArgs, err error) {
	left, right := c.Left, c.Right
	a.op = c.Op
	if _, ok := left.(*Literal); ok {
		left, right, a.op = right, left, swapOp(a.op)
	}
	a.lit, _ = right.(*Literal)
	if a.lit != nil && a.lit.IsNullLit() {
		return a, nil
	}
	if a.l, a.lOwned, err = evalChild(ctx, left, b); err != nil || a.lit != nil {
		return a, err
	}
	if a.r, a.rOwned, err = evalChild(ctx, right, b); err != nil {
		putOwned(ctx, a.l, a.lOwned)
	}
	return a, err
}

func (a *cmpArgs) release(ctx *Ctx) {
	putOwned(ctx, a.l, a.lOwned)
	putOwned(ctx, a.r, a.rOwned)
}

// EvalSel implements Filter.
func (c *Cmp) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	a, err := c.args(ctx, b)
	if err != nil {
		return nil, err
	}
	defer a.release(ctx)
	return a.sel(ctx, b.Sel, b.NumRows, out)
}

// sel appends the active rows where the comparison is TRUE.
func (a *cmpArgs) sel(ctx *Ctx, sel []int32, n int, out []int32) ([]int32, error) {
	switch {
	case a.l == nil:
		return out, nil // comparison with NULL never matches
	case a.lit != nil:
		return selVS(ctx, a.op, a.l, a.lit, sel, n, out)
	}
	return selVV(ctx, a.op, a.l, a.r, sel, n, out)
}

// selVS is the vector-vs-constant path.
func selVS(ctx *Ctx, op kernels.CmpOp, v *vector.Vector, lit *Literal, sel []int32, n int, out []int32) ([]int32, error) {
	hn := v.HasNulls()
	switch v.Type.ID {
	case types.Bool:
		return kernels.SelCmpVS(op, v.Bool, lit.boolByte(), v.Nulls, hn, sel, n, out), nil
	case types.Int32, types.Date:
		return kernels.SelCmpVS(op, v.I32, lit.I32(), v.Nulls, hn, sel, n, out), nil
	case types.Int64, types.Timestamp:
		return kernels.SelCmpVS(op, v.I64, lit.I64(), v.Nulls, hn, sel, n, out), nil
	case types.Float64:
		return kernels.SelCmpVS(op, v.F64, lit.F64(), v.Nulls, hn, sel, n, out), nil
	case types.String:
		return kernels.SelCmpBytesVS(op, v.Str, lit.Bytes(), v.Nulls, hn, sel, n, out), nil
	case types.Decimal:
		op, c, ok := DecAtScale(op, lit, v.Type.Scale)
		switch {
		case ok:
		case op == kernels.CmpNe:
			return kernels.SelIsNotNull(v.Nulls, hn, sel, n, out), nil
		default:
			return out, nil
		}
		// Narrow fast path: compare low limbs as int64 when the vector and
		// the constant both fit (no escape needed — NULL rows never match
		// and active rows are narrow by contract).
		if types.Fits64(c) && ctx.Dec64Qualified(v, sel, n) {
			return kernels.SelCmpDec64VS(op, v.Dec, c.ToInt64(), v.Nulls, hn, sel, n, out), nil
		}
		return kernels.SelCmpDecVS(op, v.Dec, c, v.Nulls, hn, sel, n, out), nil
	}
	return nil, errType("compare", v.Type)
}

// DecAtScale turns col op lit, col a DECIMAL at scale, into a comparison at
// the column's scale that matches the same rows. A literal exact at that
// scale keeps op. Otherwise < and <= become <= its floor, and > and >= become
// >= its ceiling (floor and ceiling round toward −∞ and +∞), while = and <>
// compare with nothing: ok is false, and = matches no row and <> every
// non-NULL row.
func DecAtScale(op kernels.CmpOp, lit *Literal, scale int) (_ kernels.CmpOp, v types.Decimal128, ok bool) {
	d := lit.Val.(types.Decimal128)
	v = d.Rescale(lit.T.Scale, scale) // rounded to the nearest
	if lit.T.Scale <= scale {
		return op, v, true
	}
	switch c := v.Rescale(scale, lit.T.Scale).Cmp(d); {
	case c == 0:
		return op, v, true
	case op == kernels.CmpLt || op == kernels.CmpLe:
		if c > 0 {
			v = v.Sub(types.Decimal128{Lo: 1})
		}
		return kernels.CmpLe, v, true
	case op == kernels.CmpGt || op == kernels.CmpGe:
		if c < 0 {
			v = v.Add(types.Decimal128{Lo: 1})
		}
		return kernels.CmpGe, v, true
	}
	return op, v, false
}

// selVV is the vector-vs-vector path.
func selVV(ctx *Ctx, op kernels.CmpOp, a, bb *vector.Vector, sel []int32, n int, out []int32) ([]int32, error) {
	hn := a.HasNulls() || bb.HasNulls()
	switch a.Type.ID {
	case types.Bool:
		return kernels.SelCmpVV(op, a.Bool, bb.Bool, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.Int32, types.Date:
		return kernels.SelCmpVV(op, a.I32, bb.I32, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.Int64, types.Timestamp:
		return kernels.SelCmpVV(op, a.I64, bb.I64, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.Float64:
		return kernels.SelCmpVV(op, a.F64, bb.F64, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.String:
		return kernels.SelCmpBytesVV(op, a.Str, bb.Str, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.Decimal:
		// Narrow fast path when scales already agree and both sides fit.
		if a.Type.Scale == bb.Type.Scale &&
			ctx.Dec64Qualified(a, sel, n) && ctx.Dec64Qualified(bb, sel, n) {
			return kernels.SelCmpDec64VV(op, a.Dec, bb.Dec, a.Nulls, bb.Nulls, hn, sel, n, out), nil
		}
		// Align scales before comparing.
		if a.Type.Scale != bb.Type.Scale {
			s := max(a.Type.Scale, bb.Type.Scale)
			if a.Type.Scale != s {
				tmp := ctx.Get(types.DecimalType(38, s))
				kernels.DecRescaleV(a.Dec, tmp.Dec, a.Type.Scale, s, sel, n)
				copy(tmp.Nulls, a.Nulls)
				defer ctx.Put(tmp)
				a = tmp
			} else {
				tmp := ctx.Get(types.DecimalType(38, s))
				kernels.DecRescaleV(bb.Dec, tmp.Dec, bb.Type.Scale, s, sel, n)
				copy(tmp.Nulls, bb.Nulls)
				defer ctx.Put(tmp)
				bb = tmp
			}
		}
		return kernels.SelCmpDecVV(op, a.Dec, bb.Dec, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	}
	return nil, errType("compare", a.Type)
}

// nullRows appends the active rows where an operand is NULL.
func (a *cmpArgs) nullRows(sel []int32, n int, out []int32) []int32 {
	switch {
	case a.l == nil:
		if sel != nil {
			return append(out, sel...)
		}
		return kernels.DenseSel(n, out)
	case a.r == nil:
		return kernels.SelIsNull(a.l.Nulls, a.l.HasNulls(), sel, n, out)
	case !a.l.HasNulls() && !a.r.HasNulls():
		return out
	}
	apply(sel, n, func(i int32) {
		if a.l.Nulls[i]|a.r.Nulls[i] != 0 {
			out = append(out, i)
		}
	})
	return out
}

// Eval implements Expr: three-valued boolean materialization, built on the
// filter form (matching rows true, non-matching active rows false, NULL
// where an operand is NULL).
func (c *Cmp) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	a, err := c.args(ctx, b)
	if err != nil {
		return nil, err
	}
	defer a.release(ctx)
	n, sel := b.NumRows, b.Sel
	matched, err := a.sel(ctx, sel, n, ctx.GetSel())
	if err != nil {
		return nil, err
	}
	defer ctx.PutSel(matched)
	out := ctx.Get(types.BoolType)
	// Default all active rows to FALSE, then set matches TRUE.
	apply(sel, n, func(i int32) { out.Bool[i] = 0 })
	for _, i := range matched {
		out.Bool[i] = 1
	}
	switch {
	case a.l == nil:
		apply(sel, n, func(i int32) { out.SetNull(int(i)) })
	case a.r == nil:
		if a.l.HasNulls() {
			out.SetHasNulls(kernels.CopyNulls(a.l.Nulls, out.Nulls, sel, n))
		}
	case a.l.HasNulls() || a.r.HasNulls():
		out.SetHasNulls(kernels.OrNulls(a.l.Nulls, a.r.Nulls, out.Nulls, sel, n))
	}
	return out, nil
}
