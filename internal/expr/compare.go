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

// EvalSel implements Filter.
func (c *Cmp) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	n, sel := b.NumRows, b.Sel
	left, right, op := c.Left, c.Right, c.Op
	if _, ok := left.(*Literal); ok {
		left, right = right, left
		op = swapOp(op)
	}

	// Vector-vs-constant fast path.
	if lit, ok := right.(*Literal); ok {
		if lit.IsNullLit() {
			return out, nil // comparison with NULL never matches
		}
		lv, owned, err := evalChild(ctx, left, b)
		if err != nil {
			return nil, err
		}
		defer putOwned(ctx, lv, owned)
		hn := lv.HasNulls()
		switch lv.Type.ID {
		case types.Int32, types.Date:
			return kernels.SelCmpVS(op, lv.I32, lit.I32(), lv.Nulls, hn, sel, n, out), nil
		case types.Int64, types.Timestamp:
			return kernels.SelCmpVS(op, lv.I64, lit.I64(), lv.Nulls, hn, sel, n, out), nil
		case types.Float64:
			return kernels.SelCmpVS(op, lv.F64, lit.F64(), lv.Nulls, hn, sel, n, out), nil
		case types.String:
			return kernels.SelCmpBytesVS(op, lv.Str, lit.Bytes(), lv.Nulls, hn, sel, n, out), nil
		case types.Decimal:
			// Narrow fast path: compare low limbs as int64 when the
			// vector and the constant both fit (no escape needed — NULL
			// rows never match and active rows are narrow by contract).
			c := lit.Dec(lv.Type.Scale)
			if ctx.Dec64 && types.Fits64(c) && ctx.Dec64Qualified(lv, sel, n) {
				return kernels.SelCmpDec64VS(op, lv.Dec, c.ToInt64(), lv.Nulls, hn, sel, n, out), nil
			}
			return kernels.SelCmpDecVS(op, lv.Dec, c, lv.Nulls, hn, sel, n, out), nil
		case types.Bool:
			want := byte(0)
			if lit.Val.(bool) {
				want = 1
			}
			if op == kernels.CmpNe {
				want = 1 - want
			} else if op != kernels.CmpEq {
				return nil, errType("bool compare", lv.Type)
			}
			apply(sel, n, func(i int32) {
				if (!hn || lv.Nulls[i] == 0) && lv.Bool[i] == want {
					out = append(out, i)
				}
			})
			return out, nil
		}
		return nil, errType("compare", lv.Type)
	}

	// Vector-vs-vector path. Gt/Ge reduce to Lt/Le with swapped operands.
	lv, lOwned, err := evalChild(ctx, left, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, lv, lOwned)
	rv, rOwned, err := evalChild(ctx, right, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, rv, rOwned)
	a, bb := lv, rv
	vop := op
	if vop == kernels.CmpGt {
		a, bb, vop = rv, lv, kernels.CmpLt
	} else if vop == kernels.CmpGe {
		a, bb, vop = rv, lv, kernels.CmpLe
	}
	hn := a.HasNulls() || bb.HasNulls()
	switch a.Type.ID {
	case types.Int32, types.Date:
		return selVV(vop, a.I32, bb.I32, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.Int64, types.Timestamp:
		return selVV(vop, a.I64, bb.I64, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.Float64:
		return selVV(vop, a.F64, bb.F64, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.String:
		return kernels.SelCmpBytesVV(vop, a.Str, bb.Str, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	case types.Decimal:
		// Narrow fast path when scales already agree and both sides fit.
		if ctx.Dec64 && a.Type.Scale == bb.Type.Scale &&
			ctx.Dec64Qualified(a, sel, n) && ctx.Dec64Qualified(bb, sel, n) {
			return kernels.SelCmpDec64VV(vop, a.Dec, bb.Dec, a.Nulls, bb.Nulls, hn, sel, n, out), nil
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
		return kernels.SelCmpDecVV(vop, a.Dec, bb.Dec, a.Nulls, bb.Nulls, hn, sel, n, out), nil
	}
	return nil, errType("compare", a.Type)
}

// selVV dispatches Eq/Ne/Lt/Le vector-vector kernels.
func selVV[T kernels.Ordered](op kernels.CmpOp, a, b []T, n1, n2 []byte, hn bool, sel []int32, n int, out []int32) []int32 {
	switch op {
	case kernels.CmpEq:
		return kernels.SelEqVV(a, b, n1, n2, hn, sel, n, out)
	case kernels.CmpNe:
		return kernels.SelNeVV(a, b, n1, n2, hn, sel, n, out)
	case kernels.CmpLt:
		return kernels.SelLtVV(a, b, n1, n2, hn, sel, n, out)
	case kernels.CmpLe:
		return kernels.SelLeVV(a, b, n1, n2, hn, sel, n, out)
	}
	panic("expr: unreachable comparison dispatch")
}

// Eval implements Expr: three-valued boolean materialization, built on the
// filter form (matching rows true, non-matching active rows false, NULL
// where an operand is NULL).
func (c *Cmp) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	out := ctx.Get(types.BoolType)
	n, sel := b.NumRows, b.Sel
	// Default all active rows to FALSE, then set matches TRUE.
	apply(sel, n, func(i int32) { out.Bool[i] = 0 })
	matched := ctx.GetSel()
	defer ctx.PutSel(matched)
	matched, err := c.EvalSel(ctx, b, matched)
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	for _, i := range matched {
		out.Bool[i] = 1
	}
	// NULL where any operand is NULL.
	lv, lOwned, err := evalChild(ctx, c.Left, b)
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	defer putOwned(ctx, lv, lOwned)
	rv, rOwned, err := evalChild(ctx, c.Right, b)
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	defer putOwned(ctx, rv, rOwned)
	if lv.HasNulls() || rv.HasNulls() {
		out.SetHasNulls(kernels.OrNulls(lv.Nulls, rv.Nulls, out.Nulls, sel, n))
	}
	return out, nil
}
