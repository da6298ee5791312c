package expr

import (
	"fmt"
	"math"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[op]
}

// Arith is a binary arithmetic expression. Operand types must match
// (the analyzer inserts casts); decimals may differ in scale.
type Arith struct {
	Op    ArithOp
	Left  Expr
	Right Expr
	out   types.DataType
}

// NewArith builds an arithmetic node, deriving the result type (including
// decimal precision/scale rules, Spark-style).
func NewArith(op ArithOp, l, r Expr) (*Arith, error) {
	lt, rt := l.Type(), r.Type()
	if lt.ID != rt.ID {
		return nil, errType("arith "+op.String(), lt, rt)
	}
	out := lt
	if lt.ID == types.Decimal {
		out = decimalResultType(op, lt, rt)
	}
	if !lt.Numeric() {
		return nil, errType("arith "+op.String(), lt, rt)
	}
	if op == OpMod && (lt.ID == types.Float64 || lt.ID == types.Decimal) {
		return nil, errType("mod", lt)
	}
	return &Arith{Op: op, Left: l, Right: r, out: out}, nil
}

// MustArith is NewArith panicking on error (builder-API convenience).
func MustArith(op ArithOp, l, r Expr) *Arith {
	a, err := NewArith(op, l, r)
	if err != nil {
		panic(err)
	}
	return a
}

// decimalResultType applies simplified Spark decimal type rules.
func decimalResultType(op ArithOp, l, r types.DataType) types.DataType {
	s1, s2 := l.Scale, r.Scale
	p1, p2 := l.Precision, r.Precision
	switch op {
	case OpAdd, OpSub:
		s := max(s1, s2)
		p := max(p1-s1, p2-s2) + s + 1
		return types.DecimalType(min(p, 38), s)
	case OpMul:
		return types.DecimalType(min(p1+p2+1, 38), s1+s2)
	case OpDiv:
		s := max(6, s1+2)
		return types.DecimalType(38, min(s, 12))
	default:
		return l
	}
}

// Type implements Expr.
func (a *Arith) Type() types.DataType { return a.out }

// String implements Expr.
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.Left, a.Op, a.Right)
}

// Eval implements Expr via type-dispatched kernels with vector-scalar
// specializations when one operand is a literal.
func (a *Arith) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	if a.out.ID == types.Decimal {
		return a.evalDecimal(ctx, b)
	}

	llit, lIsLit := a.Left.(*Literal)
	rlit, rIsLit := a.Right.(*Literal)
	out := ctx.Get(a.out)
	n := b.NumRows
	sel := b.Sel

	// Vector ∘ scalar fast paths (no NULL merge needed beyond the vector's).
	if rIsLit && !rlit.IsNullLit() && a.Op != OpDiv && a.Op != OpMod {
		lv, lOwned, err := evalChild(ctx, a.Left, b)
		if err != nil {
			ctx.Put(out)
			return nil, err
		}
		defer putOwned(ctx, lv, lOwned)
		if lv.HasNulls() {
			out.SetHasNulls(kernels.CopyNulls(lv.Nulls, out.Nulls, sel, n))
		}
		switch a.out.ID {
		case types.Int32:
			applyVS(a.Op, lv.I32, rlit.I32(), out.I32, sel, n)
		case types.Int64:
			applyVS(a.Op, lv.I64, rlit.I64(), out.I64, sel, n)
		case types.Float64:
			applyVS(a.Op, lv.F64, rlit.F64(), out.F64, sel, n)
		default:
			ctx.Put(out)
			return nil, errType("arith", a.out)
		}
		return out, nil
	}
	if lIsLit && !llit.IsNullLit() && (a.Op == OpSub) {
		rv, rOwned, err := evalChild(ctx, a.Right, b)
		if err != nil {
			ctx.Put(out)
			return nil, err
		}
		defer putOwned(ctx, rv, rOwned)
		if rv.HasNulls() {
			out.SetHasNulls(kernels.CopyNulls(rv.Nulls, out.Nulls, sel, n))
		}
		switch a.out.ID {
		case types.Int32:
			kernels.SubSV(llit.I32(), rv.I32, out.I32, sel, n)
		case types.Int64:
			kernels.SubSV(llit.I64(), rv.I64, out.I64, sel, n)
		case types.Float64:
			kernels.SubSV(llit.F64(), rv.F64, out.F64, sel, n)
		default:
			ctx.Put(out)
			return nil, errType("arith", a.out)
		}
		return out, nil
	}

	// General vector ∘ vector path.
	lv, lOwned, err := evalChild(ctx, a.Left, b)
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	defer putOwned(ctx, lv, lOwned)
	rv, rOwned, err := evalChild(ctx, a.Right, b)
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	defer putOwned(ctx, rv, rOwned)

	hasNulls := lv.HasNulls() || rv.HasNulls()
	if hasNulls {
		out.SetHasNulls(kernels.OrNulls(lv.Nulls, rv.Nulls, out.Nulls, sel, n))
	}
	switch a.out.ID {
	case types.Int32:
		err = applyVV(a.Op, lv.I32, rv.I32, out.I32, out, sel, n, hasNulls)
	case types.Int64:
		err = applyVV(a.Op, lv.I64, rv.I64, out.I64, out, sel, n, hasNulls)
	case types.Float64:
		err = applyVV(a.Op, lv.F64, rv.F64, out.F64, out, sel, n, hasNulls)
	default:
		err = errType("arith", a.out)
	}
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	return out, nil
}

// applyVS dispatches vector-scalar kernels.
func applyVS[T kernels.Numeric](op ArithOp, a []T, s T, out []T, sel []int32, n int) {
	switch op {
	case OpAdd:
		kernels.AddVS(a, s, out, sel, n)
	case OpSub:
		kernels.SubVS(a, s, out, sel, n)
	case OpMul:
		kernels.MulVS(a, s, out, sel, n)
	}
}

// applyVV dispatches vector-vector kernels with the (nulls × activity)
// specialization choice of Listing 2.
func applyVV[T kernels.Numeric](op ArithOp, a, b, outVals []T, out *vector.Vector, sel []int32, n int, hasNulls bool) error {
	switch op {
	case OpAdd:
		if hasNulls {
			kernels.AddVVNulls(a, b, outVals, out.Nulls, sel, n)
		} else {
			kernels.AddVV(a, b, outVals, sel, n)
		}
	case OpSub:
		if hasNulls {
			kernels.SubVVNulls(a, b, outVals, out.Nulls, sel, n)
		} else {
			kernels.SubVV(a, b, outVals, sel, n)
		}
	case OpMul:
		if hasNulls {
			kernels.MulVVNulls(a, b, outVals, out.Nulls, sel, n)
		} else {
			kernels.MulVV(a, b, outVals, sel, n)
		}
	case OpDiv:
		if kernels.DivVV(a, b, outVals, out.Nulls, sel, n) {
			out.SetHasNulls(true)
		}
	case OpMod:
		return modVV(a, b, outVals, out, sel, n)
	}
	return nil
}

func modVV[T kernels.Numeric](a, b, outVals []T, out *vector.Vector, sel []int32, n int) error {
	switch av := any(a).(type) {
	case []int32:
		if kernels.ModVV(av, any(b).([]int32), any(outVals).([]int32), out.Nulls, sel, n) {
			out.SetHasNulls(true)
		}
	case []int64:
		if kernels.ModVV(av, any(b).([]int64), any(outVals).([]int64), out.Nulls, sel, n) {
			out.SetHasNulls(true)
		}
	default:
		return errType("mod", out.Type)
	}
	return nil
}

// evalDecimal handles decimal arithmetic with scale alignment, in 128 bits.
func (a *Arith) evalDecimal(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	lt, rt := a.Left.Type(), a.Right.Type()
	out := ctx.Get(a.out)
	n := b.NumRows
	sel := b.Sel

	// Scalar specializations for the common expr-with-constant shapes,
	// e.g. (1 - l_discount) and (1 + l_tax) in TPC-H Q1.
	if rlit, ok := a.Right.(*Literal); ok && !rlit.IsNullLit() && (a.Op == OpAdd || a.Op == OpSub) {
		s := max(lt.Scale, rt.Scale)
		lv, owned, err := a.evalRescaled(ctx, a.Left, b, lt.Scale, s)
		if err != nil {
			ctx.Put(out)
			return nil, err
		}
		defer putOwned(ctx, lv, owned)
		if lv.HasNulls() {
			out.SetHasNulls(kernels.CopyNulls(lv.Nulls, out.Nulls, sel, n))
		}
		c := rlit.Dec(s)
		if a.Op == OpAdd {
			kernels.DecAddVS(lv.Dec, c, out.Dec, sel, n)
		} else {
			kernels.DecAddVS(lv.Dec, c.Neg(), out.Dec, sel, n)
		}
		return out, nil
	}
	if llit, ok := a.Left.(*Literal); ok && !llit.IsNullLit() && a.Op == OpSub {
		s := max(lt.Scale, rt.Scale)
		rv, owned, err := a.evalRescaled(ctx, a.Right, b, rt.Scale, s)
		if err != nil {
			ctx.Put(out)
			return nil, err
		}
		defer putOwned(ctx, rv, owned)
		if rv.HasNulls() {
			out.SetHasNulls(kernels.CopyNulls(rv.Nulls, out.Nulls, sel, n))
		}
		kernels.DecSubSV(llit.Dec(s), rv.Dec, out.Dec, sel, n)
		return out, nil
	}

	lv, lOwned, err := evalChild(ctx, a.Left, b)
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	defer putOwned(ctx, lv, lOwned)
	rv, rOwned, err := evalChild(ctx, a.Right, b)
	if err != nil {
		ctx.Put(out)
		return nil, err
	}
	defer putOwned(ctx, rv, rOwned)

	if lv.HasNulls() || rv.HasNulls() {
		out.SetHasNulls(kernels.OrNulls(lv.Nulls, rv.Nulls, out.Nulls, sel, n))
	}

	switch a.Op {
	case OpAdd, OpSub:
		s := max(lt.Scale, rt.Scale)
		la, lo := a.alignScale(ctx, lv, lt.Scale, s, sel, n)
		defer putOwned(ctx, la, lo)
		ra, ro := a.alignScale(ctx, rv, rt.Scale, s, sel, n)
		defer putOwned(ctx, ra, ro)
		if a.Op == OpAdd {
			kernels.DecAddVV(la.Dec, ra.Dec, out.Dec, sel, n)
		} else {
			kernels.DecSubVV(la.Dec, ra.Dec, out.Dec, sel, n)
		}
	case OpMul:
		kernels.DecMulVV(lv.Dec, rv.Dec, out.Dec, sel, n)
	case OpDiv:
		// result = a * 10^(outScale - s1 + s2) / b, truncating division.
		mul := types.Pow10(a.out.Scale - lt.Scale + rt.Scale)
		if kernels.DecDivVV(lv.Dec, rv.Dec, mul, out.Dec, out.Nulls, sel, n) {
			out.SetHasNulls(true)
		}
	default:
		ctx.Put(out)
		return nil, errType("decimal mod", lt, rt)
	}
	return out, nil
}

// evalRescaled evaluates e and rescales the result when needed.
func (a *Arith) evalRescaled(ctx *Ctx, e Expr, b *vector.Batch, from, to int) (*vector.Vector, bool, error) {
	v, owned, err := evalChild(ctx, e, b)
	if err != nil {
		return nil, false, err
	}
	if from == to {
		return v, owned, nil
	}
	out := ctx.Get(types.DecimalType(38, to))
	kernels.DecRescaleV(v.Dec, out.Dec, from, to, b.Sel, b.NumRows)
	out.SetHasNulls(kernels.CopyNulls(v.Nulls, out.Nulls, b.Sel, b.NumRows))
	putOwned(ctx, v, owned)
	return out, true, nil
}

// alignScale rescales v in a fresh vector when its scale differs.
func (a *Arith) alignScale(ctx *Ctx, v *vector.Vector, from, to int, sel []int32, n int) (*vector.Vector, bool) {
	if from == to {
		return v, false
	}
	out := ctx.Get(types.DecimalType(38, to))
	kernels.DecRescaleV(v.Dec, out.Dec, from, to, sel, n)
	return out, true
}

// UnaryOp identifies single-operand math functions.
type UnaryOp uint8

// Unary operators.
const (
	OpNeg UnaryOp = iota
	OpSqrt
	OpAbs
)

// Unary applies a single-operand math function.
type Unary struct {
	Op    UnaryOp
	Inner Expr
}

// Type implements Expr.
func (u *Unary) Type() types.DataType {
	if u.Op == OpSqrt {
		return types.Float64Type
	}
	return u.Inner.Type()
}

// String implements Expr.
func (u *Unary) String() string {
	return fmt.Sprintf("%s(%s)", [...]string{"neg", "sqrt", "abs"}[u.Op], u.Inner)
}

// Eval implements Expr.
func (u *Unary) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	iv, owned, err := evalChild(ctx, u.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, iv, owned)
	out := ctx.Get(u.Type())
	n, sel := b.NumRows, b.Sel
	if iv.HasNulls() {
		out.SetHasNulls(kernels.CopyNulls(iv.Nulls, out.Nulls, sel, n))
	}
	switch u.Op {
	case OpNeg:
		switch iv.Type.ID {
		case types.Int32:
			kernels.NegV(iv.I32, out.I32, sel, n)
		case types.Int64:
			kernels.NegV(iv.I64, out.I64, sel, n)
		case types.Float64:
			kernels.NegV(iv.F64, out.F64, sel, n)
		case types.Decimal:
			apply(sel, n, func(i int32) { out.Dec[i] = iv.Dec[i].Neg() })
		default:
			ctx.Put(out)
			return nil, errType("neg", iv.Type)
		}
	case OpSqrt:
		// Listing 2's example kernel.
		if iv.Type.ID != types.Float64 {
			ctx.Put(out)
			return nil, errType("sqrt", iv.Type)
		}
		if !iv.HasNulls() && sel == nil {
			in, o := iv.F64[:n], out.F64[:n]
			for i := range o {
				o[i] = math.Sqrt(in[i])
			}
		} else {
			apply(sel, n, func(i int32) {
				if out.Nulls[i] == 0 {
					out.F64[i] = math.Sqrt(iv.F64[i])
				}
			})
		}
	case OpAbs:
		switch iv.Type.ID {
		case types.Int32:
			apply(sel, n, func(i int32) {
				v := iv.I32[i]
				if v < 0 {
					v = -v
				}
				out.I32[i] = v
			})
		case types.Int64:
			apply(sel, n, func(i int32) {
				v := iv.I64[i]
				if v < 0 {
					v = -v
				}
				out.I64[i] = v
			})
		case types.Float64:
			apply(sel, n, func(i int32) { out.F64[i] = math.Abs(iv.F64[i]) })
		case types.Decimal:
			apply(sel, n, func(i int32) { out.Dec[i] = iv.Dec[i].Abs() })
		default:
			ctx.Put(out)
			return nil, errType("abs", iv.Type)
		}
	}
	return out, nil
}

// apply runs body over the active rows.
func apply(sel []int32, n int, body func(i int32)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
		return
	}
	for _, i := range sel {
		body(i)
	}
}
