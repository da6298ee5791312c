package expr

import (
	"fmt"

	"photon/internal/types"
	"photon/internal/vector"
)

// Literal is a constant. Arithmetic and comparison nodes special-case
// literal operands into vector-scalar kernels, so Eval (which broadcasts
// into a full vector) only runs when a literal is projected directly.
type Literal struct {
	T   types.DataType
	Val any // Go value matching T; nil = typed NULL

	// Param tags a literal extracted as a plan-cache parameter: 0 means
	// "not a parameter", otherwise the 1-based parameter slot. The rebind
	// pass replaces tagged literals with per-execution values; everything
	// else about the literal (type, kernels) is slot-independent.
	Param int
}

// Lit constructs a literal of the given type.
func Lit(val any, t types.DataType) *Literal { return &Literal{T: t, Val: val} }

// Int64Lit is shorthand for a BIGINT literal.
func Int64Lit(v int64) *Literal { return Lit(v, types.Int64Type) }

// Int32Lit is shorthand for an INT literal.
func Int32Lit(v int32) *Literal { return Lit(v, types.Int32Type) }

// Float64Lit is shorthand for a DOUBLE literal.
func Float64Lit(v float64) *Literal { return Lit(v, types.Float64Type) }

// StringLit is shorthand for a STRING literal.
func StringLit(s string) *Literal { return Lit(s, types.StringType) }

// BoolLit is shorthand for a BOOLEAN literal.
func BoolLit(v bool) *Literal { return Lit(v, types.BoolType) }

// DateLit is shorthand for a DATE literal (days since epoch).
func DateLit(days int32) *Literal { return Lit(days, types.DateType) }

// DecimalLit builds a DECIMAL literal from a string like "0.05".
func DecimalLit(s string, precision, scale int) *Literal {
	d, err := types.ParseDecimal(s, scale)
	if err != nil {
		panic(err)
	}
	return Lit(d, types.DecimalType(precision, scale))
}

// NullLit is a typed NULL.
func NullLit(t types.DataType) *Literal { return &Literal{T: t, Val: nil} }

// Type implements Expr.
func (l *Literal) Type() types.DataType { return l.T }

// String implements Expr.
func (l *Literal) String() string {
	if l.Val == nil {
		return "NULL"
	}
	switch v := l.Val.(type) {
	case string:
		return fmt.Sprintf("'%s'", v)
	case types.Decimal128:
		return types.FormatDecimal(v, l.T.Scale)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Eval broadcasts the constant across the active rows.
func (l *Literal) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	out := ctx.Get(l.T)
	n := b.NumRows
	if l.Val == nil {
		if b.Sel == nil {
			for i := 0; i < n; i++ {
				out.SetNull(i)
			}
		} else {
			for _, i := range b.Sel {
				out.SetNull(int(i))
			}
		}
		return out, nil
	}
	val := l.Val
	if s, ok := val.(string); ok {
		val = []byte(s) // one payload that every row points at
	}
	set := func(i int) { out.Set(i, val) }
	if b.Sel == nil {
		for i := 0; i < n; i++ {
			set(i)
		}
	} else {
		for _, i := range b.Sel {
			set(int(i))
		}
	}
	return out, nil
}

// I64 returns the literal as int64 (Int64/Timestamp literals).
func (l *Literal) I64() int64 { return l.Val.(int64) }

// I32 returns the literal as int32 (Int32/Date literals).
func (l *Literal) I32() int32 { return l.Val.(int32) }

// F64 returns the literal as float64.
func (l *Literal) F64() float64 { return l.Val.(float64) }

// Dec returns the literal as a Decimal128, rescaled to the target scale.
func (l *Literal) Dec(scale int) types.Decimal128 {
	return l.Val.(types.Decimal128).Rescale(l.T.Scale, scale)
}

// boolByte returns a BOOLEAN literal as its vector byte.
func (l *Literal) boolByte() byte {
	if l.Val.(bool) {
		return 1
	}
	return 0
}

// Bytes returns a string literal's bytes.
func (l *Literal) Bytes() []byte { return []byte(l.Val.(string)) }

// IsNullLit reports whether the literal is NULL.
func (l *Literal) IsNullLit() bool { return l.Val == nil }
