package expr

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// holds is the scalar reference for a comparison: Go's own operators, so
// floats follow IEEE (NaN fails everything but <>).
func holds[T int32 | int64 | float64 | byte](op kernels.CmpOp, x, y T) bool {
	switch op {
	case kernels.CmpEq:
		return x == y
	case kernels.CmpNe:
		return x != y
	case kernels.CmpLt:
		return x < y
	case kernels.CmpLe:
		return x <= y
	case kernels.CmpGt:
		return x > y
	case kernels.CmpGe:
		return x >= y
	}
	panic("bad op")
}

// cmpCase is one element type of the pin: a pool of values that includes
// its extremes, and the reference comparison of two of them.
type cmpCase struct {
	name string
	t    types.DataType
	pool []any
	ref  func(op kernels.CmpOp, x, y any) bool
	// eqOnly: only = and <> against a constant (BOOLEAN).
	eqOnly bool
}

// dec128 orders two decimals as signed 128-bit integers, limb by limb.
func dec128(x, y types.Decimal128) int {
	switch {
	case x.Hi < y.Hi || x.Hi == y.Hi && x.Lo < y.Lo:
		return -1
	case x == y:
		return 0
	}
	return 1
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func narrow(v int64) types.Decimal128 { return types.Decimal128{Hi: v >> 63, Lo: uint64(v)} }

func cmpCases() []cmpCase {
	byThree := func(c func(x, y any) int) func(kernels.CmpOp, any, any) bool {
		return func(op kernels.CmpOp, x, y any) bool { return holds(op, int64(c(x, y)), 0) }
	}
	decRef := byThree(func(x, y any) int { return dec128(x.(types.Decimal128), y.(types.Decimal128)) })
	var i32s, i64s, f64s, wide, narrows, strs []any
	for _, v := range []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, 7, math.MaxInt32 - 1, math.MaxInt32} {
		i32s = append(i32s, v)
	}
	for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64} {
		i64s = append(i64s, v)
		narrows = append(narrows, narrow(v))
	}
	for _, v := range []float64{math.Inf(-1), -math.MaxFloat64, -1.5, math.Copysign(0, -1), 0, 1.5, math.MaxFloat64, math.Inf(1), math.NaN()} {
		f64s = append(f64s, v)
	}
	wide = append(wide, narrows...)
	wide = append(wide, types.Decimal128{Hi: 1}, types.Decimal128{Hi: -2, Lo: 5},
		types.Decimal128{Hi: math.MaxInt64, Lo: math.MaxUint64}, types.Decimal128{Hi: math.MinInt64},
		types.Decimal128{Hi: 0, Lo: 1 << 63}, types.Decimal128{Hi: -1, Lo: 1<<63 - 1})
	for _, s := range []string{"", "a", "ab", "ac", "b", "abc", "abd", "abD", "\xff", "δ", "a\x00"} {
		strs = append(strs, s)
	}
	return []cmpCase{
		{"int32", types.Int32Type, i32s, func(op kernels.CmpOp, x, y any) bool { return holds(op, x.(int32), y.(int32)) }, false},
		{"int64", types.Int64Type, i64s, func(op kernels.CmpOp, x, y any) bool { return holds(op, x.(int64), y.(int64)) }, false},
		{"float64", types.Float64Type, f64s, func(op kernels.CmpOp, x, y any) bool { return holds(op, x.(float64), y.(float64)) }, false},
		{"decimal-wide", types.DecimalType(38, 2), wide, decRef, false},
		{"decimal-narrow", types.DecimalType(38, 2), narrows, decRef, false},
		{"bytes", types.StringType, strs, byThree(func(x, y any) int { return bytes.Compare([]byte(x.(string)), []byte(y.(string))) }), false},
		{"bool", types.BoolType, []any{false, true}, func(op kernels.CmpOp, x, y any) bool { return holds(op, b2u(x.(bool)), b2u(y.(bool))) }, true},
	}
}

// TestCmpKernelsAgainstScalarSwitch pins every comparison selection kernel
// — vector against constant (either side) and vector against vector, for
// every op, over INT, BIGINT, DOUBLE, wide and narrow DECIMAL and STRING,
// with and without NULLs, dense and under a selection, on empty and
// non-empty batches — against a scalar switch. Filters append to a
// non-empty position list; Eval is checked three-valued. BOOLEAN takes
// only = and <> against a constant. The value pools hold each type's
// extremes: MinInt/MaxInt, ±Inf, −0.0, NaN, wide decimals, and byte
// strings of equal length.
func TestCmpKernelsAgainstScalarSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, c := range cmpCases() {
		sch := types.NewSchema(types.Field{Name: "x", Type: c.t, Nullable: true}, types.Field{Name: "y", Type: c.t, Nullable: true})
		x, y := colRef(sch, 0), colRef(sch, 1)
		for _, n := range []int{0, 1, 67} {
			for _, withNulls := range []bool{false, true} {
				b := vector.NewBatch(sch, 67)
				pick := func() any {
					if withNulls && rng.Intn(5) == 0 {
						return nil
					}
					return c.pool[rng.Intn(len(c.pool))]
				}
				for i := 0; i < n; i++ {
					b.AppendRow(pick(), pick())
				}
				for _, selective := range []bool{false, true} {
					b.Sel = nil
					if selective {
						sel := []int32{}
						for i := 0; i < n; i++ {
							if rng.Intn(3) != 0 {
								sel = append(sel, int32(i))
							}
						}
						b.SetSel(sel)
					}
					consts := append(slices.Clone(c.pool), nil)
					for op := kernels.CmpEq; op <= kernels.CmpGe; op++ {
						if c.eqOnly && op > kernels.CmpNe {
							break
						}
						for _, k := range consts {
							lit := Lit(k, c.t)
							name := fmt.Sprintf("%s/n=%d/nulls=%v/sel=%v/op=%d/const=%v", c.name, n, withNulls, selective, op, k)
							checkCmp(t, name, MustCmp(op, x, lit), b, func(r []any) any { return ref3(c.ref, op, r[0], k) })
							checkCmp(t, name+"/const-left", MustCmp(op, lit, x), b, func(r []any) any { return ref3(c.ref, op, k, r[0]) })
						}
						if c.eqOnly {
							continue
						}
						name := fmt.Sprintf("%s/n=%d/nulls=%v/sel=%v/op=%d/vv", c.name, n, withNulls, selective, op)
						checkCmp(t, name, MustCmp(op, x, y), b, func(r []any) any { return ref3(c.ref, op, r[0], r[1]) })
					}
					for i := 0; i < 6 && !c.eqOnly; i++ {
						lo, hi := c.pool[rng.Intn(len(c.pool))], c.pool[rng.Intn(len(c.pool))]
						name := fmt.Sprintf("%s/n=%d/nulls=%v/sel=%v/between %v and %v", c.name, n, withNulls, selective, lo, hi)
						want := func(r []any) any {
							if r[0] == nil {
								return nil
							}
							return c.ref(kernels.CmpGe, r[0], lo) && c.ref(kernels.CmpLe, r[0], hi)
						}
						checkFilter(t, name, NewBetween(x, Lit(lo, c.t), Lit(hi, c.t)), b, want)
					}
				}
			}
		}
	}
}

// ref3 is the three-valued reference: NULL when either side is NULL.
func ref3(ref func(kernels.CmpOp, any, any) bool, op kernels.CmpOp, l, r any) any {
	if l == nil || r == nil {
		return nil
	}
	return ref(op, l, r)
}

// checkCmp checks c as a filter and as a BOOLEAN expression.
func checkCmp(t *testing.T, name string, c *Cmp, b *vector.Batch, want func([]any) any) {
	t.Helper()
	checkFilter(t, name, c, b, want)
	ctx := NewCtx(b.Capacity())
	v, err := c.Eval(ctx, b)
	if err != nil {
		t.Fatalf("%s: Eval: %v", name, err)
	}
	for _, i := range activeRows(b) {
		got := any(nil)
		if v.Nulls[i] == 0 {
			got = v.Bool[i] != 0
		}
		if w := want(b.Row(int(i))); got != w {
			t.Fatalf("%s: Eval row %d %v: got %v, want %v", name, i, b.Row(int(i)), got, w)
		}
	}
}

// checkFilter appends f's rows to a non-empty position list and compares
// them with the rows where want is TRUE.
func checkFilter(t *testing.T, name string, f Filter, b *vector.Batch, want func([]any) any) {
	t.Helper()
	prefix := []int32{-3, -2, -1}
	ctx := NewCtx(b.Capacity())
	got, err := f.EvalSel(ctx, b, slices.Clone(prefix))
	if err != nil {
		t.Fatalf("%s: EvalSel: %v", name, err)
	}
	wantSel := slices.Clone(prefix)
	for _, i := range activeRows(b) {
		if want(b.Row(int(i))) == true {
			wantSel = append(wantSel, i)
		}
	}
	if !slices.Equal(got, wantSel) {
		t.Fatalf("%s: got %v, want %v", name, got, wantSel)
	}
}

func activeRows(b *vector.Batch) []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	rows := make([]int32, b.NumRows)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// counted passes Eval to inner and counts the calls.
type counted struct {
	Expr
	evals int
}

func (c *counted) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	c.evals++
	return c.Expr.Eval(ctx, b)
}

// TestCmpEvaluatesEachOperandOnce: a comparison evaluates each operand at
// most once per call — as a filter, as a BOOLEAN value (which needs both
// the matches and the NULLs) and for its NULL rows — whichever side a
// literal is on.
func TestCmpEvaluatesEachOperandOnce(t *testing.T) {
	sch := types.NewSchema(types.Field{Name: "x", Type: types.Int64Type, Nullable: true})
	b := vector.NewBatch(sch, 8)
	for _, v := range []any{int64(1), nil, int64(3), int64(4)} {
		b.AppendRow(v)
	}
	operand := func() *counted {
		return &counted{Expr: MustArith(OpAdd, colRef(sch, 0), Int64Lit(0))}
	}
	calls := map[string]func(ctx *Ctx, c *Cmp) error{
		"EvalSel": func(ctx *Ctx, c *Cmp) error { _, err := c.EvalSel(ctx, b, nil); return err },
		"Eval":    func(ctx *Ctx, c *Cmp) error { _, err := c.Eval(ctx, b); return err },
		"NullSel": func(ctx *Ctx, c *Cmp) error { _, err := c.NullSel(ctx, b, nil); return err },
	}
	for name, call := range calls {
		for _, shape := range []string{"x < 3", "3 < x", "x < x", "x < NULL"} {
			l, r := operand(), operand()
			var c *Cmp
			switch shape {
			case "x < 3":
				c = Lt(l, Int64Lit(3))
			case "3 < x":
				c = Lt(Int64Lit(3), r)
			case "x < x":
				c = Lt(l, r)
			case "x < NULL":
				c = Lt(l, NullLit(types.Int64Type))
			}
			if err := call(NewCtx(8), c); err != nil {
				t.Fatalf("%s %s: %v", name, shape, err)
			}
			if l.evals > 1 || r.evals > 1 {
				t.Errorf("%s %s: operands evaluated %d and %d times", name, shape, l.evals, r.evals)
			}
		}
	}
}
