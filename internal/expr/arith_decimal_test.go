package expr

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// Boundary coverage for decimal Arith against a math/big oracle: every
// operator shape (column and literal operands on either side, chains, mixed
// scales that force a rescale, division at every result-scale shift) over
// operands at and across the int64 boundary, with and without NULLs, dense
// and under a position list.

var (
	big2p63  = new(big.Int).Lsh(big.NewInt(1), 63)
	big2p127 = new(big.Int).Lsh(big.NewInt(1), 127)
	big2p128 = new(big.Int).Lsh(big.NewInt(1), 128)
)

// wrap128 reduces x to the signed 128-bit value the engine's wrapping
// arithmetic produces.
func wrap128(x *big.Int) *big.Int {
	r := new(big.Int).Mod(x, big2p128) // Euclidean: 0 <= r < 2^128
	if r.Cmp(big2p127) >= 0 {
		r.Sub(r, big2p128)
	}
	return r
}

func bigPow10(n int) *big.Int {
	return new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(n)), nil)
}

// decOf converts an in-range big integer to its Decimal128.
func decOf(t *testing.T, x *big.Int) types.Decimal128 {
	t.Helper()
	d, ok := types.DecimalFromBig(x)
	if !ok {
		t.Fatalf("oracle value %v out of 128-bit range", x)
	}
	return d
}

// bigEval is the oracle: e evaluated over one row in unbounded integers,
// reduced to 128 bits where the engine's arithmetic wraps. It knows the SQL
// rules and nothing of the kernels: + and - align to the larger scale, *
// multiplies unscaled values, / scales the dividend by
// 10^(result scale - left scale + right scale), truncates toward zero and is
// NULL on a zero divisor; NULL in, NULL out.
func bigEval(t *testing.T, e Expr, row []any) (*big.Int, bool) {
	t.Helper()
	switch n := e.(type) {
	case *ColRef:
		if row[n.Idx] == nil {
			return nil, false
		}
		return row[n.Idx].(types.Decimal128).Big(), true
	case *Literal:
		if n.Val == nil {
			return nil, false
		}
		return n.Val.(types.Decimal128).Big(), true
	case *Arith:
		l, lok := bigEval(t, n.Left, row)
		r, rok := bigEval(t, n.Right, row)
		if !lok || !rok {
			return nil, false
		}
		ls, rs := n.Left.Type().Scale, n.Right.Type().Scale
		switch n.Op {
		case OpAdd, OpSub:
			s := max(ls, rs)
			l = wrap128(new(big.Int).Mul(l, bigPow10(s-ls)))
			r = wrap128(new(big.Int).Mul(r, bigPow10(s-rs)))
			if n.Op == OpAdd {
				return wrap128(l.Add(l, r)), true
			}
			return wrap128(l.Sub(l, r)), true
		case OpMul:
			return wrap128(l.Mul(l, r)), true
		case OpDiv:
			if r.Sign() == 0 {
				return nil, false
			}
			num := wrap128(l.Mul(l, bigPow10(n.Type().Scale-ls+rs)))
			return num.Quo(num, r), true // Quo truncates toward zero
		}
	}
	t.Fatalf("oracle: unsupported expression %s", e)
	return nil, false
}

// decOperands are the operand classes: each is a pool of unscaled values a
// column draws from, and the precision the column declares (the narrow class
// declares one its values honour).
var decOperands = []struct {
	name string
	prec int
	pool []*big.Int
}{
	{"narrow", 12, []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(5), big.NewInt(12345),
		big.NewInt(-99999), big.NewInt(999_999_999_999), big.NewInt(-999_999_999_999),
	}},
	{"max63", 38, []*big.Int{
		big.NewInt(math.MaxInt64), big.NewInt(-math.MaxInt64), big.NewInt(math.MaxInt64 - 1),
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(100), big.NewInt(-7),
	}},
	{"pow63", 38, []*big.Int{
		big2p63, new(big.Int).Neg(big2p63), big.NewInt(math.MaxInt64),
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(10), big.NewInt(-3),
	}},
	{"wide", 38, []*big.Int{
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1)),
		new(big.Int).Neg(new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1))),
		new(big.Int).Add(big2p63, big.NewInt(5)),
		new(big.Int).Sub(new(big.Int).Neg(big2p63), big.NewInt(1)),
		bigPow10(25), new(big.Int).Lsh(big.NewInt(1), 100), big.NewInt(2), big.NewInt(-1),
	}},
}

// decShape is one expression shape over nCols decimal columns of the given
// scales; build receives the column references.
type decShape struct {
	name   string
	scales []int
	build  func(c []Expr) Expr
}

// decLit is a DECIMAL(38, scale) literal of an arbitrary unscaled value.
func decLit(t *testing.T, unscaled *big.Int, scale int) *Literal {
	return Lit(decOf(t, unscaled), types.DecimalType(38, scale))
}

func decShapes(t *testing.T) []decShape {
	var shapes []decShape
	ops := []ArithOp{OpAdd, OpSub, OpMul}
	// col∘col, same scale and both rescale directions.
	for _, sc := range [][]int{{2, 2}, {2, 5}, {5, 2}, {0, 18}} {
		for _, op := range ops {
			shapes = append(shapes, decShape{
				name:   fmt.Sprintf("col%scol/s%d_%d", op, sc[0], sc[1]),
				scales: sc,
				build:  func(c []Expr) Expr { return MustArith(op, c[0], c[1]) },
			})
		}
	}
	// col∘lit and lit∘col (lit-col is the one non-commuting literal shape):
	// literals inside, at and past the int64 boundary, at the column's scale
	// and at scales that rescale the literal or the column.
	lits := []struct {
		name string
		v    *big.Int
	}{
		{"one", big.NewInt(100)}, {"neg", big.NewInt(-37)},
		{"max63", big.NewInt(math.MaxInt64)}, {"min63", new(big.Int).Neg(big2p63)},
		{"wide", new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(1))},
	}
	for _, lit := range lits {
		for _, litScale := range []int{2, 0, 4} {
			for _, op := range ops {
				l := decLit(t, lit.v, litScale)
				shapes = append(shapes,
					decShape{
						name:   fmt.Sprintf("col%slit/%s_s%d", op, lit.name, litScale),
						scales: []int{2},
						build:  func(c []Expr) Expr { return MustArith(op, c[0], l) },
					},
					decShape{
						name:   fmt.Sprintf("lit%scol/%s_s%d", op, lit.name, litScale),
						scales: []int{2},
						build:  func(c []Expr) Expr { return MustArith(op, l, c[0]) },
					})
			}
		}
	}
	one := func() Expr { return DecimalLit("1.00", 12, 2) }
	shapes = append(shapes,
		// TPC-H Q1: price * (1 - discount) * (1 + tax).
		decShape{"chain/q1", []int{2, 2, 2}, func(c []Expr) Expr {
			return MustArith(OpMul,
				MustArith(OpMul, c[0], MustArith(OpSub, one(), c[1])),
				MustArith(OpAdd, one(), c[2]))
		}},
		// A product (scale 4) added to a scale-2 column: rescale above a node.
		decShape{"chain/mul_then_add", []int{2, 2, 2}, func(c []Expr) Expr {
			return MustArith(OpAdd, MustArith(OpMul, c[0], c[1]), c[2])
		}},
		decShape{"chain/sub_of_sums", []int{1, 3, 0}, func(c []Expr) Expr {
			return MustArith(OpSub, MustArith(OpAdd, c[0], c[1]), MustArith(OpAdd, c[2], c[1]))
		}},
		decShape{"chain/null_literal", []int{2}, func(c []Expr) Expr {
			return MustArith(OpAdd, c[0], NullLit(types.DecimalType(12, 2)))
		}},
	)
	// Division: a scale-12 dividend gives a scale-12 result, so the dividend
	// is scaled by 10^(divisor scale) — every shift 0…18 — and one shape whose
	// shift is past what an int64 power of ten can hold.
	for s2 := 0; s2 <= 18; s2++ {
		shapes = append(shapes, decShape{
			name:   fmt.Sprintf("col/col/shift%d", s2),
			scales: []int{12, s2},
			build:  func(c []Expr) Expr { return MustArith(OpDiv, c[0], c[1]) },
		})
	}
	shapes = append(shapes,
		decShape{"col/col/shift22", []int{2, 18}, func(c []Expr) Expr { return MustArith(OpDiv, c[0], c[1]) }},
		decShape{"col/lit", []int{12}, func(c []Expr) Expr { return MustArith(OpDiv, c[0], DecimalLit("3.00", 12, 2)) }},
		decShape{"div_of_chain", []int{2, 2, 2}, func(c []Expr) Expr {
			return MustArith(OpDiv, MustArith(OpMul, c[0], c[1]), MustArith(OpSub, c[2], one()))
		}},
	)
	return shapes
}

// runDecArith evaluates shape over rows under both Dec64 settings and checks
// every active row against the oracle.
func runDecArith(t *testing.T, shape decShape, prec int, rows [][]any, sel []int32) {
	t.Helper()
	fields := make([]types.Field, len(shape.scales))
	for i, s := range shape.scales {
		fields[i] = types.Field{Name: fmt.Sprintf("c%d", i), Type: types.DecimalType(prec, s), Nullable: true}
	}
	schema := types.NewSchema(fields...)
	cols := make([]Expr, len(fields))
	for i := range cols {
		cols[i] = colRef(schema, i)
	}
	e := shape.build(cols)

	active := make([]bool, len(rows))
	for i := range active {
		active[i] = sel == nil
	}
	for _, i := range sel {
		active[i] = true
	}
	ctx := NewCtx(64)
	b := vector.NewBatch(schema, 64)
	for _, r := range rows {
		b.AppendRow(r...)
	}
	if sel != nil {
		b.SetSel(sel)
	}
	out, err := e.Eval(ctx, b)
	if err != nil {
		t.Fatalf("%s: Eval: %v", e, err)
	}
	for i, r := range rows {
		if !active[i] {
			if out.Nulls[i] != 0 {
				t.Fatalf("%s row %d: NULL byte set at an inactive row", e, i)
			}
			continue
		}
		var want any
		if w, ok := bigEval(t, e, r); ok {
			want = decOf(t, w)
		}
		if got := out.Get(i); got != want {
			t.Fatalf("%s row %d %v: got %v want %v", e, i, r, got, want)
		}
	}
	ctx.Put(out)
}

func TestArithDecimalAgainstBig(t *testing.T) {
	shapes := decShapes(t)
	everyOther := func(n int) []int32 {
		var sel []int32
		for i := 0; i < n; i += 2 {
			sel = append(sel, int32(i))
		}
		return sel
	}
	// Table: every shape × operand class × {no NULLs, NULLs} × {dense,
	// position list}. Two-column shapes see the whole pool × pool cross
	// product (64 rows), so every boundary value meets every other.
	for _, shape := range shapes {
		for _, cls := range decOperands {
			rng := rand.New(rand.NewSource(29))
			pool := make([]types.Decimal128, len(cls.pool))
			for i, v := range cls.pool {
				pool[i] = decOf(t, v)
			}
			var rows [][]any
			switch len(shape.scales) {
			case 1:
				for _, v := range pool {
					rows = append(rows, []any{v})
				}
			case 2:
				for _, x := range pool {
					for _, y := range pool {
						rows = append(rows, []any{x, y})
					}
				}
			default:
				for len(rows) < 64 {
					r := make([]any, len(shape.scales))
					for c := range r {
						r[c] = pool[rng.Intn(len(pool))]
					}
					rows = append(rows, r)
				}
			}
			for _, withNulls := range []bool{false, true} {
				in := rows
				if withNulls {
					in = make([][]any, len(rows))
					for i, r := range rows {
						in[i] = append([]any(nil), r...)
						if i%5 == 1 {
							in[i][rng.Intn(len(r))] = nil
						}
					}
				}
				for _, sel := range [][]int32{nil, everyOther(len(in))} {
					t.Run(fmt.Sprintf("%s/%s/nulls=%v/sel=%v", shape.name, cls.name, withNulls, sel != nil), func(t *testing.T) {
						runDecArith(t, shape, cls.prec, in, sel)
					})
				}
			}
		}
	}

	// Random: any shape, every cell from any class (so narrow and wide values
	// share a batch and a narrow attempt can fail mid-batch), random NULLs and
	// a random position list.
	var all []types.Decimal128
	for _, cls := range decOperands {
		for _, v := range cls.pool {
			all = append(all, decOf(t, v))
		}
	}
	rng := rand.New(rand.NewSource(2029))
	for trial := 0; trial < 400; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		n := 1 + rng.Intn(64)
		mostlyNarrow := trial%2 == 0 // one wide row in an otherwise narrow batch
		rows := make([][]any, n)
		for i := range rows {
			r := make([]any, len(shape.scales))
			for c := range r {
				switch {
				case rng.Intn(8) == 0:
					r[c] = nil
				case mostlyNarrow && rng.Intn(32) != 0:
					r[c] = types.SignExtend64(rng.Int63n(2_000_001) - 1_000_000)
				default:
					r[c] = all[rng.Intn(len(all))]
				}
			}
			rows[i] = r
		}
		var sel []int32
		if trial%3 != 0 {
			sel = []int32{}
			for i := 0; i < n; i++ {
				if rng.Intn(3) != 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		runDecArith(t, shape, 38, rows, sel)
	}
}
