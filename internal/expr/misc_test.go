package expr

import (
	"strings"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

func TestStringRenderings(t *testing.T) {
	col := Col(0, "x", types.Int64Type)
	scol := Col(1, "s", types.StringType)
	dcol := Col(2, "d", types.DateType)
	cases := []struct {
		node interface{ String() string }
		want string
	}{
		{MustArith(OpAdd, col, Int64Lit(5)), "(x + 5)"},
		{Eq(col, Int64Lit(1)), "(x = 1)"},
		{Ne(col, Int64Lit(1)), "(x <> 1)"},
		{Lt(col, Int64Lit(1)), "(x < 1)"},
		{Le(col, Int64Lit(1)), "(x <= 1)"},
		{Gt(col, Int64Lit(1)), "(x > 1)"},
		{Ge(col, Int64Lit(1)), "(x >= 1)"},
		{NewAnd(Eq(col, Int64Lit(1)), Ne(col, Int64Lit(2))), "((x = 1) AND (x <> 2))"},
		{NewOr(Eq(col, Int64Lit(1)), Eq(col, Int64Lit(2))), "((x = 1) OR (x = 2))"},
		{NewNot(Eq(col, Int64Lit(1))), "(NOT (x = 1))"},
		{NewBetween(col, Int64Lit(1), Int64Lit(9)), "(x BETWEEN 1 AND 9)"},
		{NewIn(col, []*Literal{Int64Lit(1), Int64Lit(2)}), "(x IN (1, 2))"},
		{NewLike(scol, "a%", false), "(s LIKE 'a%')"},
		{NewLike(scol, "a%", true), "(s NOT LIKE 'a%')"},
		{&IsNull{Inner: scol}, "(s IS NULL)"},
		{&IsNull{Inner: scol, Negate: true}, "(s IS NOT NULL)"},
		{NewCast(col, types.Float64Type), "CAST(x AS DOUBLE)"},
		{Upper(scol), "upper(s)"},
		{Substr(scol, 1, 3), "substring(s, 1, 3)"},
		{Concat(scol, StringLit("!")), "concat(s, '!')"},
		{Year(dcol), "year(d)"},
		{Day(dcol), "day(d)"},
		{&DateAdd{Inner: dcol, Days: 7}, "date_add(d, 7)"},
		{&Unary{Op: OpSqrt, Inner: NewCast(col, types.Float64Type)}, "sqrt(CAST(x AS DOUBLE))"},
		{NullLit(types.StringType), "NULL"},
		{StringLit("hey"), "'hey'"},
		{DecimalLit("1.50", 5, 2), "1.50"},
		{AggSpec{Kind: AggSum, Arg: col}, "sum(x)"},
		{AggSpec{Kind: AggCount}, "count(*)"},
		{AggSpec{Kind: AggCount, Arg: col, Distinct: true}, "count(DISTINCT x)"},
	}
	for _, c := range cases {
		if got := c.node.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	caseNode, _ := NewCase([]CaseBranch{{When: Eq(col, Int64Lit(0)), Then: StringLit("z")}}, StringLit("n"))
	if s := caseNode.String(); !strings.Contains(s, "WHEN") || !strings.Contains(s, "ELSE") {
		t.Errorf("case string: %q", s)
	}
	coalesceNode, _ := NewCoalesce(scol, StringLit("d"))
	if s := coalesceNode.String(); !strings.Contains(s, "COALESCE") {
		t.Errorf("coalesce string: %q", s)
	}
}

func TestIfSugar(t *testing.T) {
	col := Col(0, "x", types.Int64Type)
	node, err := If(Gt(col, Int64Lit(0)), StringLit("pos"), StringLit("neg"))
	if err != nil {
		t.Fatal(err)
	}
	runExprCase(t, exprCase{
		name:   "if",
		schema: s1("x", types.Int64Type),
		build:  func(s *types.Schema) Expr { return node },
		rows:   [][]any{{int64(1)}, {int64(-1)}},
		want:   []any{"pos", "neg"},
	})
}

func TestDateAddEval(t *testing.T) {
	d, _ := types.ParseDate("2020-01-01")
	runExprCase(t, exprCase{
		name:   "date_add",
		schema: s1("d", types.DateType),
		build:  func(s *types.Schema) Expr { return &DateAdd{Inner: colRef(s, 0), Days: 31} },
		rows:   [][]any{{d}, {nil}},
		want:   []any{d + 31, nil},
	})
}

func TestWalkVisitsAllNodes(t *testing.T) {
	col := Col(0, "x", types.Int64Type)
	scol := Col(1, "s", types.StringType)
	caseNode, _ := NewCase(
		[]CaseBranch{{When: NewAnd(Gt(col, Int64Lit(0)), NewLike(scol, "a%", false)), Then: Upper(scol)}},
		NewCast(col, types.StringType),
	)
	// The map reaches every leaf, literal bounds of BETWEEN and IN included.
	var leaves, cols int
	count := func(e Expr) (Expr, error) {
		leaves++
		if _, ok := e.(*ColRef); ok {
			cols++
		}
		return e, nil
	}
	if _, err := MapLeaves(caseNode, count); err != nil || leaves != 5 || cols != 4 {
		t.Errorf("CASE: %d leaves, %d column refs (err %v), want 5 and 4", leaves, cols, err)
	}
	f := NewOr(
		NewNot(NewBetween(col, Int64Lit(1), Int64Lit(2))),
		NewAnd(&IsNull{Inner: scol}, NewIn(col, []*Literal{Int64Lit(3)}), &BoolColFilter{Inner: Eq(col, Int64Lit(9))}),
	)
	leaves, cols = 0, 0
	if _, err := MapFilterLeaves(f, count); err != nil || leaves != 8 || cols != 4 {
		t.Errorf("filter: %d leaves, %d column refs (err %v), want 8 and 4", leaves, cols, err)
	}
}

func TestTypeErrors(t *testing.T) {
	col := Col(0, "x", types.Int64Type)
	scol := Col(1, "s", types.StringType)
	if _, err := NewArith(OpAdd, col, scol); err == nil {
		t.Error("int + string accepted")
	}
	if _, err := NewArith(OpAdd, scol, scol); err == nil {
		t.Error("string + string accepted")
	}
	if _, err := NewArith(OpMod, Float64Lit(1), Float64Lit(2)); err == nil {
		t.Error("float mod accepted")
	}
	if _, err := NewCmp(0, col, scol); err == nil {
		t.Error("cross-type compare accepted")
	}
	if _, err := NewCase(nil, nil); err == nil {
		t.Error("empty CASE accepted")
	}
	if _, err := NewCase([]CaseBranch{
		{When: Eq(col, Int64Lit(0)), Then: StringLit("a")},
		{When: Eq(col, Int64Lit(1)), Then: Int64Lit(1)},
	}, nil); err == nil {
		t.Error("mixed-type CASE accepted")
	}
	if _, err := NewCoalesce(); err == nil {
		t.Error("empty COALESCE accepted")
	}
	if _, err := NewCoalesce(col, scol); err == nil {
		t.Error("mixed-type COALESCE accepted")
	}
	null, one := NullLit(types.Int64Type), Int64Lit(1)
	for _, b := range [][2]*Literal{{null, one}, {one, null}, {null, null}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BETWEEN %s AND %s accepted", b[0], b[1])
				}
			}()
			NewBetween(col, b[0], b[1])
		}()
	}
}

func TestCtxPools(t *testing.T) {
	ctx := NewCtx(16)
	v1 := ctx.Get(types.Int64Type)
	ctx.Put(v1)
	v2 := ctx.Get(types.Int64Type)
	if v1 != v2 {
		t.Error("vector pool did not reuse")
	}
	ctx.Put(nil) // must not panic
	s1 := ctx.GetSel()
	ctx.PutSel(s1)
	s2 := ctx.GetSel()
	if cap(s2) != cap(s1) {
		t.Error("sel pool did not reuse")
	}
	ctx.Arena.Alloc(10)
	ctx.Arena.Reset()
	if ctx.Arena.Used() != 0 {
		t.Error("Reset did not reset the arena")
	}
}

func TestLiteralBroadcastEval(t *testing.T) {
	ctx := NewCtx(8)
	schema := s1("x", types.Int64Type)
	b := vector.NewBatch(schema, 8)
	for i := 0; i < 4; i++ {
		b.AppendRow(int64(i))
	}
	b.SetSel([]int32{1, 3})
	v, err := Int64Lit(42).Eval(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if v.I64[1] != 42 || v.I64[3] != 42 {
		t.Error("literal broadcast missed active rows")
	}
	nv, err := NullLit(types.StringType).Eval(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !nv.IsNull(1) || !nv.IsNull(3) {
		t.Error("null literal broadcast wrong")
	}
}

// TestStringLiteralSharesOnePayload: a projected string literal points every
// row at one copy of its bytes; the allocations of an Eval do not grow with
// the rows.
func TestStringLiteralSharesOnePayload(t *testing.T) {
	const n = 1024
	b := vector.NewBatch(types.NewSchema(types.Field{Name: "x", Type: types.Int64Type}), n)
	b.NumRows = n
	ctx := NewCtx(n)
	lit := StringLit("a string literal")
	allocs := testing.AllocsPerRun(20, func() {
		v, err := lit.Eval(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if string(v.Str[n-1]) != "a string literal" || &v.Str[0][0] != &v.Str[n-1][0] {
			t.Fatal("rows do not share the literal's payload")
		}
		ctx.Put(v)
	})
	if allocs > 2 {
		t.Errorf("string literal Eval over %d rows: %.0f allocations, want at most 2", n, allocs)
	}
}
