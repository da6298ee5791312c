package expr

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// shiftCols is a leaf callback moving every column reference up by k.
func shiftCols(k int) func(Expr) (Expr, error) {
	return func(e Expr) (Expr, error) {
		if c, ok := e.(*ColRef); ok {
			return Col(c.Idx+k, c.Name, c.T), nil
		}
		return e, nil
	}
}

func identity(e Expr) (Expr, error) { return e, nil }

// colOrdinals lists the column ordinals a leaf callback sees.
func colOrdinals(out *[]int) func(Expr) (Expr, error) {
	return func(e Expr) (Expr, error) {
		if c, ok := e.(*ColRef); ok {
			*out = append(*out, c.Idx)
		}
		return e, nil
	}
}

func TestMapLeavesCoversNodeKinds(t *testing.T) {
	c0 := Col(0, "a", types.Int64Type)
	c1 := Col(1, "s", types.StringType)
	c2 := Col(2, "d", types.DateType)
	caseExpr, err := NewCase([]CaseBranch{
		{When: MustCmp(kernels.CmpGt, c0, Int64Lit(0)), Then: StringLit("p")},
	}, Upper(c1))
	if err != nil {
		t.Fatal(err)
	}
	coal, err := NewCoalesce(c1, StringLit("x"))
	if err != nil {
		t.Fatal(err)
	}
	exprs := []Expr{
		MustArith(OpAdd, c0, Int64Lit(5)),
		Eq(c0, Int64Lit(1)),
		NewCast(c0, types.Float64Type),
		Upper(c1),
		Substr(c1, 1, 2),
		Concat(c1, c1),
		Year(c2),
		&DateAdd{Inner: c2, Days: 7},
		&IsNull{Inner: c1},
		&Unary{Op: OpAbs, Inner: c0},
		caseExpr,
		coal,
	}
	for _, e := range exprs {
		same, err := MapLeaves(e, identity)
		if err != nil || same != e {
			t.Errorf("identity map of %s returned a new node (err %v)", e, err)
		}
		me, err := MapLeaves(e, shiftCols(5))
		if err != nil {
			t.Fatalf("map %s: %v", e, err)
		}
		if me == e || me.String() != e.String() || !me.Type().Equal(e.Type()) {
			t.Errorf("map %s gave %s of type %v", e, me, me.Type())
		}
		var ords []int
		MapLeaves(me, colOrdinals(&ords))
		if len(ords) == 0 || slices.Min(ords) < 5 || slices.Max(ords) > 7 {
			t.Errorf("map %s left ordinals %v", e, ords)
		}
	}
	// The callback's error ends the map.
	gone := errors.New("column unavailable")
	drop := func(e Expr) (Expr, error) {
		if _, ok := e.(*ColRef); ok {
			return nil, gone
		}
		return e, nil
	}
	for _, e := range exprs {
		if out, err := MapLeaves(e, drop); err != gone || out != nil {
			t.Errorf("map %s with a failing callback: %v, %v", e, out, err)
		}
	}
}

func TestMapFilterLeavesCoversNodeKinds(t *testing.T) {
	c0 := Col(0, "a", types.Int64Type)
	c1 := Col(1, "s", types.StringType)
	filters := []Filter{
		MustCmp(kernels.CmpLe, c0, Int64Lit(3)),
		NewAnd(Eq(c0, Int64Lit(1)), Ne(c0, Int64Lit(2))),
		NewOr(Eq(c0, Int64Lit(1)), Eq(c0, Int64Lit(2))),
		NewNot(Eq(c0, Int64Lit(9))),
		NewBetween(c0, Int64Lit(1), Int64Lit(5)),
		NewIn(c0, []*Literal{Int64Lit(1), Int64Lit(7)}),
		NewIn(c1, []*Literal{StringLit("x"), NullLit(types.StringType)}),
		NewLike(c1, "a%", false),
		&IsNull{Inner: c1, Negate: true},
		&BoolColFilter{Inner: Eq(c0, Int64Lit(0))},
	}
	// Rows of (a, s), and the same rows behind one leading column.
	schema := types.NewSchema(types.Field{Name: "a", Type: types.Int64Type}, types.Field{Name: "s", Type: types.StringType})
	shifted := types.NewSchema(types.Field{Name: "pad", Type: types.BoolType},
		types.Field{Name: "a", Type: types.Int64Type}, types.Field{Name: "s", Type: types.StringType})
	b, sb := vector.NewBatch(schema, 8), vector.NewBatch(shifted, 8)
	for _, r := range [][]any{{int64(1), "abc"}, {int64(3), "x"}, {nil, "ab"}, {int64(7), nil}, {int64(0), ""}} {
		b.AppendRow(r...)
		sb.AppendRow(true, r[0], r[1])
	}
	for _, f := range filters {
		same, err := MapFilterLeaves(f, identity)
		if err != nil || same != f {
			t.Errorf("identity map of %s returned a new node (err %v)", f, err)
		}
		mf, err := MapFilterLeaves(f, shiftCols(1))
		if err != nil {
			t.Fatalf("map %s: %v", f, err)
		}
		var ords []int
		MapFilterLeaves(mf, colOrdinals(&ords))
		if mf == f || mf.String() != f.String() || slices.Min(ords) < 1 || slices.Max(ords) > 2 {
			t.Errorf("map %s gave %s over ordinals %v", f, mf, ords)
		}
		// The rebuilt node is prepared: IN lookups and LIKE patterns work.
		want, err1 := f.EvalSel(NewCtx(8), b, nil)
		got, err2 := mf.EvalSel(NewCtx(8), sb, nil)
		if err1 != nil || err2 != nil || !slices.Equal(got, want) {
			t.Errorf("%s selects %v (err %v) after the map, %v (err %v) before", f, got, err2, want, err1)
		}
	}

	// Literal bounds are leaves: a callback can rebind them, but not turn
	// them into anything but literals.
	bump := func(e Expr) (Expr, error) {
		if l, ok := e.(*Literal); ok && l.T.ID == types.Int64 {
			return Int64Lit(l.I64() + 1), nil
		}
		return e, nil
	}
	for f, want := range map[Filter]string{
		filters[4]: "(a BETWEEN 2 AND 6)",
		filters[5]: "(a IN (2, 8))",
	} {
		if mf, err := MapFilterLeaves(f, bump); err != nil || mf.String() != want {
			t.Errorf("rebinding %s gave %v (err %v), want %s", f, mf, err, want)
		}
		toCol := func(e Expr) (Expr, error) {
			if _, ok := e.(*Literal); ok {
				return c0, nil
			}
			return e, nil
		}
		if _, err := MapFilterLeaves(f, toCol); err == nil || !strings.Contains(err.Error(), "non-literal") {
			t.Errorf("a bound of %s mapped to a column: err %v", f, err)
		}
	}
}
