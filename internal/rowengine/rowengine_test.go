package rowengine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"photon/internal/exec"
	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// These tests double as the paper's §5.6 end-to-end consistency suite: the
// same logical computation runs through the Photon vectorized engine and
// the baseline row engine (in both Interpreted and Compiled modes) and the
// results must match exactly.

func sortAnyRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

func buildData(schema *types.Schema, rows [][]any) []*vector.Batch {
	return exec.BuildBatches(schema, rows, 64)
}

func TestScanPivot(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "a", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	rows := [][]any{{int64(1), "x"}, {nil, nil}, {int64(3), "z"}}
	got, err := CollectRows(NewScan(schema, buildData(schema, rows)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("scan pivot: %v", got)
	}
}

func TestFilterProjectBothModes(t *testing.T) {
	dec := types.DecimalType(12, 2)
	schema := types.NewSchema(
		types.Field{Name: "a", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "b", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "x", Type: dec, Nullable: true},
		types.Field{Name: "f", Type: types.BoolType, Nullable: true},
	)
	var rows [][]any
	for i := 0; i < 100; i++ {
		var s, f any = fmt.Sprint(i), i%3 == 0
		if i%10 == 0 {
			s = nil
		}
		if i%7 == 0 {
			f = nil
		}
		rows = append(rows, []any{int64(i), int64(i * 3), s, int32(i*100 - 3000), types.DecimalFromInt64(int64(i*125 - 5000)), f})
	}
	rows = append(rows, []any{nil, int64(5), nil, nil, nil, nil})
	colA := expr.Col(0, "a", types.Int64Type)
	colB := expr.Col(1, "b", types.Int64Type)
	colS := expr.Col(2, "s", types.StringType)
	colD := expr.Col(3, "d", types.DateType)
	colX := expr.Col(4, "x", dec)
	colF := expr.Col(5, "f", types.BoolType)
	null := expr.NullLit(types.Int64Type)
	// The first predicate's rows are pinned: 90..96 pass (b < 290 ⇒ a <
	// 96.67). The rest reach every filter node kind, each with NULLs.
	preds := []expr.Filter{
		expr.NewAnd(
			expr.MustCmp(kernels.CmpGe, colA, expr.Int64Lit(90)),
			expr.MustCmp(kernels.CmpLt, colB, expr.Int64Lit(290)),
		),
		expr.NewBetween(colA, expr.Int64Lit(10), expr.Int64Lit(20)),
		expr.NewBetween(colX, expr.DecimalLit("-10.5", 12, 1), expr.DecimalLit("20.25", 12, 2)),
		expr.NewBetween(colD, expr.DateLit(-500), expr.DateLit(2500)),
		expr.NewIn(colA, []*expr.Literal{expr.Int64Lit(3), expr.Int64Lit(50), expr.Int64Lit(77)}),
		expr.NewIn(colA, []*expr.Literal{expr.Int64Lit(3), null}),
		expr.NewNot(expr.NewIn(colA, []*expr.Literal{expr.Int64Lit(3), null})),
		expr.NewNot(expr.NewIn(colA, []*expr.Literal{expr.Int64Lit(3), expr.Int64Lit(4)})),
		expr.NewLike(colS, "%1%", false),
		expr.NewLike(colS, "%1%", true),
		expr.NewNot(expr.MustCmp(kernels.CmpLt, colA, expr.Int64Lit(50))),
		expr.NewOr(expr.MustCmp(kernels.CmpLt, colA, expr.Int64Lit(5)), expr.NewLike(colS, "9%", false)),
		expr.NewNot(expr.NewOr(expr.MustCmp(kernels.CmpGt, colA, expr.Int64Lit(95)), expr.NewLike(colS, "%5", false))),
		&expr.BoolColFilter{Inner: colF},
		expr.NewNot(&expr.BoolColFilter{Inner: colF}),
		&expr.IsNull{Inner: colS},
		&expr.IsNull{Inner: colS, Negate: true},
		expr.MustCmp(kernels.CmpGt, expr.MustArith(expr.OpMul, colX, colX), expr.DecimalLit("100.5", 12, 1)),
	}
	proj := []expr.Expr{expr.MustArith(expr.OpAdd, colA, colB)}
	outSchema := types.NewSchema(types.Field{Name: "sum", Type: types.Int64Type, Nullable: true})

	for pi, pred := range preds {
		photon, err := exec.CollectRows(exec.NewProject(exec.NewFilter(
			exec.NewMemScan(schema, buildData(schema, rows)), pred), proj, []string{"sum"}), exec.NewTaskCtx(nil, 64))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{Interpreted, Compiled} {
			p, err := CompilePred(pred, mode)
			if err != nil {
				t.Fatal(err)
			}
			exprs, err := compileAll(proj, mode)
			if err != nil {
				t.Fatal(err)
			}
			plan := NewProject(NewFilter(NewScan(schema, buildData(schema, rows)), p), exprs, outSchema)
			got, err := CollectRows(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, photon) {
				t.Errorf("pred %d (%s) mode %v: photon %v, row %v", pi, pred, mode, photon, got)
			}
		}
		if pi == 0 && len(photon) != 7 {
			t.Errorf("rows = %d: %v", len(photon), photon)
		}
	}
}

// crossEngine runs the same scan→filter→agg in Photon and the row engine.
func TestCrossEngineAggConsistency(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "g", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "v", Type: types.DecimalType(12, 2), Nullable: true},
	)
	dec := func(s string) types.Decimal128 {
		d, _ := types.ParseDecimal(s, 2)
		return d
	}
	var rows [][]any
	for i := 0; i < 300; i++ {
		var g any = int64(i % 7)
		var v any = dec(fmt.Sprintf("%d.%02d", i, i%100))
		if i%11 == 0 {
			v = nil
		}
		if i%13 == 0 {
			g = nil
		}
		rows = append(rows, []any{g, v})
	}
	keys := []expr.Expr{expr.Col(0, "g", types.Int64Type)}
	specs := []expr.AggSpec{
		{Kind: expr.AggCount, Name: "c"},
		{Kind: expr.AggSum, Arg: expr.Col(1, "v", types.DecimalType(12, 2)), Name: "s"},
		{Kind: expr.AggAvg, Arg: expr.Col(1, "v", types.DecimalType(12, 2)), Name: "a"},
		{Kind: expr.AggMin, Arg: expr.Col(1, "v", types.DecimalType(12, 2)), Name: "mn"},
		{Kind: expr.AggMax, Arg: expr.Col(1, "v", types.DecimalType(12, 2)), Name: "mx"},
	}

	// Photon.
	pScan := exec.NewMemScan(schema, buildData(schema, rows))
	pAgg, err := exec.NewHashAgg(pScan, exec.AggComplete, keys, []string{"g"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	tc := exec.NewTaskCtx(nil, 64)
	want, err := exec.CollectRows(pAgg, tc)
	if err != nil {
		t.Fatal(err)
	}

	// Row engine, both modes.
	for _, mode := range []Mode{Interpreted, Compiled} {
		rAgg, err := NewHashAgg(NewScan(schema, buildData(schema, rows)), keys, []string{"g"}, specs, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectRows(rAgg)
		if err != nil {
			t.Fatal(err)
		}
		sortAnyRows(want)
		sortAnyRows(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode %v: engines disagree\nphoton: %v\nrow:    %v", mode, want, got)
		}
	}
}

func TestCrossEngineJoinConsistency(t *testing.T) {
	ls := types.NewSchema(
		types.Field{Name: "k", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "lv", Type: types.Int64Type, Nullable: true},
	)
	rs := types.NewSchema(
		types.Field{Name: "k", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "rv", Type: types.Int64Type, Nullable: true},
	)
	var lrows, rrows [][]any
	for i := 0; i < 200; i++ {
		var k any = int64(i % 40)
		if i%17 == 0 {
			k = nil
		}
		lrows = append(lrows, []any{k, int64(i)})
	}
	for i := 0; i < 120; i++ {
		rrows = append(rrows, []any{int64(i % 60), int64(i * 10)})
	}
	lk := []expr.Expr{expr.Col(0, "k", types.Int64Type)}
	rk := []expr.Expr{expr.Col(0, "k", types.Int64Type)}

	for _, jt := range []exec.JoinType{exec.InnerJoin, exec.LeftOuterJoin, exec.LeftSemiJoin, exec.LeftAntiJoin} {
		pj, err := exec.NewHashJoin(
			exec.NewMemScan(ls, buildData(ls, lrows)),
			exec.NewMemScan(rs, buildData(rs, rrows)),
			lk, rk, jt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.CollectRows(pj, exec.NewTaskCtx(nil, 64))
		if err != nil {
			t.Fatal(err)
		}
		rj, err := NewShuffledHashJoin(
			NewScan(ls, buildData(ls, lrows)),
			NewScan(rs, buildData(rs, rrows)),
			lk, rk, JoinType(jt), Compiled)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectRows(rj)
		if err != nil {
			t.Fatal(err)
		}
		sortAnyRows(want)
		sortAnyRows(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("join type %v: engines disagree (photon %d rows, row %d rows)", jt, len(want), len(got))
		}
		// Inner joins additionally must match sort-merge join.
		if jt == exec.InnerJoin {
			smj, err := NewSortMergeJoin(
				NewScan(ls, buildData(ls, lrows)),
				NewScan(rs, buildData(rs, rrows)),
				lk, rk, Compiled)
			if err != nil {
				t.Fatal(err)
			}
			gotSMJ, err := CollectRows(smj)
			if err != nil {
				t.Fatal(err)
			}
			sortAnyRows(gotSMJ)
			if !reflect.DeepEqual(gotSMJ, want) {
				t.Errorf("SMJ disagrees with hash joins: %d vs %d rows", len(gotSMJ), len(want))
			}
		}
	}
}

func TestCollectListMatchesPhoton(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "g", Type: types.Int64Type},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	var rows [][]any
	for i := 0; i < 50; i++ {
		rows = append(rows, []any{int64(i % 5), fmt.Sprintf("s%02d", i)})
	}
	keys := []expr.Expr{expr.Col(0, "g", types.Int64Type)}
	specs := []expr.AggSpec{{Kind: expr.AggCollectList, Arg: expr.Col(1, "s", types.StringType), Name: "l"}}

	pAgg, _ := exec.NewHashAgg(exec.NewMemScan(schema, buildData(schema, rows)), exec.AggComplete, keys, []string{"g"}, specs)
	want, err := exec.CollectRows(pAgg, exec.NewTaskCtx(nil, 64))
	if err != nil {
		t.Fatal(err)
	}
	rAgg, _ := NewHashAgg(NewScan(schema, buildData(schema, rows)), keys, []string{"g"}, specs, Compiled)
	got, err := CollectRows(rAgg)
	if err != nil {
		t.Fatal(err)
	}
	sortAnyRows(want)
	sortAnyRows(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("collect_list disagreement:\nphoton %v\nrow    %v", want, got)
	}
}

func TestRowSort(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "v", Type: types.Int64Type, Nullable: true})
	rows := [][]any{{int64(3)}, {nil}, {int64(1)}, {int64(2)}}
	s := NewSort(NewScan(schema, buildData(schema, rows)), []SortKey{{Col: 0}})
	got, err := CollectRows(s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{nil}, {int64(1)}, {int64(2)}, {int64(3)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("row sort: %v", got)
	}
}

func TestRowLimit(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "v", Type: types.Int64Type})
	var rows [][]any
	for i := 0; i < 10; i++ {
		rows = append(rows, []any{int64(i)})
	}
	got, err := CollectRows(NewLimit(NewScan(schema, buildData(schema, rows)), 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("limit: %d rows", len(got))
	}
}

// Fuzz-style consistency: random data and random simple expressions through
// both engines (§5.6's third testing tier).
func TestFuzzExpressionConsistency(t *testing.T) {
	dec := types.DecimalType(12, 2)
	schema := types.NewSchema(
		types.Field{Name: "a", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "x", Type: dec, Nullable: true},
	)
	colA := expr.Col(0, "a", types.Int64Type)
	colS := expr.Col(1, "s", types.StringType)
	colD := expr.Col(2, "d", types.DateType)
	colX := expr.Col(3, "x", dec)
	coalesce, err := expr.NewCoalesce(colS, expr.StringLit("none"))
	if err != nil {
		t.Fatal(err)
	}
	exprs := []expr.Expr{
		expr.MustArith(expr.OpAdd, colA, expr.Int64Lit(7)),
		expr.MustArith(expr.OpMul, colA, colA),
		expr.Upper(colS),
		expr.Lower(colS),
		expr.Length(colS),
		expr.Substr(colS, 2, 3),
		expr.NewCast(colA, types.StringType),
		expr.NewCast(colS, types.Int64Type),
		mustCase(t, colA),
		coalesce,
		&expr.Unary{Op: expr.OpNeg, Inner: colA},
		&expr.Unary{Op: expr.OpAbs, Inner: colX},
		&expr.Unary{Op: expr.OpSqrt, Inner: expr.NewCast(&expr.Unary{Op: expr.OpAbs, Inner: colA}, types.Float64Type)},
		expr.Year(colD),
		expr.Month(colD),
		expr.Day(colD),
		&expr.DateAdd{Inner: colD, Days: -45},
		expr.Concat(colS, expr.StringLit("!")),
		expr.Concat(colS, colS),
		expr.MustCmp(kernels.CmpLt, colA, expr.Int64Lit(0)),
		&expr.IsNull{Inner: colS},
		&expr.IsNull{Inner: colA, Negate: true},
		expr.MustArith(expr.OpAdd, colX, expr.DecimalLit("0.125", 12, 3)),
		expr.MustArith(expr.OpSub, colX, colX),
		expr.MustArith(expr.OpMul, colX, colX),
		expr.MustArith(expr.OpDiv, colX, expr.DecimalLit("3.00", 12, 2)),
	}
	seeds := []int64{1, 2, 3}
	for _, seed := range seeds {
		rows := fuzzRows(seed, 200)
		for ei, e := range exprs {
			// Photon.
			scan := exec.NewMemScan(schema, buildData(schema, rows))
			proj := exec.NewProject(scan, []expr.Expr{e}, []string{"r"})
			want, err := exec.CollectRows(proj, exec.NewTaskCtx(nil, 64))
			if err != nil {
				t.Fatal(err)
			}
			// Row engine.
			for _, mode := range []Mode{Interpreted, Compiled} {
				fn, err := CompileExpr(e, mode)
				if err != nil {
					t.Fatal(err)
				}
				outSchema := types.NewSchema(types.Field{Name: "r", Type: e.Type(), Nullable: true})
				plan := NewProject(NewScan(schema, buildData(schema, rows)), []RowExpr{fn}, outSchema)
				got, err := CollectRows(plan)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("expr %d (%s) mode %v seed %d row %d (input %v): photon=%v row=%v",
								ei, e, mode, seed, i, rows[i], want[i], got[i])
						}
					}
				}
			}
		}
	}
}

func mustCase(t *testing.T, colA expr.Expr) expr.Expr {
	t.Helper()
	c, err := expr.NewCase([]expr.CaseBranch{
		{When: expr.MustCmp(kernels.CmpLt, colA, expr.Int64Lit(0)), Then: expr.StringLit("neg")},
		{When: expr.MustCmp(kernels.CmpEq, colA, expr.Int64Lit(0)), Then: expr.StringLit("zero")},
	}, expr.StringLit("pos"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fuzzRows(seed int64, n int) [][]any {
	// Simple deterministic generator with NULLs, non-ASCII, numeric strings,
	// placeholder values, dates either side of 1970 and DECIMALs of both
	// signs — the raw uncurated shapes §1 describes.
	var rows [][]any
	state := uint64(seed)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 16
	}
	samples := []string{"hello", "WORLD", "héllo wörld", "123", "-45", "", "N/A", "null", "9999999999999999999999", "café"}
	for i := 0; i < n; i++ {
		var a, s, d, x any
		if next()%7 != 0 {
			a = int64(next()%2000) - 1000
		}
		if next()%9 != 0 {
			s = samples[next()%uint64(len(samples))]
		}
		if next()%11 != 0 {
			d = int32(next()%40000) - 20000
		}
		if next()%13 != 0 {
			x = types.DecimalFromInt64(int64(next()%200000) - 100000)
		}
		rows = append(rows, []any{a, s, d, x})
	}
	return rows
}
