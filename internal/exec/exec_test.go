package exec

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

func intSchema(names ...string) *types.Schema {
	fields := make([]types.Field, len(names))
	for i, n := range names {
		fields[i] = types.Field{Name: n, Type: types.Int64Type, Nullable: true}
	}
	return &types.Schema{Fields: fields}
}

func newTC(t *testing.T) *TaskCtx {
	t.Helper()
	tc := NewTaskCtx(nil, 64)
	tc.SpillDir = t.TempDir()
	return tc
}

func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

func TestScanFilterProject(t *testing.T) {
	schema := intSchema("a", "b")
	var rows [][]any
	for i := 0; i < 200; i++ {
		rows = append(rows, []any{int64(i), int64(i * 2)})
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	filt := NewFilter(scan, expr.MustCmp(kernels.CmpGe, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(195)))
	proj := NewProject(filt, []expr.Expr{
		expr.Col(1, "b", types.Int64Type),
		expr.MustArith(expr.OpAdd, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(1000)),
	}, []string{"b", "a1k"})

	got, err := CollectRows(proj, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0][0].(int64) != 390 || got[0][1].(int64) != 1195 {
		t.Errorf("first row = %v", got[0])
	}
}

func TestFilterAllOrNothing(t *testing.T) {
	schema := intSchema("a")
	rows := [][]any{{int64(1)}, {int64(2)}, {int64(3)}}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	none := NewFilter(scan, expr.MustCmp(kernels.CmpGt, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(99)))
	got, err := CollectRows(none, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("expected no rows, got %v", got)
	}
	scan2 := NewMemScan(schema, BuildBatches(schema, rows, 64))
	all := NewFilter(scan2, expr.MustCmp(kernels.CmpGt, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(0)))
	got, err = CollectRows(all, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("expected all rows, got %d", len(got))
	}
}

func TestHashAggGrouped(t *testing.T) {
	schema := intSchema("g", "v")
	var rows [][]any
	for i := 0; i < 100; i++ {
		rows = append(rows, []any{int64(i % 4), int64(i)})
	}
	rows = append(rows, []any{nil, int64(1000)}) // NULL group
	scan := NewMemScan(schema, BuildBatches(schema, rows, 32))
	agg, err := NewHashAgg(scan, AggComplete,
		[]expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{
			{Kind: expr.AggCount, Name: "cnt"},
			{Kind: expr.AggSum, Arg: expr.Col(1, "v", types.Int64Type), Name: "s"},
			{Kind: expr.AggMin, Arg: expr.Col(1, "v", types.Int64Type), Name: "mn"},
			{Kind: expr.AggMax, Arg: expr.Col(1, "v", types.Int64Type), Name: "mx"},
			{Kind: expr.AggAvg, Arg: expr.Col(1, "v", types.Int64Type), Name: "av"},
		})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(agg, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("groups = %d, want 5", len(got))
	}
	byGroup := map[any][]any{}
	for _, r := range got {
		byGroup[r[0]] = r
	}
	// Group 0: values 0,4,...,96 → count 25, sum 1200, min 0, max 96, avg 48.
	g0 := byGroup[int64(0)]
	if g0[1].(int64) != 25 || g0[2].(int64) != 1200 || g0[3].(int64) != 0 || g0[4].(int64) != 96 || g0[5].(float64) != 48 {
		t.Errorf("group 0 = %v", g0)
	}
	gn := byGroup[nil]
	if gn == nil || gn[1].(int64) != 1 || gn[2].(int64) != 1000 {
		t.Errorf("NULL group = %v", gn)
	}
}

func TestHashAggGlobalAndNullHandling(t *testing.T) {
	schema := intSchema("v")
	rows := [][]any{{int64(10)}, {nil}, {int64(20)}, {nil}}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	agg, err := NewHashAgg(scan, AggComplete, nil, nil, []expr.AggSpec{
		{Kind: expr.AggCount, Name: "cnt_star"},                                      // count(*) counts all rows
		{Kind: expr.AggCount, Arg: expr.Col(0, "v", types.Int64Type), Name: "cnt_v"}, // skips NULLs
		{Kind: expr.AggSum, Arg: expr.Col(0, "v", types.Int64Type), Name: "s"},
		{Kind: expr.AggAvg, Arg: expr.Col(0, "v", types.Int64Type), Name: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(agg, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rows = %d", len(got))
	}
	r := got[0]
	if r[0].(int64) != 4 || r[1].(int64) != 2 || r[2].(int64) != 30 || r[3].(float64) != 15 {
		t.Errorf("global agg = %v", r)
	}
}

func TestHashAggSumAllNullIsNull(t *testing.T) {
	schema := intSchema("v")
	rows := [][]any{{nil}, {nil}}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	agg, _ := NewHashAgg(scan, AggComplete, nil, nil, []expr.AggSpec{
		{Kind: expr.AggSum, Arg: expr.Col(0, "v", types.Int64Type), Name: "s"},
	})
	got, err := CollectRows(agg, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != nil {
		t.Errorf("sum of all NULLs = %v, want NULL", got[0][0])
	}
}

func TestHashAggDecimalSumAvg(t *testing.T) {
	dt := types.DecimalType(12, 2)
	schema := types.NewSchema(
		types.Field{Name: "g", Type: types.Int64Type},
		types.Field{Name: "d", Type: dt, Nullable: true},
	)
	dec := func(s string) types.Decimal128 {
		d, _ := types.ParseDecimal(s, 2)
		return d
	}
	rows := [][]any{
		{int64(1), dec("10.50")},
		{int64(1), dec("0.25")},
		{int64(2), dec("99.99")},
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	agg, err := NewHashAgg(scan, AggComplete, []expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{
			{Kind: expr.AggSum, Arg: expr.Col(1, "d", dt), Name: "s"},
			{Kind: expr.AggAvg, Arg: expr.Col(1, "d", dt), Name: "a"},
		})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(agg, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	byG := map[any][]any{}
	for _, r := range got {
		byG[r[0]] = r
	}
	if s := byG[int64(1)][1].(types.Decimal128); types.FormatDecimal(s, 2) != "10.75" {
		t.Errorf("sum = %s", types.FormatDecimal(s, 2))
	}
	// avg scale = 2+4 = 6: 10.75/2 = 5.375000
	if a := byG[int64(1)][2].(types.Decimal128); types.FormatDecimal(a, 6) != "5.375000" {
		t.Errorf("avg = %s", types.FormatDecimal(a, 6))
	}
}

func TestHashAggCollectList(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "g", Type: types.Int64Type},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	rows := [][]any{
		{int64(1), "a"}, {int64(2), "x"}, {int64(1), "b"}, {int64(1), "c"}, {int64(2), nil},
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 2))
	agg, err := NewHashAgg(scan, AggComplete, []expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{{Kind: expr.AggCollectList, Arg: expr.Col(1, "s", types.StringType), Name: "l"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(agg, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	byG := map[any]any{}
	for _, r := range got {
		byG[r[0]] = r[1]
	}
	if byG[int64(1)] != "[a, b, c]" {
		t.Errorf("collect_list g1 = %v", byG[int64(1)])
	}
	if byG[int64(2)] != "[x]" {
		t.Errorf("collect_list g2 = %v (NULLs are skipped)", byG[int64(2)])
	}
}

func TestHashAggCountDistinct(t *testing.T) {
	schema := intSchema("g", "v")
	rows := [][]any{
		{int64(1), int64(5)}, {int64(1), int64(5)}, {int64(1), int64(6)},
		{int64(2), int64(7)}, {int64(2), nil},
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	agg, err := NewHashAgg(scan, AggComplete, []expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{{Kind: expr.AggCount, Arg: expr.Col(1, "v", types.Int64Type), Distinct: true, Name: "cd"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(agg, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	byG := map[any]any{}
	for _, r := range got {
		byG[r[0]] = r[1]
	}
	if byG[int64(1)].(int64) != 2 || byG[int64(2)].(int64) != 1 {
		t.Errorf("count distinct: %v", byG)
	}
}

// TestHashAggPartialFinalEquivalence runs every aggregate kind through
// partial→final and through one complete aggregation and compares the rows,
// floats at nine significant digits. The inputs are 40k rows in 2,048-row
// batches: few groups with few distinct values (the partial reduces), unique
// keys (it keeps every row), and few groups whose DISTINCT arguments rarely
// repeat (its sets keep almost every row), each with no, some and only NULL
// arguments.
func TestHashAggPartialFinalEquivalence(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "g", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "l", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "m", Type: types.DecimalType(12, 2), Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "b", Type: types.BoolType, Nullable: true},
		types.Field{Name: "i", Type: types.Int32Type, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "ts", Type: types.TimestampType, Nullable: true},
	)
	col := func(i int) expr.Expr { return expr.Col(i, schema.Field(i).Name, schema.Field(i).Type) }
	const l, s, m, f = 1, 2, 3, 4
	specs := []expr.AggSpec{
		{Kind: expr.AggCount},
		{Kind: expr.AggCount, Arg: col(l)},
		{Kind: expr.AggCount, Arg: col(s)},
		{Kind: expr.AggCount, Arg: col(l), Distinct: true},
		{Kind: expr.AggCount, Arg: col(s), Distinct: true},
		{Kind: expr.AggCount, Arg: col(m), Distinct: true},
		{Kind: expr.AggCollectList, Arg: col(s)},
		{Kind: expr.AggCollectList, Arg: col(l)},
	}
	for _, c := range []int{l, m, f} {
		specs = append(specs, expr.AggSpec{Kind: expr.AggSum, Arg: col(c)}, expr.AggSpec{Kind: expr.AggAvg, Arg: col(c)})
	}
	for c := 1; c < schema.Len(); c++ {
		specs = append(specs, expr.AggSpec{Kind: expr.AggMin, Arg: col(c)}, expr.AggSpec{Kind: expr.AggMax, Arg: col(c)})
	}
	for i := range specs {
		specs[i].Name = fmt.Sprintf("a%d", i)
	}
	keys := []expr.Expr{col(0)}

	const n = 40_000
	shapes := []struct {
		name  string
		key   func(i int) int64
		value func(i int) int // what the arguments derive from
	}{
		{"reducing", func(i int) int64 { return int64(i % 13) }, func(i int) int { return i * 7919 % 211 }},
		{"unique", func(i int) int64 { return int64(i) }, func(i int) int { return i * 7919 % 100_003 }},
		{"distinct-heavy", func(i int) int64 { return int64(i % 13) }, func(i int) int { return i * 7919 % 100_003 }},
	}
	nulls := []struct {
		name string
		null func(i, c int) bool
	}{
		{"no-nulls", func(i, c int) bool { return false }},
		{"some-nulls", func(i, c int) bool { return (i+c)%7 == 0 }},
		{"all-null", func(i, c int) bool { return c > 0 }},
	}
	for _, sh := range shapes {
		for _, nl := range nulls {
			t.Run(sh.name+"/"+nl.name, func(t *testing.T) {
				rows := make([][]any, n)
				for i := range rows {
					v := sh.value(i)
					row := []any{sh.key(i), int64(v) - 50, fmt.Sprintf("s%d", v), types.DecimalFromInt64(int64(v)*37 - 1000),
						float64(v)/7 - 5, v%3 == 0, int32(v) - 30, int32(9000 + v), int64(v) * 1e9}
					for c := range row {
						if nl.null(i, c) {
							row[c] = nil
						}
					}
					rows[i] = row
				}
				run := func(plan func(Operator) Operator) [][]any {
					got, err := CollectRows(plan(NewMemScan(schema, BuildBatches(schema, rows, 2048))), NewTaskCtx(nil, 2048))
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range got {
						for c, x := range r {
							if x, ok := x.(float64); ok {
								r[c] = fmt.Sprintf("%.9g", x)
							}
						}
					}
					// Group keys are unique, so the key orders the rows (NULL first).
					sort.Slice(got, func(i, j int) bool {
						a, b := got[i][0], got[j][0]
						return a == nil && b != nil || a != nil && b != nil && a.(int64) < b.(int64)
					})
					return got
				}
				agg := func(child Operator, mode AggMode) Operator {
					op, err := NewHashAgg(child, mode, keys, []string{"g"}, specs)
					if err != nil {
						t.Fatal(err)
					}
					return op
				}
				want := run(func(scan Operator) Operator { return agg(scan, AggComplete) })
				got := run(func(scan Operator) Operator { return agg(agg(scan, AggPartial), AggFinal) })
				if len(got) != len(want) {
					t.Fatalf("partial+final: %d groups, complete: %d", len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("partial+final != complete at group %d\n got %v\nwant %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestHashAggSpilling groups rows of every type on a string and a bool key,
// with a min and a max of every column, under a limit that spills.
func TestHashAggSpilling(t *testing.T) {
	schema := spillSchema()
	rows := spillRows(5000, 5)
	col := func(i int) expr.Expr { return expr.Col(i, schema.Field(i).Name, schema.Field(i).Type) }
	newAgg := func() *HashAggOp {
		specs := []expr.AggSpec{{Kind: expr.AggCount, Name: "c"}, {Kind: expr.AggSum, Arg: col(8), Name: "sm"}}
		for i := 2; i < schema.Len(); i++ {
			specs = append(specs, expr.AggSpec{Kind: expr.AggMin, Arg: col(i)}, expr.AggSpec{Kind: expr.AggMax, Arg: col(i)})
		}
		scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
		agg, err := NewHashAgg(scan, AggComplete, []expr.Expr{col(1), col(2)}, []string{"s", "b"}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	agg := newAgg()
	tc := NewTaskCtx(mem.NewManager(96<<10), 64) // tiny limit forces spills
	tc.SpillDir = t.TempDir()
	got, err := CollectRows(agg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Stats().SpillCount.Load() == 0 {
		t.Error("expected at least one spill under a 96KB limit")
	}
	expectNoSpillFiles(t, tc)
	// Spill epochs and the 16 partition merges borrow their partial-state
	// buffer from the task's pool: one allocation, then hits.
	if tc.Pool.Hits == 0 {
		t.Errorf("spill and partition merge bypassed the batch pool: hits=%d misses=%d", tc.Pool.Hits, tc.Pool.Misses)
	}
	// Verify against unconstrained run.
	want, err := CollectRows(newAgg(), newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	sortRows(got)
	sortRows(want)
	if len(got) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("spilled aggregation differs from in-memory aggregation")
	}
}

// TestPivotRowsMatchesAppendRow: the column-at-a-time pivot builds the
// batches row-at-a-time AppendRow builds, for every type, NULLs, empty
// strings and []byte values included.
func TestPivotRowsMatchesAppendRow(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "b", Type: types.BoolType, Nullable: true},
		types.Field{Name: "i", Type: types.Int32Type, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "l", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "ts", Type: types.TimestampType, Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "m", Type: types.DecimalType(12, 2), Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "e", Type: types.StringType}, // empty, never NULL
	)
	var rows, want [][]any
	for i := 0; i < 8; i++ {
		row := []any{i%2 == 0, int32(i), int32(9000 + i), int64(i) << 40, int64(i) * 1e9,
			float64(i) / 3, types.DecimalFromInt64(int64(i) * 101), fmt.Sprintf("s%d", i), ""}
		if i%3 == 1 {
			clear(row[:8])
		}
		want = append(want, row)
		if i == 5 {
			row = append([]any(nil), row...)
			row[7] = []byte("s5")
		}
		rows = append(rows, row)
	}
	got, err := PivotRows(schema, rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d batches, want 3", len(got))
	}
	for k, b := range got {
		w := vector.NewBatch(schema, 3)
		for _, row := range want[3*k : min(3*k+3, len(want))] {
			w.AppendRow(row...)
		}
		if !reflect.DeepEqual(b.Rows(), w.Rows()) {
			t.Errorf("batch %d: %v, want %v", k, b.Rows(), w.Rows())
		}
		for c, v := range b.Vecs {
			if v.HasNulls() != w.Vecs[c].HasNulls() {
				t.Errorf("batch %d column %d: HasNulls %v, want %v", k, c, v.HasNulls(), w.Vecs[c].HasNulls())
			}
		}
	}
}

// TestCollectAllKeepsSparseStrings: CollectAll keeps the active rows of
// batches that its input refills and scribbles over — one row in three
// active, strings NULL, empty and long — and hands back exactly those rows,
// with NULL metadata that covers them.
func TestCollectAllKeepsSparseStrings(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	var rows, want [][]any
	for i := 0; i < 500; i++ {
		var s any = fmt.Sprintf("row-%d-%s", i, strings.Repeat("z", i%37))
		switch i % 5 {
		case 1:
			s = nil
		case 2:
			s = ""
		}
		var id any = int64(i)
		if i%7 == 0 {
			id = nil
		}
		rows = append(rows, []any{id, s})
	}
	batches := BuildBatches(schema, rows, 64)
	for lo := 0; lo < len(rows); lo += 64 {
		for r := lo; r < min(lo+64, len(rows)); r += 3 {
			want = append(want, rows[r])
		}
	}
	src := NewSource("volatile", schema, func() (Source, error) { return &volatileSource{batches: batches}, nil })
	kept, err := CollectAll(src, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	var got [][]any
	for _, b := range kept {
		for c, v := range b.Vecs {
			for j := 0; j < b.NumActive(); j++ {
				if v.IsNull(b.RowIndex(j)) && !v.HasNulls() {
					t.Fatalf("column %d holds a NULL under hasNulls=false", c)
				}
			}
		}
		got = append(got, b.Rows()...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("collected %d rows, want %d; first %v vs %v", len(got), len(want), got[:min(3, len(got))], want[:3])
	}
}
