package delta

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/storage/parquet"
	"photon/internal/types"
	"photon/internal/vector"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "name", Type: types.StringType, Nullable: true},
	)
}

func makeBatch(t *testing.T, schema *types.Schema, rows [][]any) *vector.Batch {
	t.Helper()
	b := vector.NewBatch(schema, max(len(rows), 1))
	for _, r := range rows {
		b.AppendRow(r...)
	}
	return b
}

func readAll(t *testing.T, tbl *Table, snap *Snapshot) [][]any {
	t.Helper()
	var rows [][]any
	for i := range snap.Files {
		r, err := tbl.OpenDataFile(&snap.Files[i])
		if err != nil {
			t.Fatal(err)
		}
		batches, err := r.ReadAll(256)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			rows = append(rows, b.Rows()...)
		}
	}
	return rows
}

func TestCreateAppendRead(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	schema := testSchema()
	tbl, err := Create(dir, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows1 := [][]any{{int64(1), "a"}, {int64(2), nil}}
	rows2 := [][]any{{int64(3), "c"}}
	if err := tbl.Append([]*vector.Batch{makeBatch(t, schema, rows1)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]*vector.Batch{makeBatch(t, schema, rows2)}, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.Snapshot(-1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || len(snap.Files) != 2 {
		t.Fatalf("version=%d files=%d", snap.Version, len(snap.Files))
	}
	if !snap.Schema.Equal(schema) {
		t.Error("schema did not round trip")
	}
	got := readAll(t, tbl, snap)
	want := append(append([][]any{}, rows1...), rows2...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("table contents: %v", got)
	}
}

func TestTimeTravel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	schema := testSchema()
	tbl, _ := Create(dir, schema, nil)
	_ = tbl.Append([]*vector.Batch{makeBatch(t, schema, [][]any{{int64(1), "v1"}})}, nil)
	_ = tbl.Overwrite([]*vector.Batch{makeBatch(t, schema, [][]any{{int64(2), "v2"}})})

	// Version 1 sees the original file; latest sees only the overwrite.
	v1, err := tbl.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if rows := readAll(t, tbl, v1); len(rows) != 1 || rows[0][1] != "v1" {
		t.Errorf("time travel v1: %v", rows)
	}
	latest, _ := tbl.Snapshot(-1)
	if rows := readAll(t, tbl, latest); len(rows) != 1 || rows[0][1] != "v2" {
		t.Errorf("latest: %v", rows)
	}
	if len(latest.Files) != 1 {
		t.Errorf("overwrite left %d files live", len(latest.Files))
	}
}

func TestCreateTwiceFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	if _, err := Create(dir, testSchema(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, testSchema(), nil); err == nil {
		t.Error("second Create should fail")
	}
	if _, err := Open(dir); err != nil {
		t.Errorf("Open should succeed: %v", err)
	}
	if _, err := Open(filepath.Join(dir, "nope")); err == nil {
		t.Error("Open of missing table should fail")
	}
}

func TestConcurrentAppendsAllSurvive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	schema := testSchema()
	tbl, _ := Create(dir, schema, nil)
	var wg sync.WaitGroup
	const writers = 8
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = tbl.Append([]*vector.Batch{
				makeBatch(t, schema, [][]any{{int64(w), "w"}}),
			}, nil)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	snap, _ := tbl.Snapshot(-1)
	if len(snap.Files) != writers {
		t.Errorf("files = %d, want %d (optimistic concurrency must retry)", len(snap.Files), writers)
	}
	rows := readAll(t, tbl, snap)
	if len(rows) != writers {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestDataSkipping(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	schema := types.NewSchema(
		types.Field{Name: "v", Type: types.Int64Type},
		types.Field{Name: "s", Type: types.StringType},
	)
	tbl, _ := Create(dir, schema, nil)
	// Three files with disjoint ranges: [0,99], [100,199], [200,299].
	for f := 0; f < 3; f++ {
		var rows [][]any
		for i := 0; i < 100; i++ {
			rows = append(rows, []any{int64(f*100 + i), "x"})
		}
		if err := tbl.Append([]*vector.Batch{makeBatch(t, schema, rows)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := tbl.Snapshot(-1)
	col := expr.Col(0, "v", types.Int64Type)

	cases := []struct {
		name   string
		filter expr.Filter
		want   int
	}{
		{"eq_in_second", expr.MustCmp(kernels.CmpEq, col, expr.Int64Lit(150)), 1},
		{"eq_nowhere", expr.MustCmp(kernels.CmpEq, col, expr.Int64Lit(999)), 0},
		{"gt_250", expr.MustCmp(kernels.CmpGt, col, expr.Int64Lit(250)), 1},
		{"ge_100", expr.MustCmp(kernels.CmpGe, col, expr.Int64Lit(100)), 2},
		{"lt_100", expr.MustCmp(kernels.CmpLt, col, expr.Int64Lit(100)), 1},
		{"between", expr.NewBetween(col, expr.Int64Lit(90), expr.Int64Lit(110)), 2},
		{"in_list", expr.NewIn(col, []*expr.Literal{expr.Int64Lit(5), expr.Int64Lit(205)}), 2},
		{"and_narrow", expr.NewAnd(
			expr.MustCmp(kernels.CmpGe, col, expr.Int64Lit(120)),
			expr.MustCmp(kernels.CmpLe, col, expr.Int64Lit(130))), 1},
		{"or_wide", expr.NewOr(
			expr.MustCmp(kernels.CmpLt, col, expr.Int64Lit(50)),
			expr.MustCmp(kernels.CmpGt, col, expr.Int64Lit(250))), 2},
		{"lit_on_left", expr.MustCmp(kernels.CmpGt, expr.Int64Lit(99), col), 1}, // 99 > v ⇒ v < 99
		{"nil_keeps_all", nil, 3},
	}
	for _, c := range cases {
		got := snap.PruneFiles(c.filter)
		if len(got) != c.want {
			t.Errorf("%s: kept %d files, want %d", c.name, len(got), c.want)
		}
	}
}

func TestSkippingNullStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	schema := types.NewSchema(types.Field{Name: "v", Type: types.Int64Type, Nullable: true})
	tbl, _ := Create(dir, schema, nil)
	_ = tbl.Append([]*vector.Batch{makeBatch(t, schema, [][]any{{nil}, {nil}})}, nil)
	_ = tbl.Append([]*vector.Batch{makeBatch(t, schema, [][]any{{int64(5)}})}, nil)
	snap, _ := tbl.Snapshot(-1)
	col := expr.Col(0, "v", types.Int64Type)

	if got := snap.PruneFiles(&expr.IsNull{Inner: col}); len(got) != 1 {
		t.Errorf("IS NULL kept %d files", len(got))
	}
	if got := snap.PruneFiles(&expr.IsNull{Inner: col, Negate: true}); len(got) != 1 {
		t.Errorf("IS NOT NULL kept %d files", len(got))
	}
	// All-NULL file can never satisfy a comparison.
	if got := snap.PruneFiles(expr.MustCmp(kernels.CmpEq, col, expr.Int64Lit(5))); len(got) != 1 {
		t.Errorf("eq over null file kept %d files", len(got))
	}
}

func TestStringAndDecimalStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	dt := types.DecimalType(10, 2)
	schema := types.NewSchema(
		types.Field{Name: "s", Type: types.StringType},
		types.Field{Name: "d", Type: dt},
	)
	tbl, _ := Create(dir, schema, nil)
	dec := func(s string) types.Decimal128 {
		d, _ := types.ParseDecimal(s, 2)
		return d
	}
	_ = tbl.Append([]*vector.Batch{makeBatch(t, schema, [][]any{
		{"apple", dec("1.00")}, {"mango", dec("9.50")},
	})}, nil)
	snap, _ := tbl.Snapshot(-1)
	sCol := expr.Col(0, "s", types.StringType)
	dCol := expr.Col(1, "d", dt)

	if got := snap.PruneFiles(expr.MustCmp(kernels.CmpGt, sCol, expr.StringLit("zebra"))); len(got) != 0 {
		t.Error("string max should prune s > 'zebra'")
	}
	if got := snap.PruneFiles(expr.MustCmp(kernels.CmpGe, sCol, expr.StringLit("banana"))); len(got) != 1 {
		t.Error("s >= 'banana' should keep the file")
	}
	if got := snap.PruneFiles(expr.MustCmp(kernels.CmpLt, dCol, expr.DecimalLit("0.50", 10, 2))); len(got) != 0 {
		t.Error("decimal min should prune d < 0.50")
	}
}

// TestStatsFromFooter: a file's statistics are its chunks' envelopes merged
// per column and rendered once. A leading NaN leaves the bounds of the
// values after it, an empty string is a bound, and a row group whose
// minimum JSON cannot hold (−Inf) leaves the file no lower bound, not the
// next row group's.
func TestStatsFromFooter(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	tbl, _ := Create(filepath.Join(t.TempDir(), "tbl"), schema, nil)
	if err := tbl.Append([]*vector.Batch{makeBatch(t, schema, [][]any{
		{math.NaN(), "b"}, {1.0, ""}, {2.0, "c"}, {nil, nil},
	})}, nil); err != nil {
		t.Fatal(err)
	}
	snap, _ := tbl.Snapshot(-1)
	for col, want := range map[string]string{"f": "1..2 nulls=1", "s": `"".."c" nulls=1`} {
		st := snap.Files[0].Stats[col]
		if got := fmt.Sprintf("%s..%s nulls=%d", st.Min, st.Max, st.NullCount); got != want {
			t.Errorf("%s: stats %s, want %s", col, got, want)
		}
	}

	f64 := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	meta := &parquet.FileMeta{RowGroups: []parquet.RowGroupMeta{
		{NumRows: 2, Columns: []parquet.ColumnChunkMeta{{NumValues: 2, Min: f64(math.Inf(-1)), Max: f64(3)}}},
		{NumRows: 2, Columns: []parquet.ColumnChunkMeta{{NumValues: 2, NullCount: 1, Min: f64(5), Max: f64(5)}}},
	}}
	st := statsFromFooter(meta, schema.Project([]int{0}))["f"]
	if st.Min != nil || string(st.Max) != "5" || st.NullCount != 1 {
		t.Errorf("two row groups, the first from −Inf: stats %s..%s nulls=%d, want no minimum, 5 and 1", st.Min, st.Max, st.NullCount)
	}
}

func TestPartitionPruning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	schema := types.NewSchema(
		types.Field{Name: "region", Type: types.StringType},
		types.Field{Name: "v", Type: types.Int64Type},
	)
	tbl, err := Create(dir, schema, []string{"region"})
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range []string{"east", "west", "north"} {
		b := makeBatch(t, schema, [][]any{{region, int64(1)}, {region, int64(2)}})
		if err := tbl.Append([]*vector.Batch{b}, map[string]string{"region": region}); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := tbl.Snapshot(-1)
	col := expr.Col(0, "region", types.StringType)
	if got := snap.PruneFiles(expr.MustCmp(kernels.CmpEq, col, expr.StringLit("west"))); len(got) != 1 {
		t.Errorf("region='west' kept %d files, want 1", len(got))
	}
	if got := snap.PruneFiles(expr.MustCmp(kernels.CmpNe, col, expr.StringLit("west"))); len(got) != 2 {
		t.Errorf("region<>'west' kept %d files, want 2", len(got))
	}
	if got := snap.PruneFiles(expr.MustCmp(kernels.CmpEq, col, expr.StringLit("south"))); len(got) != 0 {
		t.Errorf("missing region kept %d files", len(got))
	}
}

func TestCheckpointsSpeedUpSnapshots(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tbl")
	schema := testSchema()
	tbl, _ := Create(dir, schema, nil)
	// 25 commits: checkpoints land at versions 10 and 20.
	for i := 0; i < 25; i++ {
		b := makeBatch(t, schema, [][]any{{int64(i), "x"}})
		if err := tbl.Append([]*vector.Batch{b}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(tbl.checkpointFile(10)); err != nil {
		t.Fatalf("checkpoint 10 missing: %v", err)
	}
	if _, err := os.Stat(tbl.checkpointFile(20)); err != nil {
		t.Fatalf("checkpoint 20 missing: %v", err)
	}
	// Snapshot correctness at, around, and before checkpoints.
	for _, v := range []int64{-1, 25, 20, 19, 10, 9, 5, 1} {
		snap, err := tbl.Snapshot(v)
		if err != nil {
			t.Fatalf("snapshot %d: %v", v, err)
		}
		wantFiles := int(v)
		if v == -1 {
			wantFiles = 25
		}
		if len(snap.Files) != wantFiles {
			t.Errorf("snapshot %d: %d files, want %d", v, len(snap.Files), wantFiles)
		}
	}
	// Contents survive the checkpointed path.
	snap, _ := tbl.Snapshot(-1)
	rows := readAll(t, tbl, snap)
	if len(rows) != 25 {
		t.Errorf("rows = %d", len(rows))
	}
	// A fresh handle (like a new reader process) also uses checkpoints.
	tbl2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := tbl2.Snapshot(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Files) != 12 {
		t.Errorf("reopened snapshot 12: %d files", len(snap2.Files))
	}
}
