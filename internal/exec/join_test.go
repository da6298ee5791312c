package exec

import (
	"fmt"
	"reflect"
	"testing"

	"photon/internal/expr"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

func keyCol(i int, name string) expr.Expr { return expr.Col(i, name, types.Int64Type) }

func joinFixture() (left, right *MemScan) {
	ls := intSchema("lid", "lval")
	rs := intSchema("rid", "rval")
	lrows := [][]any{
		{int64(1), int64(10)},
		{int64(2), int64(20)},
		{int64(3), int64(30)},
		{nil, int64(40)},
		{int64(5), int64(50)},
	}
	rrows := [][]any{
		{int64(1), int64(100)},
		{int64(2), int64(200)},
		{int64(2), int64(201)}, // duplicate build key
		{int64(9), int64(900)},
		{nil, int64(999)}, // NULL build key never matches
	}
	return NewMemScan(ls, BuildBatches(ls, lrows, 64)), NewMemScan(rs, BuildBatches(rs, rrows, 64))
}

func TestInnerJoin(t *testing.T) {
	l, r := joinFixture()
	j, err := NewHashJoin(l, r, []expr.Expr{keyCol(0, "lid")}, []expr.Expr{keyCol(0, "rid")}, InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(j, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	sortRows(got)
	want := [][]any{
		{int64(1), int64(10), int64(1), int64(100)},
		{int64(2), int64(20), int64(2), int64(200)},
		{int64(2), int64(20), int64(2), int64(201)},
	}
	sortRows(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inner join:\n got %v\nwant %v", got, want)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	l, r := joinFixture()
	j, _ := NewHashJoin(l, r, []expr.Expr{keyCol(0, "lid")}, []expr.Expr{keyCol(0, "rid")}, LeftOuterJoin)
	got, err := CollectRows(j, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 { // 1 + 2 (dup) + 1 (unmatched 3) + 1 (null) + 1 (unmatched 5)
		t.Fatalf("outer join rows = %d: %v", len(got), got)
	}
	// Unmatched and NULL-key rows carry NULL build columns.
	nullPadded := 0
	for _, row := range got {
		if row[2] == nil && row[3] == nil {
			nullPadded++
		}
	}
	if nullPadded != 3 {
		t.Errorf("null-padded rows = %d, want 3", nullPadded)
	}
}

func TestSemiAntiJoin(t *testing.T) {
	l, r := joinFixture()
	semi, _ := NewHashJoin(l, r, []expr.Expr{keyCol(0, "lid")}, []expr.Expr{keyCol(0, "rid")}, LeftSemiJoin)
	got, err := CollectRows(semi, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // lid 1 and 2 (dup matches emit once)
		t.Errorf("semi join rows = %d: %v", len(got), got)
	}

	l2, r2 := joinFixture()
	anti, _ := NewHashJoin(l2, r2, []expr.Expr{keyCol(0, "lid")}, []expr.Expr{keyCol(0, "rid")}, LeftAntiJoin)
	got, err = CollectRows(anti, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	// lid 3, 5 unmatched; NULL key also emits under anti.
	if len(got) != 3 {
		t.Errorf("anti join rows = %d: %v", len(got), got)
	}
}

func TestJoinLargeWithDuplicatesAndResume(t *testing.T) {
	// More matches than one output batch can hold: exercises emit resume.
	ls := intSchema("k")
	rs := intSchema("k", "v")
	var lrows, rrows [][]any
	for i := 0; i < 50; i++ {
		lrows = append(lrows, []any{int64(i % 10)})
	}
	for i := 0; i < 40; i++ {
		rrows = append(rrows, []any{int64(i % 10), int64(i)})
	}
	l := NewMemScan(ls, BuildBatches(ls, lrows, 16))
	r := NewMemScan(rs, BuildBatches(rs, rrows, 16))
	j, _ := NewHashJoin(l, r, []expr.Expr{keyCol(0, "k")}, []expr.Expr{keyCol(0, "k")}, InnerJoin)
	got, err := CollectRows(j, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every left row matches 4 build rows: 50*4 = 200.
	if len(got) != 200 {
		t.Errorf("join output = %d rows, want 200", len(got))
	}
}

// TestGraceJoinSpillMatchesInMemory joins rows of every type on a string key,
// for every join type, under a limit that sends both sides to grace
// partitions.
func TestGraceJoinSpillMatchesInMemory(t *testing.T) {
	schema := spillSchema()
	lrows, rrows := spillRows(1000, 7), spillRows(600, 8)
	key := []expr.Expr{expr.Col(1, "s", types.StringType)}
	for _, tt := range []struct {
		jt   JoinType
		rows int
	}{{InnerJoin, 1981}, {LeftOuterJoin, 2188}, {LeftSemiJoin, 793}, {LeftAntiJoin, 207}} {
		t.Run(tt.jt.String(), func(t *testing.T) {
			run := func(limit int64) ([][]any, *HashJoinOp) {
				l := NewMemScan(schema, BuildBatches(schema, lrows, 64))
				r := NewMemScan(schema, BuildBatches(schema, rrows, 64))
				j, _ := NewHashJoin(l, r, key, key, tt.jt)
				tc := NewTaskCtx(mem.NewManager(limit), 64)
				tc.SpillDir = t.TempDir()
				rows, err := CollectRows(j, tc)
				if err != nil {
					t.Fatal(err)
				}
				expectNoSpillFiles(t, tc)
				return rows, j
			}
			want, _ := run(0)
			got, j := run(128 << 10)
			if j.Stats().SpillCount.Load() == 0 {
				t.Fatal("expected the 128KB-limit join to spill")
			}
			sortRows(want)
			sortRows(got)
			if len(got) != len(want) || len(got) != tt.rows {
				t.Fatalf("grace join rows = %d, in-memory = %d, want %d", len(got), len(want), tt.rows)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("grace join results differ from in-memory join")
			}
		})
	}
}

func TestJoinAdaptiveCompaction(t *testing.T) {
	// A highly selective filter upstream produces sparse batches; the join
	// should compact them when enabled.
	ls := intSchema("k")
	rs := intSchema("k")
	var lrows, rrows [][]any
	for i := 0; i < 2000; i++ {
		lrows = append(lrows, []any{int64(i)})
	}
	for i := 0; i < 100; i++ {
		rrows = append(rrows, []any{int64(i * 20)})
	}
	build := func(enable bool) *HashJoinOp {
		l := NewMemScan(ls, BuildBatches(ls, lrows, 256))
		filt := NewFilter(l, expr.MustCmp(0 /*CmpEq*/, expr.MustArith(expr.OpMod, expr.Col(0, "k", types.Int64Type), expr.Int64Lit(20)), expr.Int64Lit(0)))
		r := NewMemScan(rs, BuildBatches(rs, rrows, 256))
		j, _ := NewHashJoin(filt, r, []expr.Expr{keyCol(0, "k")}, []expr.Expr{keyCol(0, "k")}, InnerJoin)
		return j
	}
	jOn := build(true)
	tcOn := NewTaskCtx(nil, 256)
	tcOn.EnableCompaction = true
	rowsOn, err := CollectRows(jOn, tcOn)
	if err != nil {
		t.Fatal(err)
	}
	if jOn.Stats().Compactions.Load() == 0 {
		t.Error("expected compactions on sparse batches")
	}
	jOff := build(false)
	tcOff := NewTaskCtx(nil, 256)
	tcOff.EnableCompaction = false
	rowsOff, err := CollectRows(jOff, tcOff)
	if err != nil {
		t.Fatal(err)
	}
	if jOff.Stats().Compactions.Load() != 0 {
		t.Error("compaction ran while disabled")
	}
	if len(rowsOn) != len(rowsOff) || len(rowsOn) != 100 {
		t.Errorf("compaction changed results: %d vs %d", len(rowsOn), len(rowsOff))
	}
}

func TestJoinStringKeys(t *testing.T) {
	ls := types.NewSchema(types.Field{Name: "k", Type: types.StringType, Nullable: true})
	rs := types.NewSchema(
		types.Field{Name: "k", Type: types.StringType, Nullable: true},
		types.Field{Name: "v", Type: types.Int64Type},
	)
	l := NewMemScan(ls, BuildBatches(ls, [][]any{{"apple"}, {"pear"}, {nil}}, 64))
	r := NewMemScan(rs, BuildBatches(rs, [][]any{{"apple", int64(1)}, {"plum", int64(2)}}, 64))
	lk := []expr.Expr{expr.Col(0, "k", types.StringType)}
	rk := []expr.Expr{expr.Col(0, "k", types.StringType)}
	j, _ := NewHashJoin(l, r, lk, rk, InnerJoin)
	got, err := CollectRows(j, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != "apple" || got[0][2].(int64) != 1 {
		t.Errorf("string join = %v", got)
	}
}

// volatileSource yields batches the way a storage or exchange reader does:
// one batch refilled on every Next, its strings in a buffer that the next
// fill overwrites. An operator that keeps a row past the next Next without
// copying its strings sees them change.
type volatileSource struct {
	batches []*vector.Batch
	pos     int
	out     *vector.Batch
	buf     []byte
	sel     []int32
}

func (s *volatileSource) Next() (*vector.Batch, error) {
	if s.pos == len(s.batches) {
		return nil, nil
	}
	src := s.batches[s.pos]
	s.pos++
	if s.out == nil {
		s.out = vector.NewBatch(src.Schema, src.Capacity())
	}
	for i := range s.buf {
		s.buf[i] = '#'
	}
	s.out.Reset()
	src.GatherInto(s.out)
	s.buf = s.out.OwnStrings(0, s.buf[:0])
	// One row in three active: sparse enough for filter mode to accumulate.
	s.sel = s.sel[:0]
	for r := 0; r < s.out.NumRows; r += 3 {
		s.sel = append(s.sel, int32(r))
	}
	s.out.Sel = s.sel
	return s.out, nil
}

func (s *volatileSource) Close() error { return nil }

// TestJoinKeepsNoBorrowedStrings: both probe paths that carry rows across
// probe batches — the general path's output batch and filter mode's
// compaction accumulator — hold their own copy of the probe side's strings.
func TestJoinKeepsNoBorrowedStrings(t *testing.T) {
	ls := types.NewSchema(
		types.Field{Name: "lid", Type: types.Int64Type},
		types.Field{Name: "ltag", Type: types.StringType},
	)
	rs := intSchema("rid", "rval")
	const probeRows = 4000
	var lrows, urows, drows [][]any
	for i := 0; i < probeRows; i++ {
		lrows = append(lrows, []any{int64(i), fmt.Sprintf("tag-%05d", i)})
	}
	for i := 0; i < probeRows; i += 6 {
		urows = append(urows, []any{int64(i), int64(i * 10)})                        // unique keys: filter mode
		drows = append(drows, []any{int64(i), int64(i)}, []any{int64(i), int64(-i)}) // duplicates: general path
	}
	for name, rrows := range map[string][][]any{"filter mode": urows, "general": drows} {
		// 64-row probe batches: small enough that the general path's output
		// batch spans many of them.
		batches := BuildBatches(ls, lrows, 64)
		probe := NewSource("volatile", ls, func() (Source, error) { return &volatileSource{batches: batches}, nil })
		build := NewMemScan(rs, BuildBatches(rs, rrows, 512))
		j, err := NewHashJoin(probe, build, []expr.Expr{keyCol(0, "lid")}, []expr.Expr{keyCol(0, "rid")}, InnerJoin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectRows(j, newTC(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, row := range got {
			if want := fmt.Sprintf("tag-%05d", row[0].(int64)); row[1] != want {
				t.Fatalf("%s: row %v carries another batch's string, want %q", name, row, want)
			}
		}
	}
}
