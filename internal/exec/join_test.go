package exec

import (
	"fmt"
	"reflect"
	"testing"

	"photon/internal/expr"
	"photon/internal/kernels"
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

// nestedLoopJoin is the reference the hash join is pinned against: every
// left row meets every right row, and two keys match when both are non-NULL
// and equal.
func nestedLoopJoin(jt JoinType, lrows, rrows [][]any, lk, rk, rightW int) [][]any {
	var out [][]any
	for _, l := range lrows {
		matched := false
		for _, r := range rrows {
			if l[lk] == nil || r[rk] == nil || l[lk] != r[rk] {
				continue
			}
			matched = true
			if jt == InnerJoin || jt == LeftOuterJoin {
				out = append(out, append(append([]any(nil), l...), r...))
			}
		}
		switch {
		case jt == LeftSemiJoin && matched, jt == LeftAntiJoin && !matched:
			out = append(out, l)
		case jt == LeftOuterJoin && !matched:
			out = append(out, append(append([]any(nil), l...), make([]any, rightW)...))
		}
	}
	return out
}

// countedRead returns rows as an exchange read, in 64-row blocks, that knows
// its row count the way the driver's exchange reads do. With keep set, each
// block keeps only the rows keep accepts in its position list, as a filter
// upstream would, and the count is theirs.
func countedRead(schema *types.Schema, rows [][]any, keep func([]any) bool) Operator {
	op := NewBroadcastRead("", schema, func() ([]ShuffleSource, error) {
		var srcs []ShuffleSource
		for lo := 0; lo < len(rows); lo += 64 {
			srcs = append(srcs, &memSource{schema: schema, rows: rows[lo:min(lo+64, len(rows))], keep: keep})
		}
		return srcs, nil
	})
	op.SetRows(int64(len(keptRows(rows, keep))))
	return op
}

// keptRows returns the rows keep accepts, all of them when keep is nil.
func keptRows(rows [][]any, keep func([]any) bool) [][]any {
	if keep == nil {
		return rows
	}
	var out [][]any
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// TestGraceJoinSpillMatchesInMemory pins every join type against a
// nested-loop join, with the left input smaller than, larger than and as
// large as the right, in memory and under a limit that sends the join to
// grace partitions. The key is either a string column with duplicates and
// NULLs on both sides or the id column, unique on both; the rows carry every
// type. The inputs are read dense, or three times as many rows through a
// filter that keeps one in three, so an in-memory probe compacts them (grace
// partitions read back dense). A right input whose row count the join
// knows makes it build on the left input when that one is at most half as
// large.
func TestGraceJoinSpillMatchesInMemory(t *testing.T) {
	schema := spillSchema()
	keys := []struct {
		name string
		col  int
	}{{"", 1}, {"/unique_key", 0}}
	shapes := []struct {
		name   string
		nl, nr int
	}{{"left smaller", 300, 1000}, {"right smaller", 1000, 600}, {"equal", 700, 700}}
	storage := []struct {
		name  string
		limit int64
	}{{"in memory", 0}, {"grace", 96 << 10}}
	idCol := expr.Col(0, "id", types.Int64Type)
	everyThird := expr.MustCmp(kernels.CmpEq, expr.MustArith(expr.OpMod, idCol, expr.Int64Lit(3)), expr.Int64Lit(0))
	inputs := []struct {
		name string
		keep func([]any) bool
	}{{"", nil}, {"/sparse", func(r []any) bool { return r[0].(int64)%3 == 0 }}}
	filtered := func(op Operator, keep func([]any) bool) Operator {
		if keep == nil {
			return op
		}
		return NewFilter(op, everyThird)
	}
	rights := []struct {
		name    string
		counted bool
		op      func(*types.Schema, [][]any, func([]any) bool) Operator
	}{
		{"", false, func(s *types.Schema, rows [][]any, keep func([]any) bool) Operator {
			return filtered(NewMemScan(s, BuildBatches(s, rows, 64)), keep)
		}},
		{"/counted", true, countedRead},
	}
	for _, jt := range []JoinType{InnerJoin, LeftOuterJoin, LeftSemiJoin, LeftAntiJoin} {
		t.Run(jt.String(), func(t *testing.T) {
			for _, k := range keys {
				key := []expr.Expr{expr.Col(k.col, schema.Field(k.col).Name, schema.Field(k.col).Type)}
				for _, sh := range shapes {
					for _, in := range inputs {
						scale := 1
						if in.keep != nil {
							scale = 3
						}
						lrows, rrows := spillRows(scale*sh.nl, 7), spillRows(scale*sh.nr, 8)
						lkept, rkept := keptRows(lrows, in.keep), keptRows(rrows, in.keep)
						want := nestedLoopJoin(jt, lkept, rkept, k.col, k.col, len(schema.Fields))
						sortRows(want)
						for _, st := range storage {
							for _, rt := range rights {
								t.Run(sh.name+"/"+st.name+rt.name+k.name+in.name, func(t *testing.T) {
									l := filtered(NewMemScan(schema, BuildBatches(schema, lrows, 64)), in.keep)
									j, err := NewHashJoin(l, rt.op(schema, rrows, in.keep), key, key, jt)
									if err != nil {
										t.Fatal(err)
									}
									tc := NewTaskCtx(mem.NewManager(st.limit), 64)
									tc.SpillDir = t.TempDir()
									got, err := CollectRows(j, tc)
									if err != nil {
										t.Fatal(err)
									}
									expectNoSpillFiles(t, tc)
									if spilled := j.Stats().SpillCount.Load() > 0; spilled != (st.limit > 0) {
										t.Fatalf("spilled = %v under limit %d", spilled, st.limit)
									}
									sortRows(got)
									if len(got) != len(want) {
										t.Fatalf("%d rows, nested loop %d", len(got), len(want))
									}
									if !reflect.DeepEqual(got, want) {
										t.Error("hash join rows differ from the nested-loop join")
									}
									wantLeft := rt.counted && 2*len(lkept) <= len(rkept)
									if got := j.Stats().BuiltLeft.Load() == 1; got != wantLeft {
										t.Errorf("built on the left input: %v, want %v", got, wantLeft)
									}
									if compacted := j.Stats().Compactions.Load() > 0; in.keep != nil && st.limit == 0 && !compacted {
										t.Error("sparse probe input was never compacted")
									}
								})
							}
						}
					}
				}
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
	// One row in three active: sparse enough for the probe to accumulate.
	s.sel = s.sel[:0]
	for r := 0; r < s.out.NumRows; r += 3 {
		s.sel = append(s.sel, int32(r))
	}
	s.out.Sel = s.sel
	return s.out, nil
}

func (s *volatileSource) Close() error { return nil }

// TestJoinKeepsNoBorrowedStrings: the probe's compaction accumulator, which
// carries rows across probe batches, holds its own copy of the probe side's
// strings, and no output batch, shared or gathered, outlives the probe batch
// whose strings it uses.
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
		urows = append(urows, []any{int64(i), int64(i * 10)})                        // unique keys: shared output
		drows = append(drows, []any{int64(i), int64(i)}, []any{int64(i), int64(-i)}) // duplicates: gathered output
	}
	for name, rrows := range map[string][][]any{"unique keys": urows, "duplicate keys": drows} {
		// 64-row probe batches, one row in three active: the accumulator
		// gathers several of them.
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

// TestNonNullKeySelAllocatesNothing: splitting a batch's NULL-key rows from
// the rest reuses the operator's scratch, batch after batch.
func TestNonNullKeySelAllocatesNothing(t *testing.T) {
	s := intSchema("k")
	var rows [][]any
	for i := 0; i < 64; i++ {
		var k any = int64(i)
		if i%3 == 0 {
			k = nil
		}
		rows = append(rows, []any{k})
	}
	b := BuildBatches(s, rows, 64)[0]
	key := []expr.Expr{keyCol(0, "k")}
	j, err := NewHashJoin(NewMemScan(s, nil), NewMemScan(s, nil), key, key, LeftAntiJoin)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(newTC(t)); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.keyVecs[0] = b.Vecs[0]
	allocs := testing.AllocsPerRun(100, func() {
		j.nullSel = j.nullSel[:0]
		if sel := j.nonNullKeySel(b, &j.nullSel); len(sel) != 42 || len(j.nullSel) != 22 {
			t.Fatalf("%d rows with a key, %d without; want 42 and 22", len(sel), len(j.nullSel))
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations a batch, want 0", allocs)
	}
}

// vecRecorder passes its input through and remembers every vector it hands
// out; it knows its row count when its input does.
type vecRecorder struct {
	Operator
	seen map[*vector.Vector]bool
}

func (r *vecRecorder) Next() (*vector.Batch, error) {
	b, err := r.Operator.Next()
	if b != nil {
		for _, v := range b.Vecs {
			r.seen[v] = true
		}
	}
	return b, err
}

func (r *vecRecorder) ExactRows() (int64, bool) {
	if c, ok := r.Operator.(interface{ ExactRows() (int64, bool) }); ok {
		return c.ExactRows()
	}
	return 0, false
}

// TestJoinSharesProbeVectors: over keys unique in the table, every output
// batch carries the probe batch's own vectors under a position list and
// gathers only the table's columns — built on the right, built on the left
// (inner and left outer) and inside grace partitions, whose probe batches
// are read back from their spill runs.
func TestJoinSharesProbeVectors(t *testing.T) {
	schema := spillSchema()
	key := []expr.Expr{expr.Col(0, "id", types.Int64Type)}
	scan := func(rows [][]any) Operator { return NewMemScan(schema, BuildBatches(schema, rows, 64)) }
	counted := func(rows [][]any) Operator { return countedRead(schema, rows, nil) }
	cases := []struct {
		name      string
		jt        JoinType
		nl, nr    int
		right     func([][]any) Operator
		limit     int64
		buildLeft bool
	}{
		{"built on the right", InnerJoin, 1000, 600, scan, 0, false},
		{"built on the right", LeftOuterJoin, 1000, 600, scan, 0, false},
		{"built on the left", InnerJoin, 300, 1000, counted, 0, true},
		{"built on the left", LeftOuterJoin, 300, 1000, counted, 0, true},
		{"grace", InnerJoin, 1000, 600, scan, 96 << 10, false},
		{"grace", LeftOuterJoin, 1000, 600, scan, 96 << 10, false},
	}
	for _, c := range cases {
		t.Run(c.name+"/"+c.jt.String(), func(t *testing.T) {
			lrows, rrows := spillRows(c.nl, 7), spillRows(c.nr, 8)
			seen := map[*vector.Vector]bool{}
			l := &vecRecorder{scan(lrows), seen}
			r := &vecRecorder{c.right(rrows), seen}
			j, err := NewHashJoin(l, r, key, key, c.jt)
			if err != nil {
				t.Fatal(err)
			}
			tc := NewTaskCtx(mem.NewManager(c.limit), 64)
			tc.SpillDir = t.TempDir()
			if err := j.Open(tc); err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			probeAt, np := 0, len(schema.Fields)
			if c.buildLeft {
				probeAt = len(schema.Fields)
			}
			rows := 0
			for {
				out, err := j.Next()
				if err != nil {
					t.Fatal(err)
				}
				if out == nil {
					break
				}
				if j.partProbeB != nil {
					for _, v := range j.partProbeB.Vecs {
						seen[v] = true
					}
				}
				if out.Sel == nil {
					t.Fatalf("output batch %v has no position list", out)
				}
				for _, v := range out.Vecs[probeAt : probeAt+np] {
					if !seen[v] {
						t.Fatalf("output batch %v gathered its probe columns", out)
					}
				}
				rows += out.NumActive()
			}
			if want := len(nestedLoopJoin(c.jt, lrows, rrows, 0, 0, len(schema.Fields))); rows != want {
				t.Errorf("%d rows, nested loop %d", rows, want)
			}
			if got := j.Stats().BuiltLeft.Load() == 1; got != c.buildLeft {
				t.Errorf("built on the left input: %v, want %v", got, c.buildLeft)
			}
			if spilled := j.Stats().SpillCount.Load() > 0; spilled != (c.limit > 0) {
				t.Errorf("spilled = %v under limit %d", spilled, c.limit)
			}
		})
	}
}
