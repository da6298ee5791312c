package exec

import (
	"fmt"
	"photon/internal/expr"
	"photon/internal/rf"
	"reflect"
	"strings"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// memSink is an in-memory ShuffleSink capturing routed rows per partition.
type memSink struct {
	parts  map[int][][]any
	closed bool
}

func (m *memSink) WritePartition(part int, b *vector.Batch) error {
	if m.parts == nil {
		m.parts = map[int][][]any{}
	}
	m.parts[part] = append(m.parts[part], b.Rows()...)
	return nil
}

func (m *memSink) Close() error {
	m.closed = true
	return nil
}

// memSource is an in-memory ShuffleSource replaying one block of rows.
type memSource struct {
	schema *types.Schema
	rows   [][]any
	done   bool
}

func (s *memSource) NextBatch(decodeInto func() *vector.Batch) (*vector.Batch, error) {
	if s.done || len(s.rows) == 0 {
		return nil, nil
	}
	dst := decodeInto()
	dst.Reset()
	for _, r := range s.rows {
		dst.AppendRow(r...)
	}
	s.done = true
	return dst, nil
}

func (s *memSource) Close() error { return nil }

func exchangeSchema() *types.Schema {
	return types.NewSchema(types.Field{Name: "k", Type: types.Int64Type})
}

func TestShuffleWriteRoutesRows(t *testing.T) {
	schema := exchangeSchema()
	var rows [][]any
	for i := 0; i < 100; i++ {
		rows = append(rows, []any{int64(i)})
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 16))
	sink := &memSink{}
	// Route by parity of the key value.
	split := func(b *vector.Batch) [][]int32 {
		parts := make([][]int32, 2)
		for pos := 0; pos < b.NumActive(); pos++ {
			i := b.RowIndex(pos)
			v := b.Vecs[0].I64[i]
			parts[v%2] = append(parts[v%2], int32(i))
		}
		return parts
	}
	w := NewShuffleWrite(scan, sink, split)
	tc := NewTaskCtx(nil, 16)
	if err := Drain(w, tc); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Fatal("sink not closed")
	}
	if len(sink.parts[0]) != 50 || len(sink.parts[1]) != 50 {
		t.Fatalf("partition sizes: %d even, %d odd", len(sink.parts[0]), len(sink.parts[1]))
	}
	for part, rs := range sink.parts {
		for _, r := range rs {
			if r[0].(int64)%2 != int64(part) {
				t.Fatalf("row %v routed to partition %d", r, part)
			}
		}
	}
	if got := w.Stats().RowsIn.Load(); got != 100 {
		t.Fatalf("RowsIn = %d, want 100", got)
	}
}

func TestShuffleWriteNilSplit(t *testing.T) {
	schema := exchangeSchema()
	rows := [][]any{{int64(1)}, {int64(2)}, {int64(3)}}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 2))
	sink := &memSink{}
	if err := Drain(NewShuffleWrite(scan, sink, nil), NewTaskCtx(nil, 2)); err != nil {
		t.Fatal(err)
	}
	if len(sink.parts) != 1 || len(sink.parts[0]) != 3 {
		t.Fatalf("nil split routing: %v", sink.parts)
	}
}

func TestShuffleReadStreamsSources(t *testing.T) {
	schema := exchangeSchema()
	open := func() ([]ShuffleSource, error) {
		return []ShuffleSource{
			&memSource{schema: schema, rows: [][]any{{int64(1)}, {int64(2)}}},
			&memSource{schema: schema}, // empty partition
			&memSource{schema: schema, rows: [][]any{{int64(3)}}},
		}, nil
	}
	op := NewShuffleRead("ShuffleRead(test)", schema, open)
	rows, err := CollectRows(op, NewTaskCtx(nil, 16))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(1)}, {int64(2)}, {int64(3)}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	if op.Stats().Name != "ShuffleRead(test)" {
		t.Fatalf("stats name = %q", op.Stats().Name)
	}
}

func TestBroadcastReadStreamsAll(t *testing.T) {
	schema := exchangeSchema()
	op := NewBroadcastRead("", schema, func() ([]ShuffleSource, error) {
		return []ShuffleSource{
			&memSource{schema: schema, rows: [][]any{{int64(7)}}},
			&memSource{schema: schema, rows: [][]any{{int64(8)}}},
		}, nil
	})
	rows, err := CollectRows(op, NewTaskCtx(nil, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if op.Stats().Name != "BroadcastRead" {
		t.Fatalf("stats name = %q", op.Stats().Name)
	}
}

func TestMergeSortedRuns(t *testing.T) {
	schema := exchangeSchema()
	run := func(vals ...int64) []*vector.Batch {
		var rows [][]any
		for _, v := range vals {
			rows = append(rows, []any{v})
		}
		return BuildBatches(schema, rows, 2)
	}
	keys := []SortKey{{Col: 0}}

	rows, err := MergeSortedRuns(nil, [][]*vector.Batch{
		run(1, 4, 9), run(2, 3, 10), run(), run(5),
	}, keys, -1)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range rows {
		got = append(got, r[0].(int64))
	}
	want := []int64{1, 2, 3, 4, 5, 9, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}

	// Limit truncates the merged stream.
	rows, err = MergeSortedRuns(nil, [][]*vector.Batch{run(1, 3), run(2)}, keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][0].(int64) != 2 {
		t.Fatalf("limited merge = %v", rows)
	}

	// Descending keys merge descending runs.
	desc := []SortKey{{Col: 0, Desc: true}}
	rows, err = MergeSortedRuns(nil, [][]*vector.Batch{run(9, 4), run(10, 3)}, desc, -1)
	if err != nil {
		t.Fatal(err)
	}
	var dgot []int64
	for _, r := range rows {
		dgot = append(dgot, r[0].(int64))
	}
	if !reflect.DeepEqual(dgot, []int64{10, 9, 4, 3}) {
		t.Fatalf("descending merge = %v", dgot)
	}

	// No keys is an error (merging unordered runs is meaningless).
	if _, err := MergeSortedRuns(nil, nil, nil, -1); err == nil {
		t.Fatal("merge without keys succeeded")
	}
}

// TestStatsWalkCrossesEngineBoundaries pins the stats-tree fix: a plan that
// leaves Photon through a TransitionOp and re-enters through an AdapterOp
// must still report every metrics-carrying node, not truncate at the first
// boundary.
func TestStatsWalkCrossesEngineBoundaries(t *testing.T) {
	schema := exchangeSchema()
	var rows [][]any
	for i := 0; i < 10; i++ {
		rows = append(rows, []any{int64(i)})
	}
	tc := NewTaskCtx(nil, 4)
	scan := NewMemScan(schema, BuildBatches(schema, rows, 4))
	transition := NewTransition(scan, tc) // Photon -> rows
	adapter := NewAdapter(transition)     // rows -> Photon
	limit := NewLimit(adapter, 100)

	if _, err := CollectRows(limit, tc); err != nil {
		t.Fatal(err)
	}

	var names []string
	WalkStats(limit, func(s *OpStats, depth int) {
		names = append(names, fmt.Sprintf("%d:%s", depth, s.Name))
	})
	want := []string{"0:Limit(100)", "1:Adapter", "2:Transition", "3:MemScan"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("stats walk = %v, want %v", names, want)
	}

	// RenderStats covers the same tree.
	out := RenderStats(limit)
	for _, n := range []string{"Limit", "Adapter", "Transition", "MemScan"} {
		if !strings.Contains(out, n) {
			t.Fatalf("rendered stats missing %s:\n%s", n, out)
		}
	}
}

// failingSink holds rows back until Close, as shuffle.Writer does with a
// partition's last block, and fails to write them.
type failingSink struct{ memSink }

func (f *failingSink) Close() error { return fmt.Errorf("last block lost") }

// A sink's Close writes data, so its failure must fail the drain — not be
// dropped by a deferred operator Close.
func TestShuffleWriteSurfacesSinkCloseError(t *testing.T) {
	schema := exchangeSchema()
	scan := NewMemScan(schema, BuildBatches(schema, [][]any{{int64(1)}}, 2))
	err := Drain(NewShuffleWrite(scan, &failingSink{}, nil), NewTaskCtx(nil, 2))
	if err == nil || !strings.Contains(err.Error(), "last block lost") {
		t.Fatalf("drain error = %v, want the sink's close error", err)
	}
}

// vecImage is a deep copy of everything a consumer could alter in a vector.
type vecImage struct {
	Bool, Nulls []byte
	I32         []int32
	I64         []int64
	F64         []float64
	Dec         []types.Decimal128
	Str         []string
	StrNil      []bool
	HasNulls    bool
	Ascii       vector.AsciiInfo
	Dec64       vector.Dec64Info
}

// batchImages snapshots every vector of every batch, and each batch's header.
func batchImages(bs []*vector.Batch) [][]any {
	var out [][]any
	for _, b := range bs {
		row := []any{b.NumRows, append([]int32(nil), b.Sel...), b.Sel == nil, len(b.Vecs)}
		for _, v := range b.Vecs {
			im := vecImage{
				Bool: append([]byte(nil), v.Bool...), Nulls: append([]byte(nil), v.Nulls...),
				I32: append([]int32(nil), v.I32...), I64: append([]int64(nil), v.I64...),
				F64: append([]float64(nil), v.F64...), Dec: append([]types.Decimal128(nil), v.Dec...),
				HasNulls: v.HasNulls(), Ascii: v.Ascii, Dec64: v.Dec64,
			}
			for _, s := range v.Str {
				im.Str = append(im.Str, string(s))
				im.StrNil = append(im.StrNil, s == nil)
			}
			row = append(row, im)
		}
		out = append(out, row)
	}
	return out
}

// TestExchangeConsumersDoNotMutateInput pins the property a zero-copy
// exchange rests on: one set of source batches, handed by header wrap to
// several independently built consumer trees, is bit-identical after all of
// them drain — values, nulls, strings, and the per-vector metadata caches.
func TestExchangeConsumersDoNotMutateInput(t *testing.T) {
	dec := types.DecimalType(12, 2)
	schema := types.NewSchema(
		types.Field{Name: "k", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "d", Type: dec, Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
	)
	var rows [][]any
	for i := 0; i < 5000; i++ {
		r := []any{int64(i % 97), fmt.Sprintf("name-%d", i%13), types.DecimalFromInt64(int64(i * 7)), float64(i) / 3}
		if i%11 == 0 {
			r[1] = nil
		}
		if i%17 == 0 {
			r[2] = nil
		}
		if i%29 == 0 {
			r[0] = nil
		}
		if i%501 == 0 {
			r[1] = "naïve-ü" // a non-ASCII batch: the ASCII verdict differs per batch
		}
		rows = append(rows, r)
	}
	shared := BuildBatches(schema, rows, 512)
	before := batchImages(shared)

	k := expr.Col(0, "k", types.Int64Type)
	s := expr.Col(1, "s", types.StringType)
	d := expr.Col(2, "d", dec)
	newTask := func() *TaskCtx {
		tc := NewTaskCtx(nil, 512)
		tc.SpillDir = t.TempDir()
		tc.Expr.SharedVectors = true // what the staged driver sets on every task
		return tc
	}
	// Each tree reads the shared batches through its own header-wrapping leaf.
	trees := map[string]func() Operator{
		"Filter->HashJoin build": func() Operator {
			probeSchema := intSchema("p")
			var probe [][]any
			for i := 0; i < 300; i++ {
				probe = append(probe, []any{int64(i % 120)})
			}
			build := NewFilter(NewMemScan(schema, shared), expr.Gt(k, expr.Int64Lit(5)))
			j, err := NewHashJoin(NewMemScan(probeSchema, BuildBatches(probeSchema, probe, 64)), build,
				[]expr.Expr{expr.Col(0, "p", types.Int64Type)}, []expr.Expr{k}, InnerJoin)
			if err != nil {
				t.Fatal(err)
			}
			return j
		},
		"RuntimeFilter->Project->HashAgg": func() Operator {
			flt := rf.NewFilter([]types.DataType{types.Int64Type}, 64)
			keys := vector.NewBatch(intSchema("k"), 64)
			for i := 0; i < 64; i++ {
				keys.Vecs[0].I64[i] = int64(i)
			}
			keys.NumRows = 64
			var hs rf.HashScratch
			flt.Add(keys, []int{0}, nil, 64, &hs)
			proj := NewProject(NewRuntimeFilter(NewMemScan(schema, shared), []ProducerFilter{{Keys: []int{0}, Filter: flt}}),
				[]expr.Expr{expr.Upper(s), expr.MustArith(expr.OpMul, d, expr.DecimalLit("1.05", 12, 2)), k},
				[]string{"u", "m", "k"})
			agg, err := NewHashAgg(proj, AggComplete,
				[]expr.Expr{expr.Col(0, "u", types.StringType)}, []string{"u"},
				[]expr.AggSpec{
					{Kind: expr.AggSum, Arg: expr.Col(1, "m", proj.Schema().Field(1).Type), Name: "sm"},
					{Kind: expr.AggCount, Arg: expr.Col(2, "k", types.Int64Type), Distinct: true, Name: "dk"},
				})
			if err != nil {
				t.Fatal(err)
			}
			return agg
		},
		"ShuffleWrite, splitting partitioner": func() Operator {
			split := func(b *vector.Batch) [][]int32 {
				parts := make([][]int32, 3)
				for pos := 0; pos < b.NumActive(); pos++ {
					i := b.RowIndex(pos)
					parts[i%3] = append(parts[i%3], int32(i))
				}
				return parts
			}
			return NewShuffleWrite(NewMemScan(schema, shared), &memSink{}, split)
		},
	}
	for name, build := range trees {
		// Two independently built consumers of the same batches.
		for n := 0; n < 2; n++ {
			if _, err := CollectAll(build(), newTask()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if after := batchImages(shared); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s altered the batches it was handed", name)
		}
	}
}
