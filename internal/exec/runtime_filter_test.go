package exec

import (
	"context"
	"errors"
	"testing"

	"photon/internal/expr"
	"photon/internal/rf"
	"photon/internal/types"
	"photon/internal/vector"
)

// cancelOnNextSource scans one stored giant batch the way a registered
// table's MemScan does, a task batch at a time, and cancels the query
// context as it hands over the first batch — modelling a user cancelling
// mid-build. A prompt consumer stops at the next batch boundary rather than
// processing the stored batch to its end.
type cancelOnNextSource struct {
	*MemScan
	cancel context.CancelFunc
}

// newCancelOnNextSource scans a stored batch of n sequential int64 keys.
func newCancelOnNextSource(schema *types.Schema, n int, cancel context.CancelFunc) *cancelOnNextSource {
	return &cancelOnNextSource{MemScan: NewMemScan(schema, []*vector.Batch{giantBatch(schema, n)}), cancel: cancel}
}

func (s *cancelOnNextSource) Next() (*vector.Batch, error) {
	b, err := s.MemScan.Next()
	s.cancel()
	return b, err
}

// giantBatch builds one batch of n sequential int64 keys.
func giantBatch(schema *types.Schema, n int) *vector.Batch {
	b := vector.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.Vecs[0].I64[i] = int64(i)
	}
	b.NumRows = n
	return b
}

// TestJoinBuildCancelsWithinGiantBatch: the hash-join build stops one task
// batch into a stored batch of a million rows once the query is cancelled.
func TestJoinBuildCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("rid")
	ctx, cancel := context.WithCancel(context.Background())
	src := newCancelOnNextSource(schema, n, cancel)

	left := NewMemScan(intSchema("lid"), BuildBatches(intSchema("lid"), [][]any{{int64(1)}}, 4))
	j, err := NewHashJoin(left, src,
		[]expr.Expr{expr.Col(0, "lid", types.Int64Type)},
		[]expr.Expr{expr.Col(0, "rid", types.Int64Type)}, InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTC(t)
	tc.Ctx = ctx
	_, err = CollectRows(j, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Promptness: at most one task batch of rows may have been inserted
	// before the build noticed.
	if got, bs := j.tbl.NumRows(), tc.Pool.BatchSize(); got > bs {
		t.Fatalf("build inserted %d rows after cancellation (batch=%d)", got, bs)
	}
}

// TestRuntimeFilterBuildCancelsWithinGiantBatch: the filter-build step stops
// one task batch into a giant stored batch too.
func TestRuntimeFilterBuildCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("k")
	ctx, cancel := context.WithCancel(context.Background())
	src := newCancelOnNextSource(schema, n, cancel)

	f := rf.NewFilter([]types.DataType{types.Int64Type}, n)
	op := NewRuntimeFilterBuild(src, []int{0}, f)
	tc := newTC(t)
	tc.Ctx = ctx
	err := Drain(op, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got, bs := f.Cols[0].N, tc.Pool.BatchSize(); got > int64(bs) {
		t.Fatalf("filter folded %d rows after cancellation (batch=%d)", got, bs)
	}
}

// TestRuntimeFilterOpSelections: the probe-side operator must compose with
// an existing selection vector and with multi-column keys, and never drop a
// row whose keys all appear on the build side.
func TestRuntimeFilterOpSelections(t *testing.T) {
	schema := intSchema("a", "b")
	rows := [][]any{
		{int64(1), int64(10)},  // build match on both cols
		{int64(2), int64(99)},  // b misses
		{int64(3), int64(30)},  // build match on both cols
		{int64(99), int64(10)}, // a misses
		{nil, int64(10)},       // NULL key: droppable
	}
	src := NewMemScan(schema, BuildBatches(schema, rows, 64))

	f := rf.NewFilter([]types.DataType{types.Int64Type, types.Int64Type}, 4)
	build := vector.NewBatch(schema, 4)
	for i, kv := range [][2]int64{{1, 10}, {3, 30}, {5, 50}, {7, 70}} {
		build.Vecs[0].I64[i] = kv[0]
		build.Vecs[1].I64[i] = kv[1]
	}
	build.NumRows = 4
	var hs rf.HashScratch
	f.Add(build, []int{0, 1}, nil, 4, &hs)

	op := NewRuntimeFilter(src, []ProducerFilter{{Keys: []int{0, 1}, Filter: f}})
	got, err := CollectRows(op, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("filtered rows = %d (%v), want 2", len(got), got)
	}
	for _, r := range got {
		if !(r[0] == int64(1) || r[0] == int64(3)) {
			t.Fatalf("unexpected surviving row %v", r)
		}
	}
	// A nil / unusable filter is a pure pass-through.
	src2 := NewMemScan(schema, BuildBatches(schema, rows, 64))
	pass := NewRuntimeFilter(src2, []ProducerFilter{{Keys: []int{0, 1}}})
	got2, err := CollectRows(pass, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(rows) {
		t.Fatalf("nil filter dropped rows: %d of %d", len(got2), len(rows))
	}
}

// keyFilter builds a one-column filter holding keys.
func keyFilter(keys ...int64) *rf.Filter {
	schema := intSchema("k")
	f := rf.NewFilter([]types.DataType{types.Int64Type}, int64(len(keys)))
	b := vector.NewBatch(schema, len(keys))
	copy(b.Vecs[0].I64, keys)
	b.NumRows = len(keys)
	var hs rf.HashScratch
	f.Add(b, []int{0}, nil, len(keys), &hs)
	return f
}

func seq(lo, hi int64) (out []int64) {
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

// TestRuntimeFilterOpAdapts: stacked filters are probed most-selective-first,
// one that rejects nothing stops being probed, one that rejects nothing of
// the first batches is measured again and comes back once it does — and none
// of it changes which rows survive the filters that stay.
func TestRuntimeFilterOpAdapts(t *testing.T) {
	schema := intSchema("a", "b")
	const batch, batches = 1024, 200
	var rows [][]any
	for i := 0; i < batch*batches; i++ {
		rows = append(rows, []any{int64(i), int64(i % 100)})
	}
	all := keyFilter(seq(0, 100)...)        // over b: rejects nothing
	half := keyFilter(seq(0, 50)...)        // over b: rejects half
	late := keyFilter(seq(0, 100*batch)...) // over a: rejects nothing of the first 100 batches, all of the rest
	tenth := keyFilter(seq(0, 10)...)       // over b: rejects nine tenths
	build := func() *PipelineOp {
		src := NewMemScan(schema, BuildBatches(schema, rows, batch))
		return NewRuntimeFilter(src, []ProducerFilter{
			{Keys: []int{1}, Filter: all, Producer: 1}, {Keys: []int{1}, Filter: half, Producer: 2},
			{Keys: []int{0}, Filter: late, Producer: 3}, {Keys: []int{1}, Filter: tenth, Producer: 4},
		})
	}
	probes := func(p *PipelineOp) []*rfProbe { return p.steps[0].(*RuntimeFilterOp).probes }
	if got := build().Stats().Name; got != "RuntimeFilter(stage=1,2,3,4)" {
		t.Errorf("name = %q", got)
	}

	static := build()
	tc := newTC(t)
	tc.Expr.Adaptive = false
	want, err := CollectRows(static, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 100*batch/10 {
		t.Fatalf("%d rows pass all four filters, want %d", len(want), 100*batch/10)
	}
	for i, p := range probes(static) {
		if p.sleep != 0 || p.f != []*rf.ColFilter{all.Cols[0], half.Cols[0], late.Cols[0], tenth.Cols[0]}[i] {
			t.Errorf("adaptivity off: filter %d moved or slept: %+v", i, p)
		}
	}

	adaptive := build()
	got, err := CollectRows(adaptive, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..100*batch with b < 10 pass every filter; what a sleeping filter
	// lets through beyond them is rejected by the ones awake (tenth never
	// sleeps), except rows late alone would reject while it sleeps.
	if len(got) < len(want) {
		t.Fatalf("adaptive run lost rows: %d < %d", len(got), len(want))
	}
	// late is shown a tenth of each batch, so a verdict takes 20 batches.
	if extra := len(got) - len(want); extra > (rfNapBatches+20)*batch/10 {
		t.Errorf("%d rows slipped past the filter that began rejecting at batch 100: it was not measured again", extra)
	}
	if probes(adaptive)[0].f != late.Cols[0] && probes(adaptive)[0].f != tenth.Cols[0] {
		t.Errorf("most selective filter is not probed first: %+v", probes(adaptive))
	}
	for _, p := range probes(adaptive) {
		switch p.f {
		case all.Cols[0]:
			if p.key < rfDropPass {
				t.Errorf("the filter that rejects nothing was never judged to: %+v", p)
			}
		case late.Cols[0], tenth.Cols[0]:
			if p.sleep != 0 {
				t.Errorf("a filter that rejects rows is asleep at the end: %+v", p)
			}
		}
	}
	if in, out := adaptive.Stats().RowsIn.Load(), adaptive.Stats().RowsOut.Load(); in != batch*batches || out != int64(len(got)) {
		t.Errorf("stats in=%d out=%d, want %d and %d", in, out, batch*batches, len(got))
	}
}

// TestRuntimeFilterOpGiantBatch: a stored batch far larger than a task batch
// keeps exactly the rows a small one would — none, when no task batch has a
// survivor.
func TestRuntimeFilterOpGiantBatch(t *testing.T) {
	schema := intSchema("k")
	const n = 3<<16 + 17
	for _, c := range []struct {
		keys []int64
		want int
	}{{[]int64{-1}, 0}, {[]int64{5, 2<<16 + 1}, 2}} {
		src := NewMemScan(schema, []*vector.Batch{giantBatch(schema, n)})
		got, err := CollectRows(NewRuntimeFilter(src, []ProducerFilter{{Keys: []int{0}, Filter: keyFilter(c.keys...)}}), newTC(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Errorf("keys %v: %d rows survive, want %d", c.keys, len(got), c.want)
		}
	}
}
