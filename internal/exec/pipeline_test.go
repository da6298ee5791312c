package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/rf"
	"photon/internal/types"
	"photon/internal/vector"
)

// ---------------------------------------------------------------------------
// Property test: a Filter→Filter→Project chain must emit the batches a
// row-by-row evaluation does — same values, same NumRows, and the same
// selection-vector representation (including the dense fast path where an
// all-pass filter over a dense batch keeps Sel == nil instead of
// materializing the identity selection).
// ---------------------------------------------------------------------------

// batchSnap captures one output batch's observable bytes: the selection
// vector exactly as represented (nil vs materialized), the physical row
// count, and every active row's values.
type batchSnap struct {
	SelNil  bool
	Sel     []int32
	NumRows int
	Rows    [][]any
}

func snapshotBatch(b *vector.Batch) batchSnap {
	s := batchSnap{SelNil: b.Sel == nil, NumRows: b.NumRows}
	if b.Sel != nil {
		s.Sel = append([]int32(nil), b.Sel...)
	}
	n := b.NumActive()
	for i := 0; i < n; i++ {
		row := append([]any(nil), b.Row(b.RowIndex(i))...)
		s.Rows = append(s.Rows, row)
	}
	return s
}

// statRow is the ID-stable subset of a stats snapshot (everything but time).
type statRow struct {
	ID, Depth                   int
	Name                        string
	RowsIn, RowsOut, BatchesOut int64
}

// buildChain assembles Filter(a >= lo) → Filter(b < hi) → Project(b, a+1000)
// over the given batches.
func buildChain(schema *types.Schema, batches []*vector.Batch, lo, hi int64) Operator {
	return buildChainOver(NewMemScan(schema, batches), lo, hi)
}

// buildChainOver assembles the same chain over src.
func buildChainOver(src Operator, lo, hi int64) Operator {
	f1 := NewFilter(src, expr.MustCmp(kernels.CmpGe, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(lo)))
	f2 := NewFilter(f1, expr.MustCmp(kernels.CmpLt, expr.Col(1, "b", types.Int64Type), expr.Int64Lit(hi)))
	return NewProject(f2, []expr.Expr{
		expr.Col(1, "b", types.Int64Type),
		expr.MustArith(expr.OpAdd, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(1000)),
	}, []string{"b", "a1k"})
}

// randomBatches generates batches of random size; sparse=true attaches a
// random (possibly empty) sorted selection to each.
func randomBatches(r *rand.Rand, schema *types.Schema, sparse bool) []*vector.Batch {
	nb := 3 + r.Intn(5)
	out := make([]*vector.Batch, 0, nb)
	for i := 0; i < nb; i++ {
		// newTC sizes the expression arena for 64-row batches.
		n := 1 + r.Intn(64)
		b := vector.NewBatch(schema, n)
		for row := 0; row < n; row++ {
			b.Vecs[0].I64[row] = r.Int63n(1000)
			b.Vecs[1].I64[row] = r.Int63n(1000)
		}
		b.NumRows = n
		if sparse {
			var sel []int32
			for row := 0; row < n; row++ {
				if r.Intn(3) == 0 {
					sel = append(sel, int32(row))
				}
			}
			b.SetSel(sel) // may be empty: a fully-deselected batch
		}
		out = append(out, b)
	}
	return out
}

// cloneBatches gives each batch its own position list (kept non-nil when
// empty); filters shrink a position list in place and never write vectors.
func cloneBatches(in []*vector.Batch) []*vector.Batch {
	out := make([]*vector.Batch, len(in))
	for i, b := range in {
		c := *b
		if b.Sel != nil {
			c.Sel = append([]int32{}, b.Sel...)
		}
		out[i] = &c
	}
	return out
}

// sliceSource emits its batches exactly as given, position lists included
// (MemScan emits dense batches only).
type sliceSource struct {
	base
	batches []*vector.Batch
	next    int
}

func newSliceSource(schema *types.Schema, batches []*vector.Batch) *sliceSource {
	s := &sliceSource{batches: batches}
	s.schema = schema
	s.stats.Name = "SliceSource"
	return s
}

func (s *sliceSource) Open(tc *TaskCtx) error { s.tc = tc; s.next = 0; return nil }
func (s *sliceSource) Close() error           { return nil }
func (s *sliceSource) Next() (*vector.Batch, error) {
	if s.next == len(s.batches) {
		return nil, nil
	}
	s.next++
	return s.batches[s.next-1], nil
}

// drainChain runs root to the end, returning a snapshot of every batch it emitted
// and the stats rows of its operators.
func drainChain(t *testing.T, root Operator) ([]batchSnap, []statRow) {
	t.Helper()
	AssignStatsIDs(root)
	if err := root.Open(newTC(t)); err != nil {
		t.Fatal(err)
	}
	var snaps []batchSnap
	for {
		b, err := root.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		snaps = append(snaps, snapshotBatch(b))
	}
	var stats []statRow
	for _, s := range SnapshotStats(root) {
		stats = append(stats, statRow{
			ID: s.ID, Depth: s.Depth, Name: s.Name,
			RowsIn: s.RowsIn, RowsOut: s.RowsOut, BatchesOut: s.BatchesOut,
		})
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	return snaps, stats
}

// referenceChain evaluates Filter(a >= lo) → Filter(b < hi) → Project(b,
// a+1000) row by row in plain Go: the batches the chain must emit — a dense
// batch all of whose rows pass keeps no position list, a batch none of whose
// rows pass is not emitted — and the stats rows it must report.
func referenceChain(batches []*vector.Batch, lo, hi int64) ([]batchSnap, []statRow) {
	var snaps []batchSnap
	var in, passLo, passBoth, loBatches int64
	for _, b := range batches {
		rows := b.Sel
		if rows == nil {
			for r := 0; r < b.NumRows; r++ {
				rows = append(rows, int32(r))
			}
		}
		a, bv := b.Vecs[0].I64, b.Vecs[1].I64
		var kept []int32
		var keptLo int64
		for _, r := range rows {
			if a[r] >= lo {
				keptLo++
				if bv[r] < hi {
					kept = append(kept, r)
				}
			}
		}
		in += int64(len(rows))
		passLo += keptLo
		passBoth += int64(len(kept))
		if keptLo > 0 {
			loBatches++
		}
		if len(kept) == 0 {
			continue
		}
		s := batchSnap{SelNil: b.Sel == nil && len(kept) == b.NumRows, NumRows: b.NumRows}
		if !s.SelNil {
			s.Sel = kept
		}
		for _, r := range kept {
			s.Rows = append(s.Rows, []any{bv[r], a[r] + 1000})
		}
		snaps = append(snaps, s)
	}
	out := int64(len(snaps))
	return snaps, []statRow{
		{ID: 0, Depth: 0, Name: "Project", RowsIn: passBoth, RowsOut: passBoth, BatchesOut: out},
		{ID: 1, Depth: 1, Name: fmt.Sprintf("Filter((b < %d))", hi), RowsIn: passLo, RowsOut: passBoth, BatchesOut: out},
		{ID: 2, Depth: 2, Name: fmt.Sprintf("Filter((a >= %d))", lo), RowsIn: in, RowsOut: passLo, BatchesOut: loBatches},
		{ID: 3, Depth: 3, Name: "SliceSource"},
	}
}

// TestFusedPipelinePropertyEquivalence: a Filter→Filter→Project chain emits
// exactly the batches and reports exactly the per-step row and batch counts
// that the chain evaluated row by row does, over dense and sparse batches,
// batches with an empty position list, and predicates that pass or drop
// everything.
func TestFusedPipelinePropertyEquivalence(t *testing.T) {
	schema := intSchema("a", "b")
	cases := []struct {
		name   string
		sparse bool
		empty  bool  // every batch arrives with an empty position list
		lo, hi int64 // Filter(a >= lo), Filter(b < hi)
	}{
		{"dense_selective", false, false, 500, 500},
		{"sparse_selective", true, false, 500, 500},
		{"dense_all_pass", false, false, 0, 1 << 40}, // dense fast path: Sel must stay nil
		{"sparse_all_pass", true, false, 0, 1 << 40},
		{"dense_all_drop", false, false, 1 << 40, 500},
		{"sparse_all_drop", true, false, 1 << 40, 500},
		{"empty_selections", true, true, 0, 1 << 40},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				r := rand.New(rand.NewSource(int64(trial)*7919 + 1))
				batches := randomBatches(r, schema, tcase.sparse)
				if tcase.empty {
					for _, b := range batches {
						b.SetSel([]int32{})
					}
				}
				want, wantStats := referenceChain(batches, tcase.lo, tcase.hi)
				// Filters replace a batch's position list, so the run gets its own headers.
				got, gotStats := drainChain(t, buildChainOver(newSliceSource(schema, cloneBatches(batches)), tcase.lo, tcase.hi))
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d: output differs\nwant: %v\ngot:  %v", trial, want, got)
				}
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Fatalf("trial %d: stats differ\nwant: %v\ngot:  %v", trial, wantStats, gotStats)
				}
				if tcase.name == "dense_all_pass" {
					for i, s := range got {
						if !s.SelNil {
							t.Fatalf("trial %d batch %d: all-pass dense batch materialized Sel (fast path lost)", trial, i)
						}
					}
				}
			}
		})
	}
}

// TestFusedPipelineStatsIDs: steps keep the pre-order IDs, depths and names
// of a plain operator chain, on both sides of a breaker — a pipeline whose
// source is a HashAgg fed by another pipeline.
func TestFusedPipelineStatsIDs(t *testing.T) {
	schema := intSchema("a", "b")
	r := rand.New(rand.NewSource(42))
	below := buildChain(schema, randomBatches(r, schema, false), 250, 750)
	agg, err := NewHashAgg(below, AggComplete,
		[]expr.Expr{expr.Col(0, "b", types.Int64Type)}, []string{"b"},
		[]expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	root := NewProject(NewFilter(agg, expr.MustCmp(kernels.CmpGt, expr.Col(1, "c", types.Int64Type), expr.Int64Lit(0))),
		[]expr.Expr{expr.Col(1, "c", types.Int64Type)}, []string{"c"})
	_, got := drainChain(t, root)
	var names []string
	for _, s := range got {
		names = append(names, fmt.Sprintf("%d:%d:%s", s.ID, s.Depth, s.Name))
	}
	want := []string{"0:0:Project", "1:1:Filter((c > 0))", "2:2:HashAgg(0)",
		"3:3:Project", "4:4:Filter((b < 750))", "5:5:Filter((a >= 250))", "6:6:MemScan"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("stats rows = %v, want %v", names, want)
	}
}

// TestCollectPipelines: a plan's snapshot marks its pipeline's outermost
// step with the pipeline's operator count, and that row's counters are what
// the pipeline emitted: the stage profile's pipeline[...] line reads them.
func TestCollectPipelines(t *testing.T) {
	schema := intSchema("a", "b")
	r := rand.New(rand.NewSource(7))
	batches := randomBatches(r, schema, false)
	root := buildChain(schema, batches, 0, 1<<40)
	tc := newTC(t)
	rows, err := CollectRows(root, tc)
	if err != nil {
		t.Fatal(err)
	}
	var fused []OpProfile
	for _, s := range SnapshotStats(root) {
		if s.Fused > 0 {
			fused = append(fused, s)
		}
	}
	if len(fused) != 1 {
		t.Fatalf("pipelines = %d, want 1", len(fused))
	}
	// Source scan + two filters + project.
	if fused[0].Fused != 4 {
		t.Errorf("fused ops = %d, want 4", fused[0].Fused)
	}
	if fused[0].RowsOut != int64(len(rows)) {
		t.Errorf("pipeline rows = %d, want %d", fused[0].RowsOut, len(rows))
	}
	if fused[0].BatchesOut != int64(len(batches)) {
		t.Errorf("pipeline batches = %d, want %d", fused[0].BatchesOut, len(batches))
	}
}

// ---------------------------------------------------------------------------
// Prompt cancellation in pipelines and breakers: a stored batch of a million
// rows is scanned a task batch at a time, and every consumer stops at the
// next batch boundary once the query is cancelled.
// ---------------------------------------------------------------------------

// TestFusedFilterCancelsWithinGiantBatch: a filter step stops within one
// task batch of a giant stored batch.
func TestFusedFilterCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("a")
	ctx, cancel := context.WithCancel(context.Background())
	src := newCancelOnNextSource(schema, n, cancel)

	root := NewFilter(src, expr.MustCmp(kernels.CmpGe, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(0)))
	tc := newTC(t)
	tc.Ctx = ctx
	_, err := CollectRows(root, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestAggUpdateCancelsWithinGiantBatch: the hash aggregate stops with at
// most one task batch of groups inserted.
func TestAggUpdateCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("g")
	ctx, cancel := context.WithCancel(context.Background())
	src := newCancelOnNextSource(schema, n, cancel)

	agg, err := NewHashAgg(src, AggComplete,
		[]expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{{Kind: expr.AggCount, Name: "cnt"}})
	if err != nil {
		t.Fatal(err)
	}
	tc := newTC(t)
	tc.Ctx = ctx
	_, err = CollectRows(agg, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got, bs := agg.tbl.NumRows(), tc.Pool.BatchSize(); got > bs {
		t.Fatalf("agg inserted %d groups after cancellation (batch=%d)", got, bs)
	}
}

// TestJoinProbeCancelsWithinGiantBatch: the probe side stops within one task
// batch of a giant stored batch.
func TestJoinProbeCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	probeSchema := intSchema("rid")
	ctx, cancel := context.WithCancel(context.Background())
	src := newCancelOnNextSource(probeSchema, n, cancel)

	buildSchema := intSchema("bid")
	var buildRows [][]any
	for i := 0; i < 100; i++ {
		buildRows = append(buildRows, []any{int64(i)})
	}
	// Probe side (left) is the giant cancelling source; the small build
	// side (right) completes before cancellation fires.
	build := NewMemScan(buildSchema, BuildBatches(buildSchema, buildRows, 32))
	j, err := NewHashJoin(src, build,
		[]expr.Expr{expr.Col(0, "rid", types.Int64Type)},
		[]expr.Expr{expr.Col(0, "bid", types.Int64Type)}, InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTC(t)
	tc.Ctx = ctx
	_, err = CollectRows(j, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFusedRuntimeFilterCancelsWithinGiantBatch: so does the runtime-filter
// step.
func TestFusedRuntimeFilterCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("k")
	ctx, cancel := context.WithCancel(context.Background())
	src := newCancelOnNextSource(schema, n, cancel)

	f := rf.NewFilter([]types.DataType{types.Int64Type}, 4)
	build := vector.NewBatch(schema, 3)
	for i, k := range []int64{1, 2, 3} {
		build.Vecs[0].I64[i] = k
	}
	build.NumRows = 3
	var hs rf.HashScratch
	f.Add(build, []int{0}, nil, 3, &hs)

	root := NewRuntimeFilter(src, []ProducerFilter{{Keys: []int{0}, Filter: f}})
	tc := newTC(t)
	tc.Ctx = ctx
	_, err := CollectRows(root, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
