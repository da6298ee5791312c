package exec

import (
	"context"
	"errors"
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
// Property test: a Filter→Filter→Project chain must produce byte-identical
// batches fused and unfused — same values, same NumRows, and the same
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

// statRow is the ID-stable subset of a stats snapshot that must match
// between fused and unfused execution (TimeNanos legitimately differs: in
// fused mode loop time accrues to the hidden pipeline node).
type statRow struct {
	ID, Depth                   int
	Name                        string
	RowsIn, RowsOut, BatchesOut int64
}

// buildChain assembles Filter(a >= lo) → Filter(b < hi) → Project(b, a+1000)
// over the given batches.
func buildChain(schema *types.Schema, batches []*vector.Batch, lo, hi int64) Operator {
	scan := NewMemScan(schema, batches)
	f1 := NewFilter(scan, expr.MustCmp(kernels.CmpGe, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(lo)))
	f2 := NewFilter(f1, expr.MustCmp(kernels.CmpLt, expr.Col(1, "b", types.Int64Type), expr.Int64Lit(hi)))
	return NewProject(f2, []expr.Expr{
		expr.Col(1, "b", types.Int64Type),
		expr.MustArith(expr.OpAdd, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(1000)),
	}, []string{"b", "a1k"})
}

// runChain executes the chain (optionally fused) and returns per-batch
// snapshots plus the stats rows of the logical operators.
func runChain(t *testing.T, schema *types.Schema, batches []*vector.Batch, lo, hi int64, fused bool) ([]batchSnap, []statRow) {
	t.Helper()
	root := buildChain(schema, batches, lo, hi)
	if fused {
		root = FusePipelines(root)
		if _, ok := root.(*PipelineOp); !ok {
			t.Fatalf("FusePipelines did not fuse the chain: %T", root)
		}
	}
	AssignStatsIDs(root)
	tc := newTC(t)
	if err := root.Open(tc); err != nil {
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

func TestFusedPipelinePropertyEquivalence(t *testing.T) {
	schema := intSchema("a", "b")
	cases := []struct {
		name   string
		sparse bool
		lo, hi int64 // Filter(a >= lo), Filter(b < hi)
	}{
		{"dense_selective", false, 500, 500},
		{"sparse_selective", true, 500, 500},
		{"dense_all_pass", false, 0, 1 << 40}, // dense fast path: Sel must stay nil
		{"sparse_all_pass", true, 0, 1 << 40},
		{"dense_all_drop", false, 1 << 40, 500},
		{"sparse_all_drop", true, 1 << 40, 500},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				r := rand.New(rand.NewSource(int64(trial)*7919 + 1))
				batches := randomBatches(r, schema, tcase.sparse)
				// Filters shrink Sel in place, so each run gets its own copy.
				ref, refStats := runChain(t, schema, cloneBatches(batches), tcase.lo, tcase.hi, false)
				got, gotStats := runChain(t, schema, cloneBatches(batches), tcase.lo, tcase.hi, true)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("trial %d: fused output differs\nunfused: %v\nfused:   %v", trial, ref, got)
				}
				if !reflect.DeepEqual(refStats, gotStats) {
					t.Fatalf("trial %d: fused stats differ\nunfused: %v\nfused:   %v", trial, refStats, gotStats)
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

// TestFusedPipelineStatsIDs: fusing must not shift pre-order operator IDs,
// names, or depths — distributed EXPLAIN ANALYZE merges snapshots by ID.
func TestFusedPipelineStatsIDs(t *testing.T) {
	schema := intSchema("a", "b")
	r := rand.New(rand.NewSource(42))
	batches := randomBatches(r, schema, false)
	_, refStats := runChain(t, schema, cloneBatches(batches), 250, 750, false)
	_, gotStats := runChain(t, schema, cloneBatches(batches), 250, 750, true)
	if len(refStats) == 0 || !reflect.DeepEqual(refStats, gotStats) {
		t.Fatalf("stats rows differ\nunfused: %v\nfused:   %v", refStats, gotStats)
	}
}

// TestCollectPipelines: the fused plan reports its pipeline shape for the
// stage profile's pipeline[...] line.
func TestCollectPipelines(t *testing.T) {
	schema := intSchema("a", "b")
	r := rand.New(rand.NewSource(7))
	batches := randomBatches(r, schema, false)
	root := FusePipelines(buildChain(schema, batches, 0, 1<<40))
	tc := newTC(t)
	rows, err := CollectRows(root, tc)
	if err != nil {
		t.Fatal(err)
	}
	infos := CollectPipelines(root)
	if len(infos) != 1 {
		t.Fatalf("pipelines = %d, want 1", len(infos))
	}
	// Source scan + two filters + project.
	if infos[0].Ops != 4 {
		t.Errorf("fused ops = %d, want 4", infos[0].Ops)
	}
	if infos[0].Rows != int64(len(rows)) {
		t.Errorf("pipeline rows = %d, want %d", infos[0].Rows, len(rows))
	}
	if infos[0].Batches != int64(len(batches)) {
		t.Errorf("pipeline batches = %d, want %d", infos[0].Batches, len(batches))
	}
}

// ---------------------------------------------------------------------------
// Prompt cancellation inside fused loops (the 1M-row giant-batch tests,
// extended to the fused path).
// ---------------------------------------------------------------------------

// TestFusedFilterCancelsWithinGiantBatch: a fused filter pipeline must
// observe cancellation inside one giant batch via the windowed selection
// kernel, not only between batches.
func TestFusedFilterCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("a")
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelOnNextSource{batch: giantBatch(schema, n), cancel: cancel}
	src.schema = schema

	filt := NewFilter(src, expr.MustCmp(kernels.CmpGe, expr.Col(0, "a", types.Int64Type), expr.Int64Lit(0)))
	root := FusePipelines(filt)
	if _, ok := root.(*PipelineOp); !ok {
		t.Fatalf("expected fused pipeline, got %T", root)
	}
	tc := newTC(t)
	tc.Ctx = ctx
	_, err := CollectRows(root, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestAggUpdateCancelsWithinGiantBatch: the hash-aggregate group-resolution
// loop runs under the hash table's guard, so cancellation lands inside a
// single giant batch with a bounded number of groups inserted.
func TestAggUpdateCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("g")
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelOnNextSource{batch: giantBatch(schema, n), cancel: cancel}
	src.schema = schema

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
	if got := agg.tbl.NumRows(); got > cancelCheckRows {
		t.Fatalf("agg inserted %d groups after cancellation (window=%d)", got, cancelCheckRows)
	}
}

// TestJoinProbeCancelsWithinGiantBatch: the probe-side Find runs under the
// hash table's guard too; cancellation during one giant probe batch aborts
// without resolving the whole batch.
func TestJoinProbeCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	probeSchema := intSchema("rid")
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelOnNextSource{batch: giantBatch(probeSchema, n), cancel: cancel}
	src.schema = probeSchema

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

// TestFusedRuntimeFilterCancelsWithinGiantBatch: the runtime-filter probe
// operator windows its row probes inside a fused pipeline as well.
func TestFusedRuntimeFilterCancelsWithinGiantBatch(t *testing.T) {
	const n = 1 << 20
	schema := intSchema("k")
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelOnNextSource{batch: giantBatch(schema, n), cancel: cancel}
	src.schema = schema

	f := rf.NewFilter([]types.DataType{types.Int64Type}, 4)
	build := vector.NewBatch(schema, 3)
	for i, k := range []int64{1, 2, 3} {
		build.Vecs[0].I64[i] = k
	}
	build.NumRows = 3
	var hs rf.HashScratch
	f.Add(build, []int{0}, nil, 3, &hs)

	rfo := NewRuntimeFilter(src).Stack([]int{0}, f, 0)
	root := FusePipelines(rfo)
	if _, ok := root.(*PipelineOp); !ok {
		t.Fatalf("expected fused pipeline, got %T", root)
	}
	tc := newTC(t)
	tc.Ctx = ctx
	_, err := CollectRows(root, tc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
