package exec

import (
	"errors"
	"strings"
	"testing"

	"photon/internal/expr"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// Failure injection: operators must surface errors cleanly rather than
// panic or silently truncate.

func TestOOMWithoutSpillDirErrors(t *testing.T) {
	schema := intSchema("g", "v")
	var rows [][]any
	for i := 0; i < 20000; i++ {
		rows = append(rows, []any{int64(i), int64(i)}) // every row a new group
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	agg, _ := NewHashAgg(scan, AggComplete, []expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(1, "v", types.Int64Type), Name: "s"}})
	tc := NewTaskCtx(mem.NewManager(64<<10), 64)
	tc.SpillDir = "" // spilling disabled
	_, err := CollectRows(agg, tc)
	if err == nil {
		t.Fatal("expected an out-of-memory error with spilling disabled")
	}
	var oom *mem.OOMError
	if !errors.As(err, &oom) && !strings.Contains(err.Error(), "out of memory") {
		t.Errorf("unexpected error type: %v", err)
	}
}

func TestJoinOOMWithoutSpillDirErrors(t *testing.T) {
	schema := intSchema("k")
	var rows [][]any
	for i := 0; i < 50000; i++ {
		rows = append(rows, []any{int64(i)})
	}
	l := NewMemScan(schema, BuildBatches(schema, rows, 64))
	r := NewMemScan(schema, BuildBatches(schema, rows, 64))
	key := []expr.Expr{expr.Col(0, "k", types.Int64Type)}
	j, _ := NewHashJoin(l, r, key, key, InnerJoin)
	tc := NewTaskCtx(mem.NewManager(64<<10), 64)
	_, err := CollectRows(j, tc)
	if err == nil {
		t.Fatal("expected OOM from the build side")
	}
}

type errorOp struct {
	base
	failOn int
	calls  int
}

func newErrorOp(schema *types.Schema, failOn int) *errorOp {
	op := &errorOp{failOn: failOn}
	op.schema = schema
	op.stats.Name = "ErrorOp"
	return op
}

func (e *errorOp) Open(tc *TaskCtx) error { e.tc = tc; return nil }
func (e *errorOp) Close() error           { return nil }
func (e *errorOp) Next() (*vector.Batch, error) {
	e.calls++
	if e.calls >= e.failOn {
		return nil, errors.New("injected source failure")
	}
	b := vector.NewBatch(e.schema, 8)
	b.AppendRow(int64(e.calls))
	return b, nil
}

func TestChildErrorPropagatesThroughPipeline(t *testing.T) {
	schema := intSchema("v")
	src := newErrorOp(schema, 3)
	filt := NewFilter(src, expr.MustCmp(0, expr.Col(0, "v", types.Int64Type), expr.Int64Lit(1)))
	agg, _ := NewHashAgg(filt, AggComplete, nil, nil, []expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
	_, err := CollectRows(agg, NewTaskCtx(nil, 8))
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("error not propagated: %v", err)
	}
}

// Recursive spill (§5.3): two memory consumers share one manager; the
// second's reservation forces the first to spill on its behalf, and both
// produce correct results.
func TestRecursiveSpillAcrossOperators(t *testing.T) {
	schema := intSchema("g", "v")
	var rows [][]any
	for i := 0; i < 6000; i++ {
		rows = append(rows, []any{int64(i % 1500), int64(i)})
	}
	mm := mem.NewManager(88 << 10)
	tc := NewTaskCtx(mm, 64)
	tc.SpillDir = t.TempDir()

	// Pipeline: Agg (hash table memory) feeding Sort (buffer memory); both
	// reserve from the same manager.
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	agg, _ := NewHashAgg(scan, AggComplete,
		[]expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(1, "v", types.Int64Type), Name: "s"}})
	sorted := NewSort(agg, []SortKey{{Col: 0}})
	got, err := CollectRows(sorted, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1500 {
		t.Fatalf("groups = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i][0].(int64) <= got[i-1][0].(int64) {
			t.Fatal("output not sorted")
		}
	}
	if mm.SpillCount == 0 {
		t.Error("expected spills under the shared 88KB limit")
	}
	// Verify against unconstrained execution.
	scan2 := NewMemScan(schema, BuildBatches(schema, rows, 64))
	agg2, _ := NewHashAgg(scan2, AggComplete,
		[]expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
		[]expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(1, "v", types.Int64Type), Name: "s"}})
	sorted2 := NewSort(agg2, []SortKey{{Col: 0}})
	want, err := CollectRows(sorted2, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}
