package exec

import (
	"runtime"
	"testing"

	"photon/internal/expr"
	"photon/internal/types"
	"photon/internal/vector"
)

// uniqueKeyAgg is a partial count(*), count(DISTINCT v), sum(v) GROUP BY k
// over rows whose keys never repeat: a table that keeps every row it reads.
func uniqueKeyAgg(t *testing.T, rows int) *HashAggOp {
	t.Helper()
	schema := intSchema("k", "v")
	var batches []*vector.Batch
	for lo := 0; lo < rows; lo += 2048 {
		b := vector.NewBatch(schema, 2048)
		b.NumRows = min(2048, rows-lo)
		for i := 0; i < b.NumRows; i++ {
			b.Vecs[0].I64[i] = int64(lo + i)
			b.Vecs[1].I64[i] = int64((lo + i) % 1000)
		}
		batches = append(batches, b)
	}
	v := expr.Col(1, "v", types.Int64Type)
	agg, err := NewHashAgg(NewMemScan(schema, batches), AggPartial, []expr.Expr{expr.Col(0, "k", types.Int64Type)}, []string{"k"},
		[]expr.AggSpec{{Kind: expr.AggCount, Name: "c"}, {Kind: expr.AggCount, Arg: v, Distinct: true, Name: "d"}, {Kind: expr.AggSum, Arg: v, Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// countRows pulls every batch from an opened operator and counts active rows.
func countRows(t *testing.T, op Operator) int {
	t.Helper()
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return n
		}
		n += b.NumActive()
	}
}

// TestPassThroughDropsReservation: once a partial aggregation stops
// reducing, it keeps no table, and its reservation falls to at most one
// output batch.
func TestPassThroughDropsReservation(t *testing.T) {
	const rows = 60_000
	agg := uniqueKeyAgg(t, rows)
	tc := NewTaskCtx(nil, 2048)
	if err := agg.Open(tc); err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// An output row is a key, two counts, a blob header with its 12 bytes,
	// and a sum: under 128 bytes with its NULL bytes.
	oneBatch := int64(tc.Pool.BatchSize()) * 128
	out := 0
	for agg.Stats().PassedRows.Load() == 0 {
		b, err := agg.Next()
		if err != nil || b == nil {
			t.Fatalf("input ended (err %v) before the partial stopped aggregating", err)
		}
		out += b.NumActive()
	}
	if peak := agg.Stats().PeakMemory.Load(); peak <= oneBatch {
		t.Fatalf("peak reservation %d is not above one output batch (%d): the test does not see the drop", peak, oneBatch)
	}
	if got := tc.Mem.UsedBy(agg.consumer); got > oneBatch || agg.tbl != nil {
		t.Errorf("passing rows through: %d bytes reserved (one output batch is %d), table kept: %v", got, oneBatch, agg.tbl != nil)
	}
	if out += countRows(t, agg); out != rows {
		t.Errorf("%d partial states out of %d unique-key rows", out, rows)
	}
	if in, passed := agg.Stats().RowsIn.Load(), agg.Stats().PassedRows.Load(); in != rows || passed < rows-2*passMinRows {
		t.Errorf("rows in %d, passed %d of %d", in, passed, rows)
	}
}

// TestPassThroughAllocationBounded holds a 200k-row partial aggregation that
// does not reduce to a per-row allocation bound: past its first passMinRows
// rows it allocates no table, only partial states in reused batches. A
// partial that builds its whole table allocates several times the bound.
// Race instrumentation changes allocation, so CI runs this in a non-race
// step.
func TestPassThroughAllocationBounded(t *testing.T) {
	const rows, perRow = 200_000, 24
	var allocated uint64
	for range 3 { // the smallest of three: the runtime's stray allocations only add
		agg := uniqueKeyAgg(t, rows)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := agg.Open(NewTaskCtx(nil, 2048)); err != nil {
			t.Fatal(err)
		}
		n := countRows(t, agg)
		agg.Close()
		runtime.ReadMemStats(&after)
		if n != rows {
			t.Fatalf("%d partial states out of %d unique-key rows", n, rows)
		}
		if a := after.TotalAlloc - before.TotalAlloc; allocated == 0 || a < allocated {
			allocated = a
		}
	}
	t.Logf("%d bytes, %.1f a row", allocated, float64(allocated)/rows)
	if allocated > rows*perRow {
		t.Errorf("a %d-row partial aggregation that does not reduce allocated %d bytes, %.1f a row (bound %d)",
			rows, allocated, float64(allocated)/rows, perRow)
	}
}
