package exec

import (
	"testing"

	"photon/internal/expr"
	"photon/internal/types"
	"photon/internal/vector"
)

// distinctAggInput is TPC-H Q21's sub-aggregation in miniature: 600k
// (orderkey, suppkey) rows, about four per order, so count(DISTINCT suppkey)
// GROUP BY orderkey keeps 150k small sets.
func distinctAggInput() (*types.Schema, []*vector.Batch) {
	schema := types.NewSchema(
		types.Field{Name: "o", Type: types.Int64Type},
		types.Field{Name: "s", Type: types.Int64Type},
	)
	const rows, batch = 600_000, 2048
	var out []*vector.Batch
	for lo := 0; lo < rows; lo += batch {
		b := vector.NewBatch(schema, batch)
		b.NumRows = min(batch, rows-lo)
		for i := 0; i < b.NumRows; i++ {
			r := lo + i
			b.Vecs[0].I64[i] = int64(r / 4)
			b.Vecs[1].I64[i] = int64((r*7919)%1000) / int64(1+r%2) // repeats inside an order
		}
		out = append(out, b)
	}
	return schema, out
}

// BenchmarkDistinctAgg times and, with -benchmem, weighs count(DISTINCT) in
// the two shapes a query runs it: one complete aggregation, and a partial
// aggregation whose blobs a final one merges.
func BenchmarkDistinctAgg(b *testing.B) {
	schema, batches := distinctAggInput()
	keys := []expr.Expr{expr.Col(0, "o", types.Int64Type)}
	specs := []expr.AggSpec{{Kind: expr.AggCount, Arg: expr.Col(1, "s", types.Int64Type), Distinct: true, Name: "d"}}
	agg := func(b *testing.B, child Operator, mode AggMode) *HashAggOp {
		op, err := NewHashAgg(child, mode, keys, []string{"o"}, specs)
		if err != nil {
			b.Fatal(err)
		}
		return op
	}
	for name, plan := range map[string]func(b *testing.B) Operator{
		"complete": func(b *testing.B) Operator { return agg(b, NewMemScan(schema, batches), AggComplete) },
		"partial+final": func(b *testing.B) Operator {
			return agg(b, agg(b, NewMemScan(schema, batches), AggPartial), AggFinal)
		},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CollectAll(plan(b), NewTaskCtx(nil, 2048)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
