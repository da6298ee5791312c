package exec

import (
	"fmt"
	"testing"

	"photon/internal/expr"
	"photon/internal/types"
	"photon/internal/vector"
)

// distinctAggInput is 600k (o, s) rows for count(DISTINCT s) GROUP BY o,
// row r in group key(r). Four consecutive rows to a key is TPC-H Q21's
// sub-aggregation in miniature (150k small sets): a partial aggregation
// keeps almost every row. Every thousandth row to a key (1k keys of two
// values each) reduces the input 300-fold.
func distinctAggInput(key func(r int) int) (*types.Schema, []*vector.Batch) {
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
			b.Vecs[0].I64[i] = int64(key(r))
			b.Vecs[1].I64[i] = int64((r*7919)%1000) / int64(1+r%2) // repeats inside a key
		}
		out = append(out, b)
	}
	return schema, out
}

// BenchmarkDistinctAgg times and, with -benchmem, weighs count(DISTINCT) in
// the two shapes a query runs it — one complete aggregation, and a partial
// aggregation whose output a final one merges — over input that does not
// reduce (4 rows a key) and input that does (600 rows a key).
func BenchmarkDistinctAgg(b *testing.B) {
	for _, shape := range []struct {
		perKey int
		key    func(r int) int
	}{{4, func(r int) int { return r / 4 }}, {600, func(r int) int { return r % 1000 }}} {
		schema, batches := distinctAggInput(shape.key)
		keys := []expr.Expr{expr.Col(0, "o", types.Int64Type)}
		specs := []expr.AggSpec{{Kind: expr.AggCount, Arg: expr.Col(1, "s", types.Int64Type), Distinct: true, Name: "d"}}
		agg := func(b *testing.B, child Operator, mode AggMode) *HashAggOp {
			op, err := NewHashAgg(child, mode, keys, []string{"o"}, specs)
			if err != nil {
				b.Fatal(err)
			}
			return op
		}
		for _, plan := range []struct {
			name string
			op   func(b *testing.B) Operator
		}{
			{"complete", func(b *testing.B) Operator { return agg(b, NewMemScan(schema, batches), AggComplete) }},
			{"partial+final", func(b *testing.B) Operator {
				return agg(b, agg(b, NewMemScan(schema, batches), AggPartial), AggFinal)
			}},
		} {
			b.Run(fmt.Sprintf("rows-per-key=%d/%s", shape.perKey, plan.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := CollectAll(plan.op(b), NewTaskCtx(nil, 2048)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
