package experiments

import (
	"time"

	"photon/internal/exec"
	"photon/internal/expr"
	"photon/internal/ht"
	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// Ablations measures the design-choice micro-experiments DESIGN.md calls
// out (the §3/§4 specializations), mirroring the testing.B ablation
// benchmarks in a photon-bench-friendly form.
func Ablations() ([]Measurement, error) {
	var out []Measurement

	// Fused BETWEEN vs two comparisons + AND (§3.3).
	{
		schema := types.NewSchema(types.Field{Name: "d", Type: types.Int32Type})
		n := 2_000_000
		var data []*vector.Batch
		for start := 0; start < n; start += vector.DefaultBatchSize {
			b := vector.NewBatch(schema, vector.DefaultBatchSize)
			for i := start; i < min(start+vector.DefaultBatchSize, n); i++ {
				b.AppendRow(int32(i % 1000))
			}
			data = append(data, b)
		}
		run := func(unfused bool) (time.Duration, error) {
			col := expr.Col(0, "d", types.Int32Type)
			var between expr.Filter = expr.NewBetween(col, expr.Int32Lit(200), expr.Int32Lit(700))
			if unfused {
				between = expr.NewAnd(expr.Ge(col, expr.Int32Lit(200)), expr.Le(col, expr.Int32Lit(700)))
			}
			return timeIt(func() error {
				tc := exec.NewTaskCtx(nil, 0)
				filt := exec.NewFilter(exec.NewMemScan(schema, data), between)
				agg, err := exec.NewHashAgg(filt, exec.AggComplete, nil, nil,
					[]expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
				if err != nil {
					return err
				}
				_, err = exec.CollectRows(agg, tc)
				return err
			})
		}
		fused, err := run(false)
		if err != nil {
			return nil, err
		}
		unfused, err := run(true)
		if err != nil {
			return nil, err
		}
		out = append(out,
			Measurement{Config: "BETWEEN fused kernel (§3.3)", Elapsed: fused},
			Measurement{Config: "BETWEEN as two comparisons + AND", Elapsed: unfused},
		)
	}

	// Kernel specialization: dense NULL-free vs checked vs position list.
	{
		n := vector.DefaultBatchSize
		a := make([]int64, n)
		c := make([]int64, n)
		o := make([]int64, n)
		nulls := make([]byte, n)
		sel := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			a[i] = int64(i)
			c[i] = int64(2 * i)
			sel = append(sel, int32(i))
		}
		const iters = 200_000
		dense, _ := timeIt(func() error {
			for k := 0; k < iters; k++ {
				kernels.AddVV(a, c, o, nil, n)
			}
			return nil
		})
		checked, _ := timeIt(func() error {
			for k := 0; k < iters; k++ {
				kernels.AddVVNulls(a, c, o, nulls, nil, n)
			}
			return nil
		})
		poslist, _ := timeIt(func() error {
			for k := 0; k < iters; k++ {
				kernels.AddVV(a, c, o, sel, n)
			}
			return nil
		})
		out = append(out,
			Measurement{Config: "add kernel, dense NULL-free fast path", Elapsed: dense},
			Measurement{Config: "add kernel, NULL-checked", Elapsed: checked},
			Measurement{Config: "add kernel, position-list indirection", Elapsed: poslist},
		)
	}

	// Vectorized vs scalar probe over an out-of-cache table (§4.4).
	{
		const tableSize = 1 << 21
		tbl := ht.New([]types.DataType{types.Int64Type}, 0)
		keys := vector.New(types.Int64Type, vector.DefaultBatchSize)
		hashes := make([]uint64, vector.DefaultBatchSize)
		rowIDs := make([]int32, vector.DefaultBatchSize)
		inserted := make([]bool, vector.DefaultBatchSize)
		lanes := make([]uint64, vector.DefaultBatchSize)
		for start := 0; start < tableSize; start += vector.DefaultBatchSize {
			bn := min(vector.DefaultBatchSize, tableSize-start)
			for i := 0; i < bn; i++ {
				keys.I64[i] = int64(start + i)
				lanes[i] = uint64(start + i)
			}
			kernels.HashU64(lanes[:bn], nil, false, nil, bn, hashes)
			tbl.FindOrInsert([]*vector.Vector{keys}, hashes, nil, bn, rowIDs, inserted)
		}
		r := uint64(1)
		fill := func() {
			for i := 0; i < vector.DefaultBatchSize; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				keys.I64[i] = int64(r % (2 * tableSize))
				lanes[i] = uint64(keys.I64[i])
			}
			kernels.HashU64(lanes, nil, false, nil, vector.DefaultBatchSize, hashes)
		}
		const rounds = 2000
		vectorized, _ := timeIt(func() error {
			for k := 0; k < rounds; k++ {
				fill()
				tbl.Find([]*vector.Vector{keys}, hashes, nil, vector.DefaultBatchSize, rowIDs)
			}
			return nil
		})
		r = 1
		scalar, _ := timeIt(func() error {
			for k := 0; k < rounds; k++ {
				fill()
				tbl.FindScalar([]*vector.Vector{keys}, hashes, nil, vector.DefaultBatchSize, rowIDs)
			}
			return nil
		})
		out = append(out,
			Measurement{Config: "hash-table probe, batched (§4.4)", Elapsed: vectorized},
			Measurement{Config: "hash-table probe, scalar", Elapsed: scalar},
		)
	}
	return out, nil
}
