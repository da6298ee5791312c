package exec

import (
	"fmt"

	"photon/internal/types"
	"photon/internal/vector"
)

// MemScan streams an in-memory table (a slice of batches). The
// micro-benchmarks read from in-memory tables "to isolate the effects of
// Photon's execution improvements" (§6.1); the storage layer provides
// file-backed scans.
type MemScan struct {
	base
	batches []*vector.Batch
	pos     int
	off     int // first row of batches[pos] not yet emitted
	// Projection maps output columns to source columns; nil = all.
	Projection []int
	out        *vector.Batch
}

// Stored batches are immutable: every emit wraps the stored vectors in a
// fresh batch header, so downstream selection changes never touch shared
// state and concurrent tasks may scan the same table (the multi-threaded
// executor model, §2.2).

// NewMemScan builds a scan over pre-built batches sharing schema.
func NewMemScan(schema *types.Schema, batches []*vector.Batch) *MemScan {
	s := &MemScan{batches: batches}
	s.schema = schema
	s.stats.Name = "MemScan"
	return s
}

// WithProjection restricts the scan to the given source column ordinals.
func (s *MemScan) WithProjection(cols []int) *MemScan {
	s.Projection = cols
	s.schema = s.schema.Project(cols)
	return s
}

// Open implements Operator.
func (s *MemScan) Open(tc *TaskCtx) error {
	s.tc = tc
	s.pos, s.off = 0, 0
	return nil
}

// Next implements Operator. Batches are passed through zero-copy (projected
// scans share the underlying vectors); a stored batch larger than the task's
// batch size goes out as consecutive row ranges of it.
func (s *MemScan) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := s.timed(func() error {
		// Batch-boundary cancellation check: a cancelled query stops its
		// scan before emitting the next batch.
		if err := s.tc.Cancelled(); err != nil {
			return err
		}
		if s.pos >= len(s.batches) {
			return nil
		}
		src := s.batches[s.pos]
		lo, hi := s.off, min(src.NumRows, s.off+s.tc.Pool.BatchSize())
		if hi < src.NumRows {
			s.off = hi
		} else {
			s.pos, s.off = s.pos+1, 0
		}
		if s.out == nil {
			s.out = vector.WrapBatch(s.schema, nil, nil, 0)
		}
		s.out.Vecs = s.out.Vecs[:0]
		if s.Projection == nil {
			s.out.Vecs = append(s.out.Vecs, src.Vecs...)
		} else {
			for _, c := range s.Projection {
				s.out.Vecs = append(s.out.Vecs, src.Vecs[c])
			}
		}
		s.out.SetCapacity(src.Capacity())
		if hi-lo < src.NumRows {
			for i, v := range s.out.Vecs {
				s.out.Vecs[i] = v.Slice(lo, hi)
			}
			s.out.SetCapacity(hi - lo)
		}
		s.out.Sel = nil
		s.out.NumRows = hi - lo
		out = s.out
		s.stats.RowsOut.Add(int64(out.NumActive()))
		s.stats.BatchesOut.Add(1)
		return nil
	})
	return out, err
}

// Close implements Operator.
func (s *MemScan) Close() error { return nil }

// BuildBatches materializes rows into batches of the given size (test and
// data-generator helper); it panics where PivotRows returns an error.
func BuildBatches(schema *types.Schema, rows [][]any, batchSize int) []*vector.Batch {
	out, err := PivotRows(schema, rows, batchSize)
	if err != nil {
		panic(err)
	}
	return out
}

// PivotRows turns boxed rows (nil = NULL) into batches of batchSize rows, one
// column at a time; the string payloads of each column of a batch are copied
// into one byte arena. A row whose arity or whose values' Go types do not
// match the schema is an error naming the row, the column and both types.
func PivotRows(schema *types.Schema, rows [][]any, batchSize int) ([]*vector.Batch, error) {
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	var out []*vector.Batch
	for start := 0; start < len(rows); start += batchSize {
		chunk := rows[start:min(start+batchSize, len(rows))]
		for i, r := range chunk {
			if len(r) != schema.Len() {
				return nil, fmt.Errorf("row %d holds %d values for %d columns", start+i, len(r), schema.Len())
			}
		}
		b := vector.NewBatch(schema, batchSize)
		for c, v := range b.Vecs {
			if i := pivotColumn(v, chunk, c); i >= 0 {
				f := schema.Field(c)
				return nil, fmt.Errorf("row %d column %d (%q %s): value of Go type %T", start+i, c, f.Name, f.Type, chunk[i][c])
			}
		}
		b.NumRows = len(chunk)
		out = append(out, b)
	}
	return out, nil
}

// pivotColumn fills v from column c of rows and returns the index of the
// first row whose value is neither nil nor of a Go type v stores, or -1.
func pivotColumn(v *vector.Vector, rows [][]any, c int) int {
	switch v.Type.ID {
	case types.Int32, types.Date:
		return pivotFixed(v, v.I32, rows, c)
	case types.Int64, types.Timestamp:
		return pivotFixed(v, v.I64, rows, c)
	case types.Float64:
		return pivotFixed(v, v.F64, rows, c)
	case types.Decimal:
		return pivotFixed(v, v.Dec, rows, c)
	}
	size := 0 // string payload bytes, copied into one arena
	for i, r := range rows {
		if !settable(v, r[c]) {
			return i
		}
		if s, ok := r[c].(string); ok {
			size += len(s)
		}
	}
	arena := make([]byte, 0, size)
	for i, r := range rows {
		if s, ok := r[c].(string); ok {
			at := len(arena)
			arena = append(arena, s...)
			v.Str[i] = arena[at:len(arena):len(arena)]
		} else {
			v.Set(i, r[c])
		}
	}
	return -1
}

// pivotFixed is pivotColumn for a fixed-width vector of Go values of type T.
func pivotFixed[T any](v *vector.Vector, dst []T, rows [][]any, c int) int {
	for i, r := range rows {
		switch x := r[c].(type) {
		case nil:
			v.SetNull(i)
		case T:
			dst[i] = x
		default:
			return i
		}
	}
	return -1
}

// settable reports whether x is NULL or a Go value Set stores in v, a Bool or
// String vector.
func settable(v *vector.Vector, x any) bool {
	switch x.(type) {
	case nil:
		return true
	case bool:
		return v.Type.ID == types.Bool
	case string, []byte:
		return v.Type.ID == types.String
	}
	return false
}
