package rowengine

import (
	"photon/internal/types"
	"photon/internal/vector"
)

// BatchScan pivots a streamed columnar source into rows — the legacy
// engine's scan path over columnar files (every value boxes).
type BatchScan struct {
	schema *types.Schema
	open   func() (BatchSource, error)
	src    BatchSource
	cur    *vector.Batch
	pos    int
	row    []any
}

// BatchSource is the columnar stream a BatchScan pivots: Next returns nil at
// end of input, Close releases the stream's files and may be called twice.
type BatchSource interface {
	Next() (*vector.Batch, error)
	Close() error
}

// NewBatchScan wraps a batch stream factory.
func NewBatchScan(schema *types.Schema, open func() (BatchSource, error)) *BatchScan {
	return &BatchScan{schema: schema, open: open}
}

// Schema implements Operator.
func (s *BatchScan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *BatchScan) Open() error {
	if err := s.Close(); err != nil {
		return err
	}
	src, err := s.open()
	if err != nil {
		return err
	}
	s.src = src
	s.cur = nil
	s.pos = 0
	if s.row == nil {
		s.row = make([]any, s.schema.Len())
	}
	return nil
}

// NextRow implements Operator.
func (s *BatchScan) NextRow() ([]any, error) {
	for {
		if s.cur != nil && s.pos < s.cur.NumActive() {
			i := s.cur.RowIndex(s.pos)
			s.pos++
			for c, v := range s.cur.Vecs {
				s.row[c] = v.Get(i)
			}
			return s.row, nil
		}
		b, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		s.cur = b
		s.pos = 0
	}
}

// Close implements Operator.
func (s *BatchScan) Close() error {
	src := s.src
	s.src = nil
	if src == nil {
		return nil
	}
	return src.Close()
}
