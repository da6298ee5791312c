package exec

import (
	"photon/internal/types"
	"photon/internal/vector"
)

// Source produces column batches from outside the operator tree — storage
// readers (Delta/Parquet files) adapted without exec depending on the
// storage packages. Next returns nil at end of input; a returned batch is
// valid until the next call. Close releases what the source holds (open
// files) and may be called at any point, more than once.
type Source interface {
	Next() (*vector.Batch, error)
	Close() error
}

// SourceOp wraps a Source as a leaf operator.
type SourceOp struct {
	base
	open func() (Source, error)
	src  Source
}

// NewSource builds a leaf operator; open is called on Open (and again on
// re-Open), producing a fresh stream.
func NewSource(name string, schema *types.Schema, open func() (Source, error)) *SourceOp {
	s := &SourceOp{open: open}
	s.schema = schema
	s.stats.Name = name
	return s
}

// Open implements Operator.
func (s *SourceOp) Open(tc *TaskCtx) error {
	s.tc = tc
	if err := s.Close(); err != nil {
		return err
	}
	src, err := s.open()
	if err != nil {
		return err
	}
	s.src = src
	return nil
}

// Next implements Operator.
func (s *SourceOp) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := s.timed(func() error {
		b, err := s.src.Next()
		if err != nil {
			return err
		}
		if b != nil {
			s.stats.RowsOut.Add(int64(b.NumActive()))
			s.stats.BatchesOut.Add(1)
		}
		out = b
		return nil
	})
	return out, err
}

// Close implements Operator: whatever the stream reached — end of input, an
// error, a cancelled query — its source lets go of its files here.
func (s *SourceOp) Close() error {
	src := s.src
	s.src = nil
	if src == nil {
		return nil
	}
	return src.Close()
}
