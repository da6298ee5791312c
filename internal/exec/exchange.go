package exec

import (
	"context"
	"fmt"

	"photon/internal/types"
	"photon/internal/vector"
)

// mergeCheckRows is how often (in merged rows) the driver-side k-way merge
// polls its context for cancellation.
const mergeCheckRows = 1024

// Exchange operators are the physical form of stage boundaries (§2.2):
// a ShuffleWriteOp terminates a map stage, hash-partitioning its input
// across the next stage's tasks; ShuffleReadOp / BroadcastReadOp are the
// leaf operators of the consuming stage. They are first-class operators —
// they appear in the stats tree like any other node — while the storage
// format stays behind the ShuffleSink/ShuffleSource interfaces so exec does
// not depend on the shuffle layer's encoding.

// ShuffleSink receives partitioned batches at a stage boundary
// (implemented by shuffle.Writer). WritePartition takes b's *active* rows,
// so callers can route subsets via the batch's selection vector; it copies
// them, and may hold them back until Close to hand them on in full blocks.
// Close is idempotent and repeats its first error.
type ShuffleSink interface {
	WritePartition(part int, b *vector.Batch) error
	Close() error
}

// ShuffleSource streams the batches of one shuffle partition (implemented
// by shuffle.Reader). NextBatch returns nil at the partition's end, and
// otherwise either a batch the exchange holds in memory — shared with every
// other reader of it, so never to be written to — or the next block of a
// file, decoded into the batch decodeInto returns. Close releases a file the
// source has open, for a consumer that stops before the end.
type ShuffleSource interface {
	NextBatch(decodeInto func() *vector.Batch) (*vector.Batch, error)
	Close() error
}

// PartitionFunc maps a batch's active rows to output partitions, returning
// one position list per partition (see shuffle.Partitioner.Split). The
// returned lists may alias internal buffers valid until the next call.
type PartitionFunc func(b *vector.Batch) [][]int32

// ShuffleWriteOp drains its child and routes every row to a shuffle
// partition. It is a sink: Next performs the whole write and returns end of
// input without emitting batches. The driver reads per-partition byte
// statistics from the concrete sink afterwards (AQE coalescing, §5.5).
type ShuffleWriteOp struct {
	base
	child Operator
	sink  ShuffleSink
	split PartitionFunc // nil = everything to partition 0 (keyless/broadcast)
	done  bool
}

// NewShuffleWrite builds a shuffle-write sink over child. A nil split sends
// every row to partition 0 (the keyless-aggregation and broadcast cases).
func NewShuffleWrite(child Operator, sink ShuffleSink, split PartitionFunc) *ShuffleWriteOp {
	s := &ShuffleWriteOp{child: child, sink: sink, split: split}
	s.schema = child.Schema()
	s.stats.Name = "ShuffleWrite"
	return s
}

// Open implements Operator.
func (s *ShuffleWriteOp) Open(tc *TaskCtx) error {
	s.tc = tc
	s.done = false
	return s.child.Open(tc)
}

// Next implements Operator: the first call drains the child into the sink;
// every call reports end of input.
func (s *ShuffleWriteOp) Next() (*vector.Batch, error) {
	if s.done {
		return nil, nil
	}
	err := s.timed(func() error {
		if err := drain(s.tc, &s.stats, s.child.Next, s.write); err != nil {
			return err
		}
		// The sink writes its last, partial blocks on Close; closing here,
		// not only in Close, lets that failure fail the task.
		s.done = true
		return s.sink.Close()
	})
	return nil, err
}

// write routes one input batch's active rows to their partitions.
func (s *ShuffleWriteOp) write(b *vector.Batch) (bool, error) {
	if b.NumActive() == 0 {
		return true, nil
	}
	if s.split == nil {
		s.stats.RowsOut.Add(int64(b.NumActive()))
		return true, s.sink.WritePartition(0, b)
	}
	saved := b.Sel
	defer func() { b.Sel = saved }()
	for part, sel := range s.split(b) {
		if len(sel) == 0 {
			continue
		}
		b.Sel = sel
		if err := s.sink.WritePartition(part, b); err != nil {
			return false, err
		}
		s.stats.RowsOut.Add(int64(len(sel)))
	}
	return true, nil
}

// Close implements Operator, closing the sink after the child so partition
// files are complete before the next stage starts.
func (s *ShuffleWriteOp) Close() error {
	errChild := s.child.Close()
	errSink := s.sink.Close()
	if errChild != nil {
		return errChild
	}
	return errSink
}

// exchangeRead is the shared mechanics of the exchange leaf operators: it
// streams a sequence of shuffle sources. A batch the exchange holds in memory
// goes out under a fresh header, as MemScan emits a stored table's: its
// vectors are shared with the other tasks reading it and stay untouched,
// while the header is this task's to narrow. A file block is decoded into a
// reused batch, made when the first one is.
type exchangeRead struct {
	base
	open func() ([]ShuffleSource, error)
	srcs []ShuffleSource
	idx  int
	buf  *vector.Batch // decode target
	view *vector.Batch // header over a held batch
	// target is decodeInto, bound once instead of once per batch.
	target func() *vector.Batch
	// rows is the exact number of rows the leaf yields, when known (SetRows).
	rows      int64
	rowsKnown bool
}

// SetRows records the exact number of rows the leaf will yield: its
// producer stages have finished, so the driver holds their row counts.
func (e *exchangeRead) SetRows(n int64) { e.rows, e.rowsKnown = n, true }

// ExactRows returns the row count recorded by SetRows.
func (e *exchangeRead) ExactRows() (int64, bool) { return e.rows, e.rowsKnown }

func (e *exchangeRead) Open(tc *TaskCtx) error {
	e.tc = tc
	e.idx = 0
	e.target = e.decodeInto
	srcs, err := e.open()
	if err != nil {
		return err
	}
	e.srcs = srcs
	return nil
}

// capacity is the row capacity of every batch the leaf emits. A block is a
// full writer-side batch at most, so at least the default batch size, which
// is the batch size of every task that reads an exchange.
func (e *exchangeRead) capacity() int {
	return max(e.tc.Pool.BatchSize(), vector.DefaultBatchSize)
}

// decodeInto returns the batch file blocks are decoded into.
func (e *exchangeRead) decodeInto() *vector.Batch {
	if e.buf == nil {
		e.buf = vector.NewBatch(e.schema, e.capacity())
	}
	return e.buf
}

func (e *exchangeRead) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := e.timed(func() error {
		for e.idx < len(e.srcs) {
			// Batch-boundary cancellation check (shuffle/broadcast read).
			if err := e.tc.Cancelled(); err != nil {
				return err
			}
			b, err := e.srcs[e.idx].NextBatch(e.target)
			if err != nil {
				return err
			}
			if b == nil {
				e.idx++
				continue
			}
			if b != e.buf {
				if e.view == nil {
					e.view = vector.WrapBatch(e.schema, nil, nil, 0)
					e.view.SetCapacity(e.capacity())
				}
				e.view.Vecs = append(e.view.Vecs[:0], b.Vecs...)
				e.view.Sel = nil
				e.view.NumRows = b.NumRows
				b = e.view
			}
			n := int64(b.NumActive())
			e.stats.RowsOut.Add(n)
			e.stats.BatchesOut.Add(1)
			// Straggler detection input: exchange-read progress.
			e.tc.ReportProgress(n, 0)
			out = b
			return nil
		}
		return nil
	})
	return out, err
}

func (e *exchangeRead) Close() error {
	var first error
	for _, src := range e.srcs {
		if err := src.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.srcs = nil
	return first
}

// ShuffleReadOp reads this task's (possibly coalesced) set of hash
// partitions of an upstream stage's shuffle output.
type ShuffleReadOp struct{ exchangeRead }

// NewShuffleRead builds a shuffle-read leaf; open yields one source per
// assigned partition.
func NewShuffleRead(name string, schema *types.Schema, open func() ([]ShuffleSource, error)) *ShuffleReadOp {
	op := &ShuffleReadOp{}
	op.schema = schema
	op.open = open
	op.stats.Name = name
	if name == "" {
		op.stats.Name = "ShuffleRead"
	}
	return op
}

// BroadcastReadOp reads the *entire* replicated output of an upstream
// stage (every map task's broadcast file) — the build-side input of a
// broadcast hash join. Unlike ShuffleReadOp, every task of the consuming
// stage sees all rows.
type BroadcastReadOp struct{ exchangeRead }

// NewBroadcastRead builds a broadcast-read leaf; open yields the sources
// covering the full broadcast dataset.
func NewBroadcastRead(name string, schema *types.Schema, open func() ([]ShuffleSource, error)) *BroadcastReadOp {
	op := &BroadcastReadOp{}
	op.schema = schema
	op.open = open
	op.stats.Name = name
	if name == "" {
		op.stats.Name = "BroadcastRead"
	}
	return op
}

// Drain runs op to completion for its side effects (shuffle writes),
// discarding any output batches.
func Drain(op Operator, tc *TaskCtx) error {
	if err := op.Open(tc); err != nil {
		return err
	}
	defer op.Close()
	return drain(tc, nil, op.Next, func(*vector.Batch) (bool, error) { return true, nil })
}

// MergeSortedRuns k-way merges per-task sorted outputs into globally
// ordered rows — the driver-side second phase of a two-phase parallel sort.
// Each run must already be ordered under keys; limit >= 0 truncates the
// merged output. ctx is observed every mergeCheckRows merged rows, so a
// cancelled query aborts the driver-side merge promptly even when the merge
// itself is the long pole (giant pre-sorted inputs). A nil ctx disables the
// check.
func MergeSortedRuns(ctx context.Context, runs [][]*vector.Batch, keys []SortKey, limit int64) ([][]any, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: merge requires sort keys")
	}
	var cursors []rowCursor
	var total int64
	for _, run := range runs {
		refs := rowRefs(run)
		cursors = append(cursors, &refCursor{batches: run, refs: refs, pos: -1})
		total += int64(len(refs))
	}
	if limit >= 0 && limit < total {
		total = limit
	}
	m, err := newRowMerge(keys, cursors)
	if err != nil {
		return nil, err
	}
	out := make([][]any, 0, total)
	for m.Len() > 0 && (limit < 0 || int64(len(out)) < limit) {
		if ctx != nil && len(out)%mergeCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("exec: merge cancelled: %w", err)
			}
		}
		b, i := m.cur[0].row()
		out = append(out, b.Row(i))
		if err := m.advance(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
