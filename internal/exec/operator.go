// Package exec implements Photon's vectorized query operators (§4, §5.2):
// pull-based HasNext/GetNext-style nodes exchanging column batches, with
// per-operator metrics (an explicit design goal of the vectorized model,
// §3.3), unified-memory-manager integration with reservation/allocation
// phases and spilling (§5.3), and the adapter/transition nodes that bridge
// to the row-oriented baseline engine (§5.2).
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"photon/internal/expr"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// Operator is a vectorized query operator. Next returns the next column
// batch or (nil, nil) at end of input. A returned batch remains valid only
// until the next call to Next or Close; consumers that retain data must
// copy it out.
type Operator interface {
	Schema() *types.Schema
	Open(tc *TaskCtx) error
	Next() (*vector.Batch, error)
	Close() error
	// Stats exposes the operator's live metrics (§5.5: Photon operators
	// export statistics for adaptive decisions and UI display).
	Stats() *OpStats
}

// OpStats carries per-operator metrics. The vectorized model preserves
// operator boundaries, so each operator maintains its own counters —
// the paper's primary debugging interface for customer workloads.
type OpStats struct {
	Name string

	// ID is the operator's stable pre-order position within its stage
	// fragment's plan, assigned before execution (AssignStatsIDs). Every
	// task of a stage builds an identical plan shape from the fragment cut
	// at PlanStages time, so (fragment ID, operator ID) names "the same
	// operator" across parallel tasks — the merge key of distributed
	// EXPLAIN ANALYZE.
	ID int

	// upstream records 1 + the producing fragment's ID on exchange-read
	// leaves (ShuffleRead/BroadcastRead). The per-task stats walk ends at
	// stage inputs; this field is where the merged query profile stitches
	// the consumer's tree onto the producer fragment's ShuffleWrite.
	// 0 means "not an exchange read".
	upstream int
	// fused is, on the outermost step of a fused pipeline, the pipeline's
	// operator count including its source (set by fuse); 0 otherwise.
	fused int

	RowsIn      atomic.Int64
	RowsOut     atomic.Int64
	BatchesOut  atomic.Int64
	TimeNanos   atomic.Int64
	SpillCount  atomic.Int64
	SpillBytes  atomic.Int64
	PeakMemory  atomic.Int64
	Compactions atomic.Int64
	// PassedRows counts the input rows a partial aggregation passed on
	// without aggregating them (HashAggOp.passThrough).
	PassedRows atomic.Int64
	// BuiltLeft counts the tasks whose hash join built its table on the left
	// input (HashJoinOp.readAhead).
	BuiltLeft atomic.Int64
	// SkippedBatches of a table's StoredBatches were ruled out by their
	// min/max envelopes before an in-memory scan (catalog.MemTable.Survivors).
	SkippedBatches, StoredBatches atomic.Int32
}

// SetUpstream records the producing fragment of an exchange-read leaf.
// Called at plan-build time, before the operator runs.
func (s *OpStats) SetUpstream(frag int) { s.upstream = frag + 1 }

// UpstreamFrag returns the producing fragment of an exchange-read leaf
// (ok = false for every other operator).
func (s *OpStats) UpstreamFrag() (int, bool) { return s.upstream - 1, s.upstream > 0 }

// observePeak records a memory high-water mark.
func (s *OpStats) observePeak(n int64) {
	for {
		cur := s.PeakMemory.Load()
		if n <= cur || s.PeakMemory.CompareAndSwap(cur, n) {
			return
		}
	}
}

// TaskCtx is the per-task execution context: Photon runs as part of a
// single-threaded task (§2.2), so nothing here is shared across tasks except
// the memory Manager.
type TaskCtx struct {
	Expr *expr.Ctx
	Mem  *mem.Manager
	Pool *mem.BatchPool

	// Ctx is the query/job context. Operators check it at batch
	// boundaries (the Cancelled helper), so a cancelled query stops
	// within one batch of work even mid-scan, mid-build, or mid-shuffle.
	// Nil means "never cancelled".
	Ctx context.Context

	// SpillDir receives spill files. MakeSpillDir, when set, is asked for the
	// directory instead, and makes it: a query's directory is made by the first
	// file written into it. With neither, spilling is disabled (reservations
	// that would spill then fail).
	SpillDir     string
	MakeSpillDir func() (string, error)

	// EnableCompaction turns on adaptive batch compaction before hash-table
	// probes (§4.6, Fig. 9); CompactionThreshold is the sparsity above
	// which a batch is compacted.
	EnableCompaction    bool
	CompactionThreshold float64

	// Progress, when non-nil, receives cumulative work deltas at batch
	// boundaries (rows and bytes moved through exchange edges). The
	// scheduler's straggler detector reads the accumulated totals to rank
	// speculative re-execution candidates by least progress.
	Progress func(rows, bytes int64)

	// Transitions counts the column-to-row boundary nodes the physical
	// planner built into this task's plan (§6.3).
	Transitions int

	spillSeq atomic.Int64
}

// ReportProgress forwards a work delta to the task's progress sink, if any.
// Safe on a nil receiver and with no sink configured.
func (tc *TaskCtx) ReportProgress(rows, bytes int64) {
	if tc == nil || tc.Progress == nil {
		return
	}
	tc.Progress(rows, bytes)
}

// NewTaskCtx builds a context with the given memory manager (nil = new
// unlimited manager) and batch size (0 = default).
func NewTaskCtx(m *mem.Manager, batchSize int) *TaskCtx {
	if m == nil {
		m = mem.NewManager(0)
	}
	return &TaskCtx{
		Expr:                expr.NewCtx(batchSize),
		Mem:                 m,
		Pool:                mem.NewBatchPool(batchSize),
		Ctx:                 context.Background(),
		EnableCompaction:    true,
		CompactionThreshold: 0.5,
	}
}

// Cancelled returns a non-nil error when the task's context is done — the
// batch-boundary cancellation check. The returned error wraps the context
// cause (so errors.Is(err, context.Canceled) holds) while naming the
// cancellation point.
func (tc *TaskCtx) Cancelled() error {
	if tc == nil || tc.Ctx == nil {
		return nil
	}
	if err := tc.Ctx.Err(); err != nil {
		if cause := context.Cause(tc.Ctx); cause != nil && !errors.Is(err, cause) {
			// Keep the ctx error in the wrap chain (so callers can match
			// context.Canceled) but name the cancellation cause.
			return fmt.Errorf("exec: query cancelled: %w (cause: %v)", err, cause)
		}
		return fmt.Errorf("exec: query cancelled: %w", err)
	}
	return nil
}

// grownRows sizes a buffer that must hold need rows the way an exchange's
// staging batch grows: 64 rows at first, then double what is needed, up to
// the batch size — so a query of a few rows never pays for full batches.
func grownRows(need, batchSize int) int {
	return min(max(need, batchSize), max(64, 2*need))
}

// CanSpill reports whether the task has somewhere to put spill files.
func (tc *TaskCtx) CanSpill() bool { return tc.SpillDir != "" || tc.MakeSpillDir != nil }

// base provides common Operator plumbing.
type base struct {
	schema *types.Schema
	stats  OpStats
	tc     *TaskCtx
}

func (b *base) Schema() *types.Schema { return b.schema }
func (b *base) Stats() *OpStats       { return &b.stats }

// timed runs f and accrues wall time into the operator's stats.
func (b *base) timed(f func() error) error {
	start := time.Now()
	err := f()
	b.stats.TimeNanos.Add(int64(time.Since(start)))
	return err
}

// drain feeds the batches next returns to body until next returns nil, body
// returns false or either fails: a breaker's input side, with the breaker's
// per-batch work as body. It checks cancellation before each pull. With s
// set, next is an operator's Next: each batch's active rows count as s's
// input and are reported as the task's progress. Rows that are no
// operator's input (a re-read of rows counted when they were first taken, a
// query's result) pass nil.
func drain(tc *TaskCtx, s *OpStats, next func() (*vector.Batch, error), body func(*vector.Batch) (bool, error)) error {
	for {
		if err := tc.Cancelled(); err != nil {
			return err
		}
		b, err := next()
		if err != nil || b == nil {
			return err
		}
		if s != nil {
			n := int64(b.NumActive())
			s.RowsIn.Add(n)
			tc.ReportProgress(n, 0)
		}
		if more, err := body(b); !more || err != nil {
			return err
		}
	}
}

// CollectAll drains op into a slice of kept batches (test/result helper).
func CollectAll(op Operator, tc *TaskCtx) ([]*vector.Batch, error) {
	if err := op.Open(tc); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []*vector.Batch
	err := drain(tc, nil, op.Next, func(b *vector.Batch) (bool, error) {
		if n := b.NumActive(); n > 0 {
			out = append(out, b.Keep())
			tc.ReportProgress(int64(n), 0)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CollectRows drains op into materialized rows (test/result helper).
func CollectRows(op Operator, tc *TaskCtx) ([][]any, error) {
	batches, err := CollectAll(op, tc)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for _, b := range batches {
		rows = append(rows, b.Rows()...)
	}
	return rows, nil
}
