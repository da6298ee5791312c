package exec

import (
	"fmt"
	"strings"
	"time"
)

// Per-operator metrics are the vectorized model's observability story
// (§3.3): operator boundaries survive execution, so every operator reports
// rows, batches, time, spills, and peak memory — "the primary interface to
// debugging performance issues in customer workloads". WalkStats collects
// the live tree; SnapshotStats records it as OpProfile rows.

// statsNode is any node carrying operator metrics. Both Photon operators
// and the row-boundary TransitionOp (a RowIterator, not an Operator)
// qualify, so the stats walk can cross engine boundaries.
type statsNode interface{ Stats() *OpStats }

// statsChild exposes node children for stats walking without widening the
// Operator interface. Children are `any` because a mixed Photon/row-engine
// plan interleaves Operators with RowIterators (AdapterOp wraps a
// RowIterator; TransitionOp wraps an Operator).
type statsChild interface{ children() []any }

func (op *HashAggOp) children() []any { return []any{op.child} }
func (op *HashJoinOp) children() []any {
	return []any{op.left, op.right}
}
func (s *SortOp) children() []any  { return []any{s.child} }
func (l *LimitOp) children() []any { return []any{l.child} }

// Engine-boundary nodes: without these the walk silently truncated any
// mixed Photon/row-engine plan at the first adapter or transition.
func (a *AdapterOp) children() []any    { return []any{a.rows} }
func (t *TransitionOp) children() []any { return []any{t.child} }

// Leaves report no children explicitly so the walk terminates cleanly.
func (s *SourceOp) children() []any { return nil }

// Exchange operators participate like any other node. The read sides are
// stage-input leaves *within a task* — their actual input is another
// fragment's ShuffleWrite in a different set of tasks — so each read op
// records its producing fragment (OpStats.SetUpstream) and its OpProfile
// prints the "<- stage N" stitch point instead of silently truncating the
// tree at stage inputs. Distributed EXPLAIN ANALYZE follows the same
// marker to splice the producer fragment's merged profile underneath.
func (s *ShuffleWriteOp) children() []any  { return []any{s.child} }
func (e *ShuffleReadOp) children() []any   { return nil }
func (e *BroadcastReadOp) children() []any { return nil }

// WalkStats visits every metrics-carrying node reachable from root with
// its depth. Root is usually an Operator but may be any plan node; nodes
// without metrics (pure row-engine operators) are traversed silently when
// they expose children, and end the walk otherwise.
func WalkStats(root any, visit func(s *OpStats, depth int)) {
	var walk func(n any, d int)
	walk = func(n any, d int) {
		next := d
		if sn, ok := n.(statsNode); ok {
			visit(sn.Stats(), d)
			next = d + 1
		}
		if sc, ok := n.(statsChild); ok {
			for _, c := range sc.children() {
				walk(c, next)
			}
		}
	}
	walk(root, 0)
}

// AssignStatsIDs numbers every metrics-carrying node reachable from root in
// pre-order. Called once per task before execution; because every task of a
// stage builds the identical operator tree from its fragment's plan, the
// assigned IDs are stable across tasks and serve as the per-fragment merge
// key for distributed EXPLAIN ANALYZE.
func AssignStatsIDs(root any) {
	id := 0
	WalkStats(root, func(s *OpStats, depth int) {
		s.ID = id
		id++
	})
}

// OpProfile is the record of what one operator did: a task's snapshot of
// its OpStats (Tasks 1), or the same operator merged over a stage's tasks
// by Merge. Distributed EXPLAIN ANALYZE renders it with String. A counter
// added to OpStats is added here, beside the lines of Snapshot, Merge and
// String that load, sum and print it, and nowhere else.
type OpProfile struct {
	ID       int
	Depth    int
	Name     string
	Upstream int // producing stage for exchange-read leaves; -1 otherwise
	Tasks    int // number of task snapshots merged into this row
	// Fused is, on the outermost step of a fused pipeline, the pipeline's
	// operator count including its source; 0 on every other row. Every task
	// of a stage builds the same tree, so merging leaves it as it is.
	Fused int

	RowsIn, RowsOut, BatchesOut, TimeNanos          int64
	SpillCount, SpillBytes, PeakMemory, Compactions int64
	PassedRows, BuiltLeft                           int64
	SkippedBatches, StoredBatches                   int64
}

// Snapshot copies the operator's counters at the given plan depth, as one
// task's record.
func (s *OpStats) Snapshot(depth int) OpProfile {
	up := -1
	if f, ok := s.UpstreamFrag(); ok {
		up = f
	}
	return OpProfile{
		ID:          s.ID,
		Depth:       depth,
		Name:        s.Name,
		Upstream:    up,
		Tasks:       1,
		Fused:       s.fused,
		RowsIn:      s.RowsIn.Load(),
		RowsOut:     s.RowsOut.Load(),
		BatchesOut:  s.BatchesOut.Load(),
		TimeNanos:   s.TimeNanos.Load(),
		SpillCount:  s.SpillCount.Load(),
		SpillBytes:  s.SpillBytes.Load(),
		PeakMemory:  s.PeakMemory.Load(),
		Compactions: s.Compactions.Load(),
		PassedRows:  s.PassedRows.Load(),
		BuiltLeft:   s.BuiltLeft.Load(),

		SkippedBatches: int64(s.SkippedBatches.Load()),
		StoredBatches:  int64(s.StoredBatches.Load()),
	}
}

// Merge folds another record of the same operator into o: counters sum and
// PeakMemory takes the larger.
func (o *OpProfile) Merge(s *OpProfile) {
	o.Tasks += s.Tasks
	o.RowsIn += s.RowsIn
	o.RowsOut += s.RowsOut
	o.BatchesOut += s.BatchesOut
	o.TimeNanos += s.TimeNanos
	o.SpillCount += s.SpillCount
	o.SpillBytes += s.SpillBytes
	o.PeakMemory = max(o.PeakMemory, s.PeakMemory)
	o.Compactions += s.Compactions
	o.PassedRows += s.PassedRows
	o.BuiltLeft += s.BuiltLeft
	o.SkippedBatches += s.SkippedBatches
	o.StoredBatches += s.StoredBatches
}

// String renders the record as one line with aligned columns. Rows,
// batches, time and tasks always print; spill, peak-memory, compaction,
// pass-through, build-side and skipped-batch fields appear only when
// nonzero, so the common case stays one clean line.
func (o *OpProfile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s in=%-10d out=%-10d batches=%-7d time=%-12v tasks=%d",
		o.Name, o.RowsIn, o.RowsOut, o.BatchesOut,
		time.Duration(o.TimeNanos).Round(time.Microsecond), o.Tasks)
	if o.SpillCount > 0 {
		fmt.Fprintf(&sb, " spills=%d spillBytes=%d", o.SpillCount, o.SpillBytes)
	}
	if o.PeakMemory > 0 {
		fmt.Fprintf(&sb, " peakMem=%d", o.PeakMemory)
	}
	if o.Compactions > 0 {
		fmt.Fprintf(&sb, " compactions=%d", o.Compactions)
	}
	if o.PassedRows > 0 {
		fmt.Fprintf(&sb, " passthrough=%d", o.PassedRows)
	}
	if o.BuiltLeft > 0 {
		fmt.Fprintf(&sb, " build=left×%d", o.BuiltLeft)
	}
	if o.SkippedBatches > 0 {
		fmt.Fprintf(&sb, " skipped=%d/%d", o.SkippedBatches, o.StoredBatches)
	}
	if o.Upstream >= 0 {
		fmt.Fprintf(&sb, " <- stage %d", o.Upstream)
	}
	return strings.TrimRight(sb.String(), " ")
}

// SnapshotStats snapshots every metrics-carrying node reachable from root in
// pre-order: a task's report, which the driver merges across a stage's tasks
// for distributed EXPLAIN ANALYZE. Every task calls it, so it counts the
// nodes before it fills its result.
func SnapshotStats(root any) []OpProfile {
	n := 0
	WalkStats(root, func(*OpStats, int) { n++ })
	out := make([]OpProfile, 0, n)
	WalkStats(root, func(s *OpStats, depth int) {
		out = append(out, s.Snapshot(depth))
	})
	return out
}
