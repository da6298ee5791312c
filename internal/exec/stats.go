package exec

import (
	"fmt"
	"strings"
)

// Per-operator metrics are the vectorized model's observability story
// (§3.3): operator boundaries survive execution, so every operator reports
// rows, batches, time, spills, and peak memory — "the primary interface to
// debugging performance issues in customer workloads". WalkStats collects
// the live tree; RenderStats formats it like a query profile.

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
// records its producing fragment (OpStats.SetUpstream) and RenderStats
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

// RenderStats formats the operator tree's live metrics.
func RenderStats(op Operator) string {
	var sb strings.Builder
	WalkStats(op, func(s *OpStats, depth int) {
		fmt.Fprintf(&sb, "%s%s\n", strings.Repeat("  ", depth), s.String())
	})
	return sb.String()
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

// StatsSnapshot is a point-in-time copy of one operator's metrics, safe to
// ship across goroutines after the owning task completes.
type StatsSnapshot struct {
	ID    int
	Depth int
	Name  string
	// Upstream is the producing fragment for exchange-read leaves
	// (-1 for every other operator).
	Upstream int

	RowsIn, RowsOut, BatchesOut, TimeNanos          int64
	SpillCount, SpillBytes, PeakMemory, Compactions int64
	PassedRows, BuiltLeft                           int64
	SkippedBatches, StoredBatches                   int32
}

// Snapshot copies the operator's counters at the given plan depth.
func (s *OpStats) Snapshot(depth int) StatsSnapshot {
	up := -1
	if f, ok := s.UpstreamFrag(); ok {
		up = f
	}
	return StatsSnapshot{
		ID:          s.ID,
		Depth:       depth,
		Name:        s.Name,
		Upstream:    up,
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

		SkippedBatches: s.SkippedBatches.Load(),
		StoredBatches:  s.StoredBatches.Load(),
	}
}

// SnapshotStats walks the plan reachable from root and snapshots every
// metrics-carrying node in pre-order (the task-side half of distributed
// EXPLAIN ANALYZE; the driver merges snapshots across a stage's tasks).
// Every task calls it, so it sizes its result before filling it.
func SnapshotStats(root any) []StatsSnapshot {
	n := 0
	WalkStats(root, func(*OpStats, int) { n++ })
	out := make([]StatsSnapshot, 0, n)
	WalkStats(root, func(s *OpStats, depth int) {
		out = append(out, s.Snapshot(depth))
	})
	return out
}
