package driver

import (
	"fmt"
	"strings"
	"time"

	"photon/internal/exec"
	"photon/internal/shuffle"
)

// Distributed EXPLAIN ANALYZE: every task snapshots its operator tree's
// metrics after running (exec.SnapshotStats); the driver merges snapshots
// across a stage's tasks keyed by the stable pre-order operator IDs
// (exec.AssignStatsIDs — every task of a stage builds the identical tree
// from the fragment's plan), then stitches stage fragments back into one
// query-shaped profile at the exchange-read leaves (OpStats upstream
// markers). The result is the paper's per-operator debugging interface
// (§3.3) surviving parallel, multi-stage execution.

// OpProfile is one operator's metrics merged across all tasks of a stage:
// the record each task snapshots (exec.OpProfile).
type OpProfile = exec.OpProfile

// StageProfile is one fragment's merged execution profile.
type StageProfile struct {
	ID    int
	Label string // fragment label ("FinalAgg->gather")
	Out   string // output exchange kind
	// TasksPlanned is the scheduled task count; TasksRun counts tasks that
	// actually built and ran an operator tree (AQE coalescing can no-op
	// excess readers).
	TasksPlanned, TasksRun int
	WallNanos              int64
	Ops                    []OpProfile

	// Output-exchange volume (hash/broadcast stages): rows, how many of them
	// the next stage was handed in memory, and for the rest, written to
	// files: encoded bytes, bytes on disk (encoded bytes and block headers),
	// and the §4.6 adaptive encoding decisions by column block.
	ShuffleRawBytes, ShuffleBytes, ShuffleRows int64
	ShuffleMemRows                             int64
	EncCounts                                  [3]int64

	// Rows this (probe-side) stage's RuntimeFilter operators dropped.
	RFRowsPruned int64
	// Runtime filter published by this (build-side) stage: the keys it holds
	// and the keys its Bloom filters were sized for from the planner's row
	// estimate, both zero when the stage publishes none; and whether every
	// key column stayed an exact set rather than a Bloom filter.
	RFKeys, RFSizedFor int64
	RFExact            bool

	// Fused-pipeline execution, read from the operator rows whose Fused is
	// set: operators running inside fused pipelines in one task's plan, and
	// the batches/rows the stage's pipelines emitted across all tasks. All
	// zero when the stage has no Filter, Project or RuntimeFilter.
	PipelineOps                   int
	PipelineBatches, PipelineRows int64

	// Narrow-decimal execution: decimal batches dispatched to the int64
	// fast path, and mid-batch overflow escapes back to the 128-bit
	// kernels. Zero when the fast path is disabled or no decimal work ran.
	Dec64Batches, Dec64Escapes int64

	// Fault-tolerance activity: Recovered counts lineage re-runs of this
	// stage's map tasks after corrupt/missing shuffle blocks; Speculated and
	// SpecWins count straggler duplicates launched and duplicates that
	// committed first; Retries counts extra attempts after transient task
	// failures.
	Recovered, Speculated, SpecWins, Retries int64
}

// QueryProfile is the stitched whole-query profile.
type QueryProfile struct {
	Root   int // root (gather) stage ID
	Stages []StageProfile
}

// Stage returns the profile of stage id (nil if absent).
func (q *QueryProfile) Stage(id int) *StageProfile {
	for i := range q.Stages {
		if q.Stages[i].ID == id {
			return &q.Stages[i]
		}
	}
	return nil
}

// mergeSnapshots folds one task's snapshots into a stage's merged rows; the
// first task's rows become the stage's. Tasks of a stage build identical
// trees, so rows align by position; the ID check guards the alignment and
// falls back to a search if shapes ever diverge.
func mergeSnapshots(ops, snaps []OpProfile) []OpProfile {
	if ops == nil {
		return snaps
	}
	for i := range snaps {
		s := &snaps[i]
		var t *OpProfile
		if i < len(ops) && ops[i].ID == s.ID {
			t = &ops[i]
		} else {
			for j := range ops {
				if ops[j].ID == s.ID {
					t = &ops[j]
					break
				}
			}
		}
		if t == nil {
			ops = append(ops, *s)
		} else {
			t.Merge(s)
		}
	}
	return ops
}

// Render formats the stitched profile: the root stage's operator tree with
// each producer fragment spliced in under the exchange-read leaf that
// consumes it — EXPLAIN ANALYZE output with the query's original shape.
func (q *QueryProfile) Render() string {
	var sb strings.Builder
	seen := map[int]bool{}
	var render func(id, indent int)
	render = func(id, indent int) {
		st := q.Stage(id)
		if st == nil || seen[id] {
			return
		}
		seen[id] = true
		pad := strings.Repeat("  ", indent)
		fmt.Fprintf(&sb, "%sStage %d [%s] tasks=%d/%d wall=%v",
			pad, st.ID, st.Label, st.TasksRun, st.TasksPlanned,
			time.Duration(st.WallNanos).Round(time.Microsecond))
		if st.ShuffleRows > 0 || st.ShuffleBytes > 0 {
			fmt.Fprintf(&sb, " shuffle[rows=%d bytes=%d raw=%d enc=%s] mem=%d",
				st.ShuffleRows, st.ShuffleBytes, st.ShuffleRawBytes,
				encString(st.EncCounts), st.ShuffleMemRows)
		}
		var rfParts []string
		if st.RFRowsPruned > 0 {
			rfParts = append(rfParts, fmt.Sprintf("rows=%d", st.RFRowsPruned))
		}
		if st.RFSizedFor > 0 {
			form := "bloom"
			if st.RFExact {
				form = "exact"
			}
			rfParts = append(rfParts, fmt.Sprintf("keys=%d/%d %s", st.RFKeys, st.RFSizedFor, form))
		}
		if len(rfParts) > 0 {
			fmt.Fprintf(&sb, " rf[%s]", strings.Join(rfParts, " "))
		}
		if st.PipelineOps > 0 {
			fmt.Fprintf(&sb, " pipeline[ops=%d batches=%d rows=%d]",
				st.PipelineOps, st.PipelineBatches, st.PipelineRows)
		}
		if st.Dec64Batches > 0 || st.Dec64Escapes > 0 {
			fmt.Fprintf(&sb, " dec64[batches=%d escapes=%d]",
				st.Dec64Batches, st.Dec64Escapes)
		}
		if st.Recovered > 0 {
			fmt.Fprintf(&sb, " recovery[recovered=%d]", st.Recovered)
		}
		if st.Speculated > 0 {
			fmt.Fprintf(&sb, " spec[launched=%d won=%d]", st.Speculated, st.SpecWins)
		}
		if st.Retries > 0 {
			fmt.Fprintf(&sb, " retries[%d]", st.Retries)
		}
		sb.WriteByte('\n')
		for i := range st.Ops {
			op := &st.Ops[i]
			fmt.Fprintf(&sb, "%s%s%s\n", pad, strings.Repeat("  ", op.Depth+1), op.String())
			if op.Upstream >= 0 {
				render(op.Upstream, indent+op.Depth+2)
			}
		}
	}
	render(q.Root, 0)
	// Defensive: surface stages the stitch walk missed (should not happen)
	// rather than silently dropping them.
	for _, st := range q.Stages {
		if !seen[st.ID] {
			render(st.ID, 0)
		}
	}
	return sb.String()
}

// encString renders the per-encoding block counts compactly.
func encString(c [3]int64) string {
	parts := make([]string, 0, 3)
	for i, n := range c {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", shuffle.EncodingNames[i], n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// BoundaryFraction reports the fraction of total operator time spent in
// row<->column boundary nodes (Adapter/Transition) — the §6.3 metric.
// Staged fragments are pure Photon, so this is mainly meaningful on
// one-fragment hybrid plans. Returns 0 when no operator time was recorded.
func (q *QueryProfile) BoundaryFraction() float64 {
	var boundary, total int64
	for _, st := range q.Stages {
		for _, op := range st.Ops {
			total += op.TimeNanos
			if strings.HasPrefix(op.Name, "Adapter") || strings.HasPrefix(op.Name, "Transition") {
				boundary += op.TimeNanos
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(boundary) / float64(total)
}
