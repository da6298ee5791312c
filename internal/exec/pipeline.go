package exec

import (
	"time"

	"photon/internal/types"
	"photon/internal/vector"
)

// Fused pipeline execution (§4.3; Flare's loop fusion; Shaikhha et al.'s
// observation that fusion, not push-vs-pull, is what wins): Filter, Project
// and RuntimeFilter are steps of a PipelineOp, never operators of their own.
// NewFilter, NewProject and NewRuntimeFilter start a pipeline over their
// input, or join the one their input already is, so a maximal run of steps
// above a pipeline breaker is one loop per source batch from the moment it
// is built. The selection vector shrinks in place through the run's filters,
// projections feed zero-copy off it, and the consuming breaker (HashAgg's
// update side, HashJoin's probe side, a sort or shuffle write) pulls from
// the pipeline directly.

// step is one per-batch stage of a pipeline. processBatch returns the step's
// output batch (usually its input with a shrunk position list or replaced
// vectors) or nil when the batch was consumed entirely (fully filtered); it
// counts the step's rows and batches.
type step interface {
	core() *stepBase
	processBatch(b *vector.Batch) (*vector.Batch, error)
	// release frees step-local resources when the pipeline closes.
	release()
}

// stepBase is the plumbing every step shares: its metrics and task context,
// and its input in the stats walk — the step below it, or the pipeline's
// source.
type stepBase struct {
	base
	in any
}

func (s *stepBase) core() *stepBase { return s }
func (s *stepBase) children() []any { return []any{s.in} }
func (s *stepBase) release()        {}

// PipelineOp runs its steps over one source as a single loop per batch.
// It reports as its outermost step: its schema, stats and stats-walk
// children are that step's, so the stats walk sees every step with the
// pre-order IDs and depths of a plain operator chain, and distributed
// EXPLAIN ANALYZE merges them like any operator.
type PipelineOp struct {
	src   Operator
	steps []step // innermost (input side) first
	tc    *TaskCtx
}

// fuse adds s on top of child: it joins child when child is a pipeline and
// starts one over child otherwise. s's stats-walk input becomes the step it
// now follows — never the pipeline itself, which reports as s and would
// make the walk cycle.
func fuse(child Operator, s step) *PipelineOp {
	p, ok := child.(*PipelineOp)
	if !ok {
		p = &PipelineOp{src: child}
		s.core().in = child
	} else {
		s.core().in = p.steps[len(p.steps)-1]
	}
	p.steps = append(p.steps, s)
	return p
}

func (p *PipelineOp) out() *stepBase        { return p.steps[len(p.steps)-1].core() }
func (p *PipelineOp) Schema() *types.Schema { return p.out().schema }
func (p *PipelineOp) Stats() *OpStats       { return &p.out().stats }
func (p *PipelineOp) children() []any       { return p.out().children() }

// Open implements Operator: the source opens once; steps only take the task
// context.
func (p *PipelineOp) Open(tc *TaskCtx) error {
	p.tc = tc
	for _, s := range p.steps {
		s.core().tc = tc
	}
	return p.src.Open(tc)
}

// Next implements Operator: one loop per source batch. The source times its
// own Next; the clock is read before the first step and after each one, and
// each difference is that step's own time. Cancellation is checked
// per batch here and every ~64K rows inside the steps' own windowed kernels
// (filter evaluation, runtime-filter probes), so even a single giant batch
// cancels promptly.
func (p *PipelineOp) Next() (*vector.Batch, error) {
	for {
		if err := p.tc.Cancelled(); err != nil {
			return nil, err
		}
		b, err := p.src.Next()
		if err != nil || b == nil {
			return nil, err
		}
		t0 := time.Now()
		for _, s := range p.steps {
			if b, err = s.processBatch(b); err != nil {
				return nil, err
			}
			t1 := time.Now()
			s.core().stats.TimeNanos.Add(int64(t1.Sub(t0)))
			t0 = t1
			if b == nil {
				break // fully filtered: pull the next source batch
			}
		}
		if b != nil {
			return b, nil
		}
	}
}

// Close implements Operator.
func (p *PipelineOp) Close() error {
	for _, s := range p.steps {
		s.release()
	}
	return p.src.Close()
}

// PipelineInfo summarizes one fused pipeline's execution for the stage
// profile's pipeline[...] line.
type PipelineInfo struct {
	Ops     int   // fused operators, including the source
	Batches int64 // batches the pipeline emitted
	Rows    int64 // rows the pipeline emitted
}

// CollectPipelines gathers fused-pipeline summaries reachable from root
// (an Operator or a mixed plan node).
func CollectPipelines(root any) []PipelineInfo {
	var out []PipelineInfo
	var walk func(n any)
	walk = func(n any) {
		if p, ok := n.(*PipelineOp); ok {
			out = append(out, PipelineInfo{
				Ops:     len(p.steps) + 1,
				Batches: p.Stats().BatchesOut.Load(),
				Rows:    p.Stats().RowsOut.Load(),
			})
		}
		if sc, ok := n.(statsChild); ok {
			for _, c := range sc.children() {
				walk(c)
			}
		}
	}
	walk(root)
	return out
}
