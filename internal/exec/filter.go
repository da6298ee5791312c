package exec

import (
	"cmp"
	"slices"
	"time"

	"photon/internal/expr"
	"photon/internal/types"
	"photon/internal/vector"
)

// FilterOp is the pipeline step that applies a filtering expression by
// shrinking each batch's position list (§4.3). Data vectors are untouched;
// only the selection changes.
//
// A conjunction's top-level conjuncts run cheapest first (§4.6; off under
// TaskCtx.Expr.Adaptive = false): by rows rejected per nanosecond, measured
// over the rows each is shown. Each still runs on every batch with rows left,
// so the rows kept are the written order's (DESIGN §10).
type FilterOp struct {
	stepBase
	pred  expr.Filter
	and   *expr.And   // conjs as a conjunction; nil unless pred has several conjuncts
	conjs []*conjunct // in running order
	sel   []int32
}

// conjunct is one of a FilterOp's conjuncts, counting what it does.
type conjunct struct {
	expr.Filter
	partTally
}

func (c *conjunct) EvalSel(ctx *expr.Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	in, t0 := b.NumActive(), time.Now()
	sel, err := c.Filter.EvalSel(ctx, b, out)
	c.count(in, len(sel)-len(out), time.Since(t0))
	return sel, err
}

// NewFilter adds a filter step over child.
func NewFilter(child Operator, pred expr.Filter) *PipelineOp {
	f := &FilterOp{pred: pred}
	if and, ok := pred.(*expr.And); ok && len(and.Filters) > 1 {
		f.and = expr.NewAnd(slices.Clone(and.Filters)...)
		for i, c := range and.Filters {
			f.conjs = append(f.conjs, &conjunct{Filter: c})
			f.and.Filters[i] = f.conjs[i]
		}
	}
	f.schema = child.Schema()
	f.stats.Name = "Filter(" + pred.String() + ")"
	return fuse(child, f)
}

// processBatch applies the predicate to one batch, shrinking its position
// list; nil output means the batch was fully filtered.
func (f *FilterOp) processBatch(b *vector.Batch) (*vector.Batch, error) {
	f.stats.RowsIn.Add(int64(b.NumActive()))
	pred := f.pred
	if f.and != nil && f.tc.Expr.Adaptive {
		pred = f.and
	}
	sel, err := pred.EvalSel(f.tc.Expr, b, f.sel[:0])
	if err != nil {
		return nil, err
	}
	if pred == f.and && judge(f.conjs, func(c *conjunct) float64 { return -float64(c.in-c.out) / float64(max(c.nanos, 1)) }) {
		for i, c := range f.conjs {
			f.and.Filters[i] = c
		}
	}
	f.sel = sel
	if len(sel) == 0 {
		return nil, nil // batch fully filtered
	}
	if len(sel) == b.NumRows && b.Sel == nil {
		// All rows passed: keep the dense fast path.
	} else {
		b.SetSel(sel)
	}
	f.stats.RowsOut.Add(int64(b.NumActive()))
	f.stats.BatchesOut.Add(1)
	return b, nil
}

// partTally is what one part of a filtering step — a FilterOp conjunct, a
// RuntimeFilterOp column filter — did since its last verdict.
type partTally struct {
	in, out, nanos int64   // rows shown and passed, time taken
	key            float64 // sort key at the last verdict
}

func (t *partTally) tally() *partTally { return t }

// count records that a part was shown in rows and passed out of them in d.
func (t *partTally) count(in, out int, d time.Duration) {
	t.in, t.out, t.nanos = t.in+int64(in), t.out+int64(out), t.nanos+int64(d)
}

// judge gives each part shown rfSampleRows rows since its last verdict the
// key verdict computes from its tally, which then starts over; if any part
// was judged, it sorts the parts by key, stably, and reports true.
func judge[P interface{ tally() *partTally }](parts []P, verdict func(P) float64) bool {
	judged := false
	for _, p := range parts {
		if t := p.tally(); t.in >= rfSampleRows {
			*t, judged = partTally{key: verdict(p)}, true
		}
	}
	if judged {
		slices.SortStableFunc(parts, func(a, b P) int { return cmp.Compare(a.tally().key, b.tally().key) })
	}
	return judged
}

// ProjectOp is the pipeline step that evaluates expressions into an output
// batch whose header is pooled and whose vectors are expression results or
// zero-copy column references, forwarding the input's position list.
type ProjectOp struct {
	stepBase
	exprs    []expr.Expr
	out      *vector.Batch
	ownedVec []bool
}

// NewProject adds a projection step over child. names provides output
// column names (empty entries fall back to the expression's rendering).
func NewProject(child Operator, exprs []expr.Expr, names []string) *PipelineOp {
	p := &ProjectOp{exprs: exprs}
	fields := make([]types.Field, len(exprs))
	for i, e := range exprs {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = e.String()
		}
		fields[i] = types.Field{Name: name, Type: e.Type(), Nullable: true}
	}
	p.schema = &types.Schema{Fields: fields}
	p.stats.Name = "Project"
	return fuse(child, p)
}

// processBatch evaluates the projection expressions over one batch.
func (p *ProjectOp) processBatch(b *vector.Batch) (*vector.Batch, error) {
	p.stats.RowsIn.Add(int64(b.NumActive()))
	if p.out == nil {
		// The output header comes from the task's batch pool and recycles
		// across batches; vectors are expression-pool outputs or zero-copy
		// column references, never per-batch batch allocations.
		p.out = p.tc.Pool.GetView(p.schema, len(p.exprs))
	} else {
		// Recycle previous output vectors we own.
		for i, v := range p.out.Vecs {
			if v != nil && p.ownedVec[i] {
				p.tc.Expr.Put(v)
			}
		}
	}
	if p.ownedVec == nil {
		p.ownedVec = make([]bool, len(p.exprs))
	}
	for i, e := range p.exprs {
		v, err := e.Eval(p.tc.Expr, b)
		if err != nil {
			return nil, err
		}
		_, isCol := e.(*expr.ColRef)
		p.out.Vecs[i] = v
		p.ownedVec[i] = !isCol
	}
	p.out.Sel = b.Sel
	p.out.NumRows = b.NumRows
	p.stats.RowsOut.Add(int64(p.out.NumActive()))
	p.stats.BatchesOut.Add(1)
	return p.out, nil
}

// release returns owned output vectors to the expression pool and the
// output header to the batch pool.
func (p *ProjectOp) release() {
	if p.out != nil {
		for i, v := range p.out.Vecs {
			if v != nil && p.ownedVec[i] {
				p.tc.Expr.Put(v)
			}
		}
		p.tc.Pool.PutView(p.out)
		p.out = nil
	}
}
