package exec

import (
	"photon/internal/expr"
	"photon/internal/types"
	"photon/internal/vector"
)

// FilterOp is the pipeline step that applies a filtering expression by
// shrinking each batch's position list (§4.3). Data vectors are untouched;
// only the selection changes.
type FilterOp struct {
	stepBase
	pred expr.Filter
	sel  []int32
}

// NewFilter adds a filter step over child.
func NewFilter(child Operator, pred expr.Filter) *PipelineOp {
	f := &FilterOp{pred: pred}
	f.schema = child.Schema()
	f.stats.Name = "Filter(" + pred.String() + ")"
	return fuse(child, f)
}

// processBatch applies the predicate to one batch, shrinking its position
// list; nil output means the batch was fully filtered.
func (f *FilterOp) processBatch(b *vector.Batch) (*vector.Batch, error) {
	f.stats.RowsIn.Add(int64(b.NumActive()))
	sel, err := f.pred.EvalSel(f.tc.Expr, b, f.sel[:0])
	if err != nil {
		return nil, err
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
