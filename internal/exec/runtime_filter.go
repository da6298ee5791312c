package exec

import (
	"strconv"
	"strings"

	"photon/internal/rf"
	"photon/internal/vector"
)

// RuntimeFilterOp is the pipeline step that drops rows that cannot match any
// build-side key of the joins above it, using the runtime filters those
// joins' build stages published: all the filters the planner left at one
// place in the plan run as one step. Like FilterOp it only shrinks each
// batch's position list — data vectors are untouched, and a Bloom filter's
// false positives merely pass extra rows, so the step is semantics-free by
// construction: it may skip any filter for any batch.
//
// It uses that freedom (batch-level adaptivity, §4.6; off under
// TaskCtx.Expr.Adaptive = false): each column filter's pass rate is measured
// over the rows it is shown, the filters are probed most-selective-first so
// the rest see only the survivors, and one that passes rfDropPass of its rows
// or more sits out rfNapBatches batches before it is measured again — a
// filter that rejects nothing costs a range check and a bit test per row for
// nothing (an exact set over integer keys), or a hash and a cache line (a
// Bloom filter), and one that rejects nothing of the first batches may still
// reject much of a table stored in another order.
type RuntimeFilterOp struct {
	stepBase
	probes []*rfProbe // in probing order
	hs     rf.HashScratch
	selA   []int32
	selB   []int32
}

// rfProbe is one key column's filter and what the task has seen of it; its
// sort key is its pass rate.
type rfProbe struct {
	col   int // child-schema ordinal of the key column
	f     *rf.ColFilter
	sleep int // batches it still sits out
	partTally
}

const (
	// rfSampleRows is how many rows a filter is shown before its pass rate
	// is judged: one full batch, a rate good to under a percent.
	rfSampleRows = 2048
	// rfDropPass is the pass rate from which probing a filter costs more
	// than carrying the rows it would have removed.
	rfDropPass = 0.9
	// rfNapBatches is how long a filter that fails rfDropPass sits out: a
	// filter that never rejects anything is then probed on a thirtieth of
	// the rows, and one that starts to is back within that many batches.
	rfNapBatches = 32
)

// ProducerFilter is the filter one build stage published for a runtime
// filter step.
type ProducerFilter struct {
	Keys     []int      // child-schema ordinals of the join key columns
	Filter   *rf.Filter // nil removes nothing
	Producer int        // fragment ID of the build stage (display only)
}

// NewRuntimeFilter adds a runtime-filter step over child that probes
// filters in the order given until adaptivity reorders them.
func NewRuntimeFilter(child Operator, filters []ProducerFilter) *PipelineOp {
	// Empty, not nil: a probe result that aliases them must never read as
	// the nil position list that means "every row".
	op := &RuntimeFilterOp{selA: []int32{}, selB: []int32{}}
	op.schema = child.Schema()
	ids := make([]string, len(filters))
	for i, pf := range filters {
		ids[i] = strconv.Itoa(pf.Producer)
		if pf.Filter == nil {
			continue
		}
		for k, c := range pf.Filter.Cols {
			if c != nil { // nil: unsupported key type, the column passes all
				op.probes = append(op.probes, &rfProbe{col: pf.Keys[k], f: c})
			}
		}
	}
	op.stats.Name = "RuntimeFilter(stage=" + strings.Join(ids, ",") + ")"
	return fuse(child, op)
}

// processBatch probes one batch through the runtime filters, shrinking its
// position list; nil output means every row was pruned.
func (op *RuntimeFilterOp) processBatch(b *vector.Batch) (*vector.Batch, error) {
	active := b.NumActive()
	op.stats.RowsIn.Add(int64(active))
	if len(op.probes) == 0 {
		// No usable column filter: pass through.
		op.stats.RowsOut.Add(int64(active))
		op.stats.BatchesOut.Add(1)
		return b, nil
	}
	sel := op.probeRows(b, b.Sel)
	if op.tc.Expr.Adaptive {
		op.adapt()
	}
	if sel != nil { // nil: the batch had no position list and no filter was awake
		if len(sel) == 0 {
			return nil, nil // whole batch pruned
		}
		b.SetSel(sel)
	}
	op.stats.RowsOut.Add(int64(b.NumActive()))
	op.stats.BatchesOut.Add(1)
	return b, nil
}

// probeRows runs every filter that is awake over the rows of sel, returning
// the surviving rows (the result aliases op.selA/op.selB), or sel itself
// when no filter is awake.
func (op *RuntimeFilterOp) probeRows(b *vector.Batch, sel []int32) []int32 {
	shown := b.NumRows
	if sel != nil {
		shown = len(sel)
	}
	useA, probed := true, false
	for _, p := range op.probes {
		if p.sleep > 0 {
			continue
		}
		if probed && len(sel) == 0 {
			break
		}
		// Alternate output buffers: ProbeVec resets its out slice, so it
		// must never be handed the slice it is reading sel from.
		buf := op.selB
		if useA {
			buf = op.selA
		}
		res := p.f.ProbeVec(b.Vecs[p.col], sel, b.NumRows, &op.hs, buf)
		if useA {
			op.selA = res
		} else {
			op.selB = res
		}
		p.count(shown, len(res), 0)
		sel, shown, useA, probed = res, len(res), !useA, true
	}
	return sel
}

// adapt runs after each batch: filters shown rfSampleRows rows get a verdict —
// sleep or stay — and are put in order of pass rate.
func (op *RuntimeFilterOp) adapt() {
	for _, p := range op.probes {
		if p.sleep > 0 {
			p.sleep--
		}
	}
	judge(op.probes, func(p *rfProbe) float64 {
		pass := float64(p.out) / float64(p.in)
		if pass >= rfDropPass {
			p.sleep = rfNapBatches
		}
		return pass
	})
}

// RuntimeFilterBuildOp is the pipeline step on a join build stage's output
// that folds every batch flowing to the shuffle/broadcast writer into a
// runtime filter, which the driver publishes when the stage's tasks finish.
type RuntimeFilterBuildOp struct {
	stepBase
	keys   []int // child-schema ordinals of the join key columns
	filter *rf.Filter
	hs     rf.HashScratch
}

// NewRuntimeFilterBuild adds a step over child that folds its batches into
// filter over the given key columns.
func NewRuntimeFilterBuild(child Operator, keys []int, filter *rf.Filter) *PipelineOp {
	op := &RuntimeFilterBuildOp{keys: keys, filter: filter}
	op.schema = child.Schema()
	op.stats.Name = "RuntimeFilterBuild"
	return fuse(child, op)
}

// processBatch adds b's active rows to the filter and passes b on.
func (op *RuntimeFilterBuildOp) processBatch(b *vector.Batch) (*vector.Batch, error) {
	n := int64(b.NumActive())
	op.stats.RowsIn.Add(n)
	op.filter.Add(b, op.keys, b.Sel, b.NumRows, &op.hs)
	op.stats.RowsOut.Add(n)
	op.stats.BatchesOut.Add(1)
	return b, nil
}
