package exec

import (
	"bytes"

	"photon/internal/expr"
	"photon/internal/types"
	"photon/internal/vector"
)

// emitNext produces the next output batch: first the in-memory table, then
// each spilled partition merged one at a time.
func (op *HashAggOp) emitNext() (*vector.Batch, error) {
	for {
		// Phase 1: drain the live groups, phase 2: the current merged
		// partition's.
		for _, g := range []*groupState{&op.groupState, &op.part} {
			if g.tbl != nil {
				if op.emitPos < g.tbl.Len() {
					return op.emitFrom(g), nil
				}
				*g = groupState{} // drained
			}
		}
		// Phase 3: merge the next spilled partition.
		if op.emitPart >= len(op.spillRuns) {
			return nil, nil
		}
		run := op.spillRuns[op.emitPart]
		op.emitPart++
		if err := op.mergePartition(run); err != nil {
			return nil, err
		}
		run.remove()
	}
}

// emitFrom materializes up to one batch of groups from g, whose entries are
// its groups in insertion order (a FindOrInsert-only table has no others).
// The output batch holds at most the groups left; a larger one replaces it
// only when more remain.
func (op *HashAggOp) emitFrom(g *groupState) *vector.Batch {
	if want := min(op.tc.Pool.BatchSize(), g.tbl.Len()-op.emitPos); op.out == nil || op.out.Capacity() < want {
		op.out = vector.NewBatch(op.schema, want)
	}
	op.out.Reset()
	op.blobBuf = op.blobBuf[:0]
	limit := min(op.emitPos+op.out.Capacity(), g.tbl.Len())
	for ; op.emitPos < limit; op.emitPos++ {
		op.appendGroup(op.out, g, int32(op.emitPos), op.mode == AggPartial)
	}
	return op.out
}

// writeFinalStates fills row i of the result columns with one group's final
// aggregate values.
func (op *HashAggOp) writeFinalStates(cols []*vector.Vector, i int, g *groupState, row int32) {
	p := g.tbl.PayloadBytes(row)
	for k, info := range op.infos {
		st := p[info.off:]
		v := cols[k]
		switch {
		case info.spec.Kind == expr.AggCollectList:
			v.Set(i, renderList(listOf(g.lists, st).blob))
		case info.spec.Kind == expr.AggCount: // DISTINCT or not: the state is the count
			v.Nulls[i], v.I64[i] = 0, loadCount(st)
		case info.spec.Kind == expr.AggSum || info.spec.Kind == expr.AggAvg:
			cnt := loadCount(st[info.width-8:])
			switch {
			case cnt == 0:
				v.SetNull(i)
			case info.spec.Kind == expr.AggSum:
				loadSum(v, i, st, info.sumType)
			case info.sumType.ID == types.Decimal:
				// avg scale = result scale; sum has arg scale.
				argScale := info.spec.Arg.Type().Scale
				resScale := info.resType.Scale
				scaled := loadDec(st).Rescale(argScale, resScale+1) // extra digit for rounding
				q, _ := scaled.DivInt64(cnt)
				v.Nulls[i], v.Dec[i] = 0, q.Rescale(resScale+1, resScale)
			default:
				v.Nulls[i], v.F64[i] = 0, loadFloatSum(st)/float64(cnt)
			}
		default: // min/max
			if st[0] == 0 {
				v.SetNull(i)
			} else {
				g.tbl.GetValue(st[1:], v, i)
			}
		}
	}
}

// renderList formats a collect_list blob as "[a, b, c]".
func renderList(blob []byte) string {
	var b bytes.Buffer
	b.WriteByte('[')
	first := true
	iterLenPrefixed(blob, func(elem []byte) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.Write(elem)
	})
	b.WriteByte(']')
	return b.String()
}
