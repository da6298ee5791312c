package exec

import (
	"bytes"
	"io"
	"os"

	"photon/internal/expr"
	"photon/internal/ht"
	"photon/internal/types"
	"photon/internal/vector"
)

// emitNext produces the next output batch: first the in-memory table, then
// each spilled partition merged one at a time.
func (op *HashAggOp) emitNext() (*vector.Batch, error) {
	for {
		// Phase 1: drain the live table.
		if op.tbl != nil {
			if op.emitPos < op.tbl.Len() {
				return op.emitFrom(op.tbl, op.lists), nil
			}
			op.tbl = nil // live table drained
		}
		// Phase 2: drain the current merged partition table.
		if op.partTbl != nil {
			if op.emitPos < op.partTbl.Len() {
				return op.emitFrom(op.partTbl, op.partLists), nil
			}
			op.partTbl = nil
		}
		// Phase 3: merge the next spilled partition.
		if op.emitPart >= len(op.spillFiles) {
			return nil, nil
		}
		f := op.spillFiles[op.emitPart]
		op.emitPart++
		if f == nil {
			continue
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		if err := op.mergePartition(f); err != nil {
			return nil, err
		}
		f.Close()
		os.Remove(f.Name())
	}
}

// emitFrom materializes up to one batch of groups from tbl.
func (op *HashAggOp) emitFrom(tbl *ht.Table, lists []listState) *vector.Batch {
	if op.out == nil {
		op.out = vector.NewBatch(op.schema, op.tc.Pool.BatchSize())
	}
	op.out.Reset()
	heads := tbl.HeadRows()
	limit := min(op.emitPos+op.out.Capacity(), len(heads))
	for ; op.emitPos < limit; op.emitPos++ {
		op.appendGroup(op.out, tbl, lists, heads[op.emitPos], op.mode == AggPartial)
	}
	return op.out
}

// writeFinalStates fills row i of the result columns with one group's final
// aggregate values.
func (op *HashAggOp) writeFinalStates(cols []*vector.Vector, i int, tbl *ht.Table, lists []listState, row int32) {
	p := tbl.PayloadBytes(row)
	for k, info := range op.infos {
		st := p[info.off:]
		v := cols[k]
		switch {
		case info.spec.Distinct:
			v.Set(i, int64(len(listOf(lists, st).distinct)))
		case info.spec.Kind == expr.AggCollectList:
			v.Set(i, renderList(listOf(lists, st).blob))
		case info.spec.Kind == expr.AggCount:
			v.Set(i, loadCount(st))
		case info.spec.Kind == expr.AggSum || info.spec.Kind == expr.AggAvg:
			cnt := loadCount(st[info.width-8:])
			switch {
			case cnt == 0:
				v.Set(i, nil)
			case info.spec.Kind == expr.AggSum:
				loadSum(v, i, st, info.sumType)
			case info.sumType.ID == types.Decimal:
				// avg scale = result scale; sum has arg scale.
				argScale := info.spec.Arg.Type().Scale
				resScale := info.resType.Scale
				scaled := loadDec(st).Rescale(argScale, resScale+1) // extra digit for rounding
				q, _ := scaled.DivInt64(cnt)
				v.Set(i, q.Rescale(resScale+1, resScale))
			default:
				v.Set(i, loadFloatSum(st)/float64(cnt))
			}
		default: // min/max
			if st[0] == 0 {
				v.Set(i, nil)
			} else {
				loadValue(v, i, st[1:], info.spec.Arg.Type(), tbl)
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
