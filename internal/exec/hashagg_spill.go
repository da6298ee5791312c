package exec

import (
	"photon/internal/expr"
	"photon/internal/types"
	"photon/internal/vector"
)

// spill implements the memory consumer callback: serialize all current
// groups as partial-state batches, hash-partitioned across spillParts runs,
// and reset the table (§5.3). Disabled while merging a spilled partition.
// The table retains each group's original key hash, so all spill epochs
// agree on a key's partition.
func (op *HashAggOp) spill(need int64) (int64, error) {
	if op.merging || op.tbl == nil || op.tbl.Len() == 0 || !op.tc.CanSpill() {
		return 0, nil
	}
	if op.spillRuns == nil {
		runs, err := newSpillParts(op.tc, "agg")
		if err != nil {
			return 0, err
		}
		op.spillRuns = runs
	}
	batch := op.tc.Pool.Get(op.partSchema)
	defer op.tc.Pool.Put(batch)
	err := op.spillRuns.spillTable(op.tbl, batch, func(b *vector.Batch, row int32) {
		if b.NumRows == 0 { // a new batch: the last one's blobs are written
			op.blobBuf = op.blobBuf[:0]
		}
		op.appendGroup(b, &op.groupState, row, true)
	})
	if err != nil {
		return 0, err
	}
	freedBytes := op.reserved
	op.tc.Mem.Release(op.consumer, op.reserved)
	op.reserved = 0
	op.resetGroups(&op.groupState)
	op.listPool.Reset()
	op.stats.SpillCount.Add(1)
	op.stats.SpillBytes.Add(freedBytes)
	return freedBytes, nil
}

// mergePartition rebuilds a fresh table from one spill partition.
func (op *HashAggOp) mergePartition(run *spillRun) error {
	op.merging = true
	defer func() { op.merging = false }()
	op.resetGroups(&op.part)
	op.emitPos = 0
	buf := op.tc.Pool.Get(op.partSchema)
	defer op.tc.Pool.Put(buf)
	return drain(op.tc, nil, run.next(buf), func(b *vector.Batch) (bool, error) {
		return true, op.mergeBatch(b, &op.part)
	})
}

// appendGroup appends one group to dst: its key columns, then its states in
// partial form (spill files, AggPartial output) or as final values.
func (op *HashAggOp) appendGroup(dst *vector.Batch, g *groupState, row int32, partial bool) {
	i := dst.NumRows
	for c := range op.keyTypes {
		g.tbl.ReadKey(row, c, dst.Vecs[c], i)
	}
	cols := dst.Vecs[len(op.keyTypes):]
	if partial {
		op.writePartialStates(cols, i, g, row)
	} else {
		op.writeFinalStates(cols, i, g, row)
	}
	dst.NumRows++
}

// writePartialStates fills row i of the partial-state columns from one
// group's states. It and writePassStates are the only writers of the partial
// format mergeBatch reads back, whether the bytes travel through a spill
// file or a shuffle. Blobs alias operator memory (op.blobBuf, the list
// states) that holds until the batch they are written to has been consumed.
func (op *HashAggOp) writePartialStates(cols []*vector.Vector, i int, g *groupState, row int32) {
	p := g.tbl.PayloadBytes(row)
	col := 0
	for _, info := range op.infos {
		st := p[info.off:]
		v := cols[col]
		col++
		switch {
		case info.spec.Distinct:
			// An empty set is an empty blob, not NULL.
			op.indexDistinct(g)
			at := len(op.blobBuf)
			op.blobBuf = g.sets[info.dist].appendBlob(op.blobBuf, row)
			v.Nulls[i], v.Str[i] = 0, op.blobBuf[at:len(op.blobBuf):len(op.blobBuf)]
		case info.spec.Kind == expr.AggCollectList:
			v.Nulls[i], v.Str[i] = 0, listOf(g.lists, st).blob
		case info.spec.Kind == expr.AggCount:
			v.Nulls[i], v.I64[i] = 0, loadCount(st)
		case info.spec.Kind == expr.AggSum || info.spec.Kind == expr.AggAvg:
			cnt := loadCount(st[info.width-8:])
			if cnt == 0 {
				v.SetNull(i)
			} else {
				loadSum(v, i, st, info.sumType)
			}
			cols[col].Nulls[i], cols[col].I64[i] = 0, cnt
			col++
		default: // min/max
			if st[0] == 0 {
				v.SetNull(i)
			} else {
				g.tbl.GetValue(st[1:], v, i)
			}
		}
	}
}

// writePassStates fills the pass-through batch with one partial-state row
// per row of b: the state of a group that holds only that row. Key columns
// and min/max values are the evaluated input itself, valid until the
// child's next Next; counts, sums and one-element blobs are written here.
func (op *HashAggOp) writePassStates(b *vector.Batch) (*vector.Batch, error) {
	if op.pass.Capacity() < b.NumRows {
		op.pass = vector.NewBatch(op.schema, b.NumRows)
	}
	out := op.pass
	op.blobBuf = op.blobBuf[:0]
	for c, k := range op.keyExprs {
		v, err := op.evalHeld(k, b)
		if err != nil {
			return nil, err
		}
		out.Vecs[c] = v
	}
	col := len(op.keyExprs)
	for _, info := range op.infos {
		var av *vector.Vector
		var nulls []byte // the argument's NULL bytes; nil when it has none
		if info.spec.Arg != nil {
			var err error
			if av, err = op.evalHeld(info.spec.Arg, b); err != nil {
				return nil, err
			}
			if av.HasNulls() {
				nulls = av.Nulls
			}
		}
		v := out.Vecs[col]
		col++
		switch {
		case info.spec.Distinct, info.spec.Kind == expr.AggCollectList:
			// A NULL argument is an empty blob, not NULL.
			var buf [16]byte
			apply(b.Sel, b.NumRows, func(i int32) {
				at := len(op.blobBuf)
				switch {
				case nulls != nil && nulls[i] != 0:
				case info.spec.Distinct:
					op.blobBuf = appendLenPrefixed(op.blobBuf, distinctElem(av, int(i), &buf))
				default:
					op.blobBuf = appendLenPrefixed(op.blobBuf, listElem(av, int(i)))
				}
				v.Nulls[i], v.Str[i] = 0, op.blobBuf[at:len(op.blobBuf):len(op.blobBuf)]
			})
		case info.spec.Kind == expr.AggCount:
			apply(b.Sel, b.NumRows, func(i int32) {
				v.I64[i] = 1
				if nulls != nil && nulls[i] != 0 {
					v.I64[i] = 0
				}
			})
		case info.spec.Kind == expr.AggSum || info.spec.Kind == expr.AggAvg:
			cnt := out.Vecs[col]
			col++
			apply(b.Sel, b.NumRows, func(i int32) {
				v.Nulls[i], cnt.I64[i] = 0, 1
				switch {
				case nulls != nil && nulls[i] != 0:
					v.Nulls[i], cnt.I64[i] = 1, 0
				case info.sumType.ID == types.Decimal:
					v.Dec[i] = av.Dec[i]
				case info.sumType.ID == types.Float64:
					v.F64[i] = floatArg(av, i)
				default:
					v.I64[i] = intArg(av, i)
				}
			})
			v.SetHasNulls(nulls != nil)
		default: // min/max
			out.Vecs[col-1] = av
		}
	}
	out.Sel, out.NumRows = b.Sel, b.NumRows
	return out, nil
}
