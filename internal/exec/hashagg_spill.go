package exec

import (
	"fmt"
	"io"
	"os"

	"photon/internal/expr"
	"photon/internal/fault"
	"photon/internal/ht"
	"photon/internal/kernels"
	"photon/internal/serde"
	"photon/internal/vector"
)

// spillParts is the hash fan-out of spilled state.
const spillParts = 16

// spill implements the memory consumer callback: serialize all current
// groups as partial-state batches, hash-partitioned across spillParts files,
// and reset the table (§5.3). Disabled while merging a spilled partition.
func (op *HashAggOp) spill(need int64) (int64, error) {
	if op.merging || op.tbl.Len() == 0 || op.tc.SpillDir == "" {
		return 0, nil
	}
	if op.spillFiles == nil {
		op.spillFiles = make([]*os.File, spillParts)
		op.spillWriters = make([]*serde.Writer, spillParts)
		for i := range op.spillFiles {
			f, err := op.tc.NewSpillFile(fmt.Sprintf("agg-p%d", i))
			if err != nil {
				return 0, err
			}
			op.spillFiles[i] = f
			op.spillWriters[i] = serde.NewWriter(f)
		}
	}
	batch := op.tc.Pool.Get(op.partSchema)
	defer op.tc.Pool.Put(batch)
	flush := func(part int) error {
		if batch.NumRows == 0 {
			return nil
		}
		err := op.spillWriters[part].WriteBatch(batch)
		batch.Reset()
		return err
	}
	// Group rows by partition, flushing per-partition batches. The table
	// retains each group's original key hash, so all spill epochs agree on
	// a key's partition.
	hashes := op.tbl.RowHashes()
	byPart := make([][]int32, spillParts)
	for _, row := range op.tbl.HeadRows() {
		p := int(kernels.Mix64(hashes[row]) % spillParts)
		byPart[p] = append(byPart[p], row)
	}
	for p, rows := range byPart {
		for _, row := range rows {
			op.appendGroup(batch, op.tbl, op.lists, row, true)
			if batch.NumRows == batch.Capacity() {
				if err := flush(p); err != nil {
					return 0, err
				}
			}
		}
		if err := flush(p); err != nil {
			return 0, err
		}
	}
	freedBytes := op.reserved
	op.tc.Mem.Release(op.consumer, op.reserved)
	op.reserved = 0
	op.tbl = op.newTable()
	op.lists = op.lists[:0]
	op.listPool.Reset()
	op.spilled = true
	op.stats.SpillCount.Add(1)
	op.stats.SpillBytes.Add(freedBytes)
	return freedBytes, nil
}

// mergePartition rebuilds a fresh table from one spill partition. The merge
// loop checks cancellation per batch (a giant spilled partition must not pin
// a cancelled query), probes the spill-read failpoint, and classifies
// transient OS read errors as retryable.
func (op *HashAggOp) mergePartition(f *os.File) error {
	op.merging = true
	defer func() { op.merging = false }()
	rd := serde.NewReader(f, op.partSchema)
	op.partTbl = op.newTable()
	op.partLists = op.partLists[:0]
	op.emitPos = 0
	buf := op.tc.Pool.Get(op.partSchema)
	defer op.tc.Pool.Put(buf)
	for {
		if err := op.tc.Cancelled(); err != nil {
			return err
		}
		if err := fault.Hit(op.tc.Ctx, fault.SpillRead); err != nil {
			return err
		}
		err := rd.ReadBatch(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fault.ClassifyIO(fault.SpillRead, err)
		}
		if err := op.mergeBatch(buf, op.partTbl, &op.partLists); err != nil {
			return err
		}
	}
}

// appendGroup appends one group to dst: its key columns, then its states in
// partial form (spill files, AggPartial output) or as final values.
func (op *HashAggOp) appendGroup(dst *vector.Batch, tbl *ht.Table, lists []listState, row int32, partial bool) {
	i := dst.NumRows
	for c := range op.keyTypes {
		tbl.ReadKey(row, c, dst.Vecs[c], i)
	}
	cols := dst.Vecs[len(op.keyTypes):]
	if partial {
		op.writePartialStates(cols, i, tbl, lists, row)
	} else {
		op.writeFinalStates(cols, i, tbl, lists, row)
	}
	dst.NumRows++
}

// writePartialStates fills row i of the partial-state columns from one
// group's states. It is the only writer of the partial format mergeBatch
// reads back, whether the bytes travel through a spill file or a shuffle.
func (op *HashAggOp) writePartialStates(cols []*vector.Vector, i int, tbl *ht.Table, lists []listState, row int32) {
	p := tbl.PayloadBytes(row)
	col := 0
	for _, info := range op.infos {
		st := p[info.off:]
		v := cols[col]
		col++
		switch {
		case info.spec.Distinct:
			// Sized for fixed-width keys (at most 8 bytes and a length
			// each); an empty set is an empty blob, not NULL.
			set := listOf(lists, st).distinct
			blob := make([]byte, 0, 12*len(set))
			for elem := range set {
				blob = appendLenPrefixed(blob, elem)
			}
			v.Set(i, blob)
		case info.spec.Kind == expr.AggCollectList:
			v.Set(i, append([]byte(nil), listOf(lists, st).blob...))
		case info.spec.Kind == expr.AggCount:
			v.Set(i, loadCount(st))
		case info.spec.Kind == expr.AggSum || info.spec.Kind == expr.AggAvg:
			cnt := loadCount(st[info.width-8:])
			if cnt == 0 {
				v.Set(i, nil)
			} else {
				loadSum(v, i, st, info.sumType)
			}
			cols[col].Set(i, cnt)
			col++
		default: // min/max
			if st[0] == 0 {
				v.Set(i, nil)
			} else {
				loadValue(v, i, st[1:], info.spec.Arg.Type(), tbl)
			}
		}
	}
}
