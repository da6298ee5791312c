package exec

import (
	"photon/internal/vector"
)

// Probe phase of the hash join.

// Next implements Operator.
func (op *HashJoinOp) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := op.timed(func() error {
		if !op.built {
			if err := op.buildTable(); err != nil {
				return err
			}
			op.built = true
			op.uniqueKeys = op.tbl.NumRows() == op.tbl.Len()
		}
		var err error
		out, err = op.probeNext()
		return err
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		// NumActive, not NumRows: filter-mode output passes the probe batch
		// through with a shrunk position list, and counting carried (dead)
		// rows would make RowsOut depend on batch boundaries — breaking the
		// cross-parallelism invariant the merged profiles rely on.
		op.stats.RowsOut.Add(int64(out.NumActive()))
		op.stats.BatchesOut.Add(1)
	}
	return out, nil
}

// filterMode reports whether this join emits filter-style output: the
// probe batch's vectors pass through and only the position list shrinks.
func (op *HashJoinOp) filterMode() bool {
	if op.buildLeft {
		return false
	}
	switch op.joinType {
	case LeftSemiJoin, LeftAntiJoin:
		return true
	case InnerJoin, LeftOuterJoin:
		// Grace mode rebuilds per-partition tables whose key uniqueness is
		// unknown up front; stay on the general chain-walking path there.
		return op.uniqueKeys && !op.graced
	}
	return false
}

// probeNext produces the next output batch.
func (op *HashJoinOp) probeNext() (*vector.Batch, error) {
	if op.filterMode() {
		return op.probeNextFilterMode()
	}
	if op.out == nil {
		op.out = vector.NewBatch(op.schema, op.tc.Pool.BatchSize())
	}
	op.out.Reset()
	op.outOwned, op.outStrings = 0, op.outStrings[:0]
	for {
		// Batch-boundary cancellation check (join probe side).
		if err := op.tc.Cancelled(); err != nil {
			return nil, err
		}
		// Emit pending matches from the current probe batch.
		if op.probeBatch != nil {
			if op.emitMatches() {
				return op.out, nil // output full; resume here next call
			}
			op.probeBatch = nil
			// out keeps filling from the next probe batch, which this one
			// does not outlive: the rows it contributed take their own copy
			// of the strings they share with it.
			op.outStrings = op.out.OwnStrings(op.outOwned, op.outStrings)
			op.outOwned = op.out.NumRows
		}
		if op.tailing {
			if op.emitUnmatchedBuild() {
				return op.out, nil
			}
			op.tailing = false
		}
		// Pull the next probe batch.
		b, err := op.nextProbeBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			// A build-left anti or outer join's table has met its probe input.
			if op.keepsNullKeys() && !op.tailDone {
				op.tailing = true
				continue
			}
			if op.out.NumRows > 0 {
				return op.out, nil
			}
			return nil, nil
		}
		if b.NumActive() == 0 {
			continue
		}
		if err := op.startProbe(b); err != nil {
			return nil, err
		}
	}
}

// probeNextFilterMode drives the filter-style probe with adaptive
// coalescing compaction (§4.6): sparse probe batches gather-append into an
// accumulator until it is reasonably full, then probe as one dense batch —
// downstream operators see few full batches instead of many sparse ones.
func (op *HashJoinOp) probeNextFilterMode() (*vector.Batch, error) {
	flushThreshold := op.tc.Pool.BatchSize() * 3 / 4
	for {
		// A dense batch deferred while the accumulator flushed goes first.
		b := op.fmStash
		op.fmStash = nil
		if b == nil {
			if op.fmEOF {
				return nil, nil
			}
			var err error
			b, err = op.nextProbeBatch()
			if err != nil {
				return nil, err
			}
		}
		if b == nil {
			op.fmEOF = true
			// Flush whatever accumulated.
			if op.fmAcc != nil && op.fmAcc.NumRows > 0 {
				out, err := op.flushAcc()
				if err != nil {
					return nil, err
				}
				if out != nil && out.NumActive() > 0 {
					return out, nil
				}
			}
			return nil, nil
		}
		if b.NumActive() == 0 {
			continue
		}
		if op.tc.EnableCompaction && b.Sparsity() > op.tc.CompactionThreshold {
			held := 0
			if op.fmAcc != nil {
				held = op.fmAcc.NumRows
			}
			if held > 0 && held+b.NumActive() > op.tc.Pool.BatchSize() {
				// No room: flush first, keep b for the next iteration.
				op.fmStash = b
				out, err := op.flushAcc()
				if err != nil {
					return nil, err
				}
				if out != nil && out.NumActive() > 0 {
					return out, nil
				}
				continue
			}
			if op.fmAcc == nil || held+b.NumActive() > op.fmAcc.Capacity() {
				grown := vector.NewBatch(op.left.Schema(), grownRows(held+b.NumActive(), op.tc.Pool.BatchSize()))
				if op.fmAcc != nil {
					op.fmAcc.GatherAppend(grown) // its strings stay in op.fmStrings
				}
				op.fmAcc = grown
			}
			// The accumulator outlives b, so it takes its own copy of b's
			// strings; a new accumulation reuses the previous one's bytes.
			if held == 0 {
				op.fmStrings = op.fmStrings[:0]
			}
			b.GatherAppend(op.fmAcc)
			op.fmStrings = op.fmAcc.OwnStrings(held, op.fmStrings)
			op.stats.Compactions.Add(1)
			if op.fmAcc.NumRows < flushThreshold {
				continue // keep accumulating sparse batches
			}
			out, err := op.flushAcc()
			if err != nil {
				return nil, err
			}
			if out != nil && out.NumActive() > 0 {
				return out, nil
			}
			continue
		}
		// Dense (or compaction off): flush any accumulation first so row
		// order stays deterministic per input, then probe b directly.
		if op.fmAcc != nil && op.fmAcc.NumRows > 0 {
			op.fmStash = b
			out, err := op.flushAcc()
			if err != nil {
				return nil, err
			}
			if out != nil && out.NumActive() > 0 {
				return out, nil
			}
			continue
		}
		out, err := op.probeFilterMode(b)
		if err != nil {
			return nil, err
		}
		if out != nil && out.NumActive() > 0 {
			return out, nil
		}
	}
}

// flushAcc probes the accumulated dense batch and resets it.
func (op *HashJoinOp) flushAcc() (*vector.Batch, error) {
	acc := op.fmAcc
	out, err := op.probeFilterMode(acc)
	if err != nil {
		return nil, err
	}
	// The output aliases acc's vectors, but the consumer finishes with it
	// before the next Next() call — by which time refilling is safe.
	acc.NumRows = 0
	acc.Sel = nil
	return out, nil
}

// probeFilterMode runs one batch through the filter-style probe.
func (op *HashJoinOp) probeFilterMode(b *vector.Batch) (*vector.Batch, error) {
	n := b.NumRows
	op.ensureCap(n)
	op.tc.Expr.ResetPerBatch()
	if err := op.evalKeys(op.leftKeys, b); err != nil {
		return nil, err
	}
	op.nullSel = op.nullSel[:0]
	sel := op.nonNullKeySel(b, &op.nullSel)
	hashKeyVectorsScratch(op.keyVecs, sel, n, op.hashes, &op.lanes)
	if err := op.tbl.Find(op.keyVecs, op.hashes, sel, n, op.rowIDs); err != nil {
		op.releaseKeys()
		return nil, err
	}
	op.releaseKeys()

	// Partition into matched / unmatched.
	op.fmSel = op.fmSel[:0]
	matched := op.fmSel
	appendMatched := func(i int32) {
		if op.rowIDs[i] != -1 {
			matched = append(matched, i)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			appendMatched(int32(i))
		}
	} else {
		for _, i := range sel {
			appendMatched(i)
		}
	}
	op.fmSel = matched

	switch op.joinType {
	case LeftSemiJoin:
		return op.fmWrap(b, matched, false), nil
	case LeftAntiJoin:
		// Unmatched probe rows plus NULL-key rows, in sorted order.
		unmatched := op.scratchSel(n)
		take := func(i int32) {
			if op.rowIDs[i] == -1 {
				unmatched = append(unmatched, i)
			}
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				take(int32(i))
			}
		} else {
			for _, i := range sel {
				take(i)
			}
		}
		merged := mergeSorted(unmatched, op.nullSel)
		return op.fmWrap(b, merged, false), nil
	case InnerJoin:
		op.fillBuildCols(b, matched)
		return op.fmWrap(b, matched, true), nil
	case LeftOuterJoin:
		// All active rows stay; unmatched (and NULL-key) rows take NULL
		// build columns.
		op.fillBuildCols(b, matched)
		for _, v := range op.fmBuild {
			markNull := func(i int32) {
				if op.rowIDs[i] == -1 {
					v.SetNull(int(i))
				}
			}
			if sel == nil {
				for i := 0; i < n; i++ {
					markNull(int32(i))
				}
			} else {
				for _, i := range sel {
					markNull(i)
				}
			}
			for _, i := range op.nullSel {
				v.SetNull(int(i))
			}
		}
		outSel := b.Sel
		return op.fmWrap(b, outSel, true), nil
	}
	return nil, nil
}

// scratchSel returns a reusable, non-nil position-list buffer.
func (op *HashJoinOp) scratchSel(n int) []int32 {
	if op.probeSel == nil || cap(op.probeSel) < n {
		op.probeSel = make([]int32, 0, max(n, 1))
	}
	return op.probeSel[:0]
}

// mergeSorted merges two sorted position lists.
func mergeSorted(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// fillBuildCols decodes build columns into op.fmBuild at the matched probe
// row positions.
func (op *HashJoinOp) fillBuildCols(b *vector.Batch, matched []int32) {
	if op.fmBuild == nil || op.fmBuild[0].Capacity() < b.NumRows {
		op.fmBuild = make([]*vector.Vector, len(op.build.types))
		for c, t := range op.build.types {
			op.fmBuild[c] = vector.New(t, grownRows(b.NumRows, op.tc.Pool.BatchSize()))
		}
	}
	for c, v := range op.fmBuild {
		v.SetHasNulls(false) // GetSlot writes each row's NULL byte and raises the flag again
		for _, i := range matched {
			pay := op.tbl.PayloadBytes(op.rowIDs[i])
			op.tbl.GetSlot(pay[op.build.offs[c]:], v, int(i))
		}
	}
}

// fmWrap builds the shared-vector output batch.
func (op *HashJoinOp) fmWrap(b *vector.Batch, sel []int32, withBuild bool) *vector.Batch {
	if op.fmOut == nil {
		op.fmOut = vector.WrapBatch(op.schema, nil, nil, 0)
		op.fmOut.SetCapacity(op.tc.Pool.BatchSize())
	}
	op.fmOut.Vecs = op.fmOut.Vecs[:0]
	op.fmOut.Vecs = append(op.fmOut.Vecs, b.Vecs...)
	if withBuild {
		op.fmOut.Vecs = append(op.fmOut.Vecs, op.fmBuild...)
	}
	op.fmOut.Sel = sel
	op.fmOut.NumRows = b.NumRows
	return op.fmOut
}

// nextProbeBatch pulls from the probe input, or — in grace mode — first
// partitions the entire probe input, then streams partition probe files
// (joined against per-partition tables, each ending in nil when keepsNullKeys).
func (op *HashJoinOp) nextProbeBatch() (*vector.Batch, error) {
	in := op.probeIn
	if !op.graced {
		if op.buildLeft && (op.tailDone || op.tbl.NumRows() == 0) {
			return nil, nil // no left rows, so no output: the right input goes unread
		}
		return op.nextInput(in)
	}
	// Grace mode: ensure the probe side is fully partitioned.
	if op.probeRuns == nil {
		if err := op.partitionProbeSide(); err != nil {
			return nil, err
		}
	}
	for {
		if op.curProbe != nil {
			if op.partProbeB == nil {
				op.partProbeB = vector.NewBatch(in.Schema(), op.tc.Pool.BatchSize())
			}
			ok, err := op.curProbe.read(op.partProbeB)
			if err != nil {
				return nil, err
			}
			if ok {
				return op.partProbeB, nil
			}
			op.curProbe = nil
			if op.keepsNullKeys() {
				return nil, nil
			}
		}
		// Advance to the next partition: load its build table.
		if op.curPart >= spillParts {
			return nil, nil
		}
		p := op.curPart
		op.curPart++
		if err := op.loadPartition(p); err != nil {
			return nil, err
		}
	}
}

// partitionProbeSide routes every probe batch to a probe partition run.
func (op *HashJoinOp) partitionProbeSide() error {
	runs, err := newSpillParts(op.tc, "join-probe")
	if err != nil {
		return err
	}
	op.probeRuns = runs
	for {
		b, err := op.nextInput(op.probeIn)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		op.tc.Expr.ResetPerBatch()
		if err := op.evalKeys(op.probeKeys, b); err != nil {
			return err
		}
		// All active rows are written (NULL keys hash via the null seed to
		// a stable partition and are handled by the per-partition probe).
		err = op.partitionOut(b, b.Sel, runs)
		op.releaseKeys()
		if err != nil {
			return err
		}
	}
	return runs.finish()
}

// loadPartition builds the in-memory table for grace partition p and makes
// its probe run the one nextProbeBatch reads.
func (op *HashJoinOp) loadPartition(p int) error {
	op.merging = true
	defer func() { op.merging = false }()
	op.newTable()
	buf := vector.NewBatch(op.buildIn.Schema(), op.tc.Pool.BatchSize())
	for {
		// Per-batch cancellation while rebuilding a grace partition's table
		// from spill.
		if err := op.tc.Cancelled(); err != nil {
			return err
		}
		ok, err := op.buildRuns[p].read(buf)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := op.insertBuildBatch(buf, op.tbl); err != nil {
			return err
		}
	}
	op.resetMatched()
	op.curProbe = op.probeRuns[p]
	return nil
}

// startProbe prepares per-batch probe state: adaptive compaction, key
// evaluation, hashing, and the vectorized Find.
func (op *HashJoinOp) startProbe(b *vector.Batch) error {
	// Adaptive batch compaction (§4.6, Fig. 9): sparse batches gather into
	// a private dense batch before probing so the candidate loads saturate
	// memory bandwidth and downstream gathers run dense.
	if op.tc.EnableCompaction && b.Sparsity() > op.tc.CompactionThreshold {
		if op.compacted == nil {
			op.compacted = vector.NewBatch(op.probeIn.Schema(), op.tc.Pool.BatchSize())
		}
		b.GatherInto(op.compacted)
		b = op.compacted
		op.stats.Compactions.Add(1)
	}
	op.probeBatch = b
	n := b.NumRows
	op.ensureCap(n)
	op.tc.Expr.ResetPerBatch()
	if err := op.evalKeys(op.probeKeys, b); err != nil {
		return err
	}
	op.nullSel = op.nullSel[:0]
	sel := op.nonNullKeySel(b, &op.nullSel)
	hashKeyVectorsScratch(op.keyVecs, sel, n, op.hashes, &op.lanes)
	if err := op.tbl.Find(op.keyVecs, op.hashes, sel, n, op.rowIDs); err != nil {
		op.releaseKeys()
		return err
	}
	op.releaseKeys()

	// Initialize chain walk state.
	op.probeSel = op.probeSel[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			op.probeSel = append(op.probeSel, int32(i))
		}
	} else {
		op.probeSel = append(op.probeSel, sel...)
	}
	for _, i := range op.probeSel {
		op.chain[i] = op.rowIDs[i]
		op.matchedAny[i] = false
	}
	if op.buildLeft && (op.joinType == LeftSemiJoin || op.joinType == LeftAntiJoin) {
		op.claimChains()
	}
	op.probePos = 0
	op.nullPos = 0
	return nil
}

// claimChains lets the first right row that meets a chain of left rows flag
// it matched; every later one skips the chain. A semi join's claiming row
// walks the chain again to emit it; an anti join emits nothing while probing.
func (op *HashJoinOp) claimChains() {
	for _, i := range op.probeSel {
		if h := op.chain[i]; h != -1 && !op.matched[h] {
			for r := h; r != -1; r = op.tbl.Next(r) {
				op.matched[r] = true
			}
			if op.joinType == LeftSemiJoin {
				continue
			}
		}
		op.chain[i] = -1
	}
}

// emitMatches continues emitting the current probe batch's matches (a
// left-probing semi or anti join runs in filter mode), a build-left join's
// left columns first. Returns true when the output batch filled up.
func (op *HashJoinOp) emitMatches() bool {
	b := op.probeBatch
	out := op.out
	probeAt, buildAt := 0, len(b.Vecs)
	if op.buildLeft {
		probeAt, buildAt = len(op.build.types), 0
	}
	markRows := op.buildLeft && op.joinType == LeftOuterJoin
	for op.probePos < len(op.probeSel) {
		i := op.probeSel[op.probePos]
		for op.chain[i] != -1 {
			if out.NumRows == out.Capacity() {
				return true
			}
			row := op.chain[i]
			op.chain[i] = op.tbl.Next(row)
			op.matchedAny[i] = true
			if markRows {
				op.matched[row] = true
			}
			o := out.NumRows
			if op.joinType != LeftSemiJoin {
				for c, v := range b.Vecs {
					out.Vecs[probeAt+c].CopyRow(o, v, int(i))
				}
			}
			op.getBuildRow(row, buildAt, o)
			out.NumRows++
		}
		if !op.buildLeft && op.joinType == LeftOuterJoin && !op.matchedAny[i] {
			if out.NumRows == out.Capacity() {
				return true
			}
			op.emitUnmatched(i)
			op.matchedAny[i] = true
		}
		op.probePos++
	}
	// NULL-key probe rows never match; an outer join pads them with NULLs.
	for !op.buildLeft && op.joinType == LeftOuterJoin && op.nullPos < len(op.nullSel) {
		if out.NumRows == out.Capacity() {
			return true
		}
		op.emitUnmatched(op.nullSel[op.nullPos])
		op.nullPos++
	}
	return false
}

// emitUnmatched appends probe row i to the output with NULL build columns.
func (op *HashJoinOp) emitUnmatched(i int32) {
	out := op.out
	o := out.NumRows
	for c, v := range op.probeBatch.Vecs {
		out.Vecs[c].CopyRow(o, v, int(i))
	}
	for c := range op.build.types {
		out.Vecs[len(op.probeBatch.Vecs)+c].SetNull(o)
	}
	out.NumRows++
}

// getBuildRow decodes table row into output row o from output column at.
func (op *HashJoinOp) getBuildRow(row int32, at, o int) {
	pay := op.tbl.PayloadBytes(row)
	for c, off := range op.build.offs {
		op.tbl.GetSlot(pay[off:], op.out.Vecs[at+c], o)
	}
}

// emitUnmatchedBuild appends the table rows no right row met, NULL keys
// among them, once a build-left anti or outer join's probe input has ended;
// the outer join pads them with NULLs. Returns true when out filled up.
func (op *HashJoinOp) emitUnmatchedBuild() bool {
	out := op.out
	for ; op.tailRow < len(op.matched); op.tailRow++ {
		if op.matched[op.tailRow] {
			continue
		}
		if out.NumRows == out.Capacity() {
			return true
		}
		o := out.NumRows
		op.getBuildRow(int32(op.tailRow), 0, o)
		for _, v := range out.Vecs[len(op.build.offs):] {
			v.SetNull(o)
		}
		out.NumRows++
	}
	op.tailDone = true
	return false
}

// Close implements Operator.
func (op *HashJoinOp) Close() error {
	op.tc.Mem.ReleaseAll(op.consumer)
	op.tc.Mem.ReleaseAll(op.heldMem)
	op.heldRun.remove()
	op.buildRuns.remove()
	op.probeRuns.remove()
	op.buildRuns, op.probeRuns = nil, nil
	if err := op.left.Close(); err != nil {
		op.right.Close()
		return err
	}
	return op.right.Close()
}
