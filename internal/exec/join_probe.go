package exec

import (
	"photon/internal/kernels"
	"photon/internal/vector"
)

// Probe phase of the hash join. Every join type, either build side and every
// grace partition take one path: nextProbe coalesces sparse batches (§4.6),
// startProbe evaluates, hashes and finds the keys (§4.4), match writes the
// (probe row, table row) pairs and materialize turns them into a batch.

// Next implements Operator.
func (op *HashJoinOp) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := op.timed(func() error {
		if !op.built {
			if err := op.buildTable(); err != nil {
				return err
			}
			op.built = true
		}
		var err error
		out, err = op.probeNext()
		return err
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		// NumActive, not NumRows: a shared output carries the probe batch
		// with a position list, and counting its dead rows would make
		// RowsOut depend on batch boundaries — breaking the
		// cross-parallelism invariant the merged profiles rely on.
		op.stats.RowsOut.Add(int64(out.NumActive()))
		op.stats.BatchesOut.Add(1)
	}
	return out, nil
}

// probeNext produces the next output batch: the matches of the batch being
// probed, then, once the probe input ends, a build-left anti or outer join's
// unmatched table rows.
func (op *HashJoinOp) probeNext() (*vector.Batch, error) {
	for {
		// Batch-boundary cancellation check (join probe side).
		if err := op.tc.Cancelled(); err != nil {
			return nil, err
		}
		if b := op.probeBatch; b != nil || op.tailing {
			if op.match(b) {
				op.probeBatch, op.tailing = nil, false
			}
			if len(op.pairProbe) > 0 {
				return op.materialize(b), nil
			}
			continue
		}
		b, err := op.nextProbe()
		if err != nil {
			return nil, err
		}
		if b == nil {
			// A build-left anti or outer join's table has met its probe input.
			if op.keepsNullKeys() && !op.tailDone {
				op.tailing = true
				continue
			}
			return nil, nil
		}
		if err := op.startProbe(b); err != nil {
			return nil, err
		}
	}
}

// nextProbe returns the next batch to probe, nil where the probe input (or a
// grace partition's) ends. With compaction on (§4.6, Fig. 9), sparse batches
// gather-append into an accumulator that probes as one dense batch once it
// is three quarters full: the candidate loads run dense, and downstream
// operators see few full batches instead of many sparse ones. Any other
// batch, and the end, flush the accumulator first, so rows keep their order.
func (op *HashJoinOp) nextProbe() (*vector.Batch, error) {
	if op.flushed {
		// The accumulated rows were probed and their output consumed.
		op.acc.NumRows, op.flushed = 0, false
	}
	batchSize := op.tc.Pool.BatchSize()
	for {
		b := op.stash
		if !op.stashed {
			var err error
			if b, err = op.nextProbeBatch(); err != nil {
				return nil, err
			}
		}
		op.stash, op.stashed = nil, false
		held := 0
		if op.acc != nil {
			held = op.acc.NumRows
		}
		if b != nil && b.NumActive() == 0 {
			continue
		}
		if b == nil || !op.tc.EnableCompaction || b.Sparsity() <= op.tc.CompactionThreshold ||
			held > 0 && held+b.NumActive() > batchSize {
			if held == 0 {
				return b, nil
			}
			op.stash, op.stashed, op.flushed = b, true, true
			return op.acc, nil
		}
		if op.acc == nil || held+b.NumActive() > op.acc.Capacity() {
			grown := vector.NewBatch(op.probeIn.Schema(), grownRows(held+b.NumActive(), batchSize))
			if op.acc != nil {
				op.acc.GatherAppend(grown) // its strings stay in accStrings
			}
			op.acc = grown
		}
		// The accumulator outlives b, so it takes its own copy of b's
		// strings; a new accumulation reuses the previous one's bytes.
		if held == 0 {
			op.accStrings = op.accStrings[:0]
		}
		b.GatherAppend(op.acc)
		op.accStrings = op.acc.OwnStrings(held, op.accStrings)
		op.stats.Compactions.Add(1)
		if op.acc.NumRows >= batchSize*3/4 {
			op.flushed = true
			return op.acc, nil
		}
	}
}

// startProbe evaluates b's probe keys, hashes them and finds each active
// row's chain head in the table; a NULL key finds none.
func (op *HashJoinOp) startProbe(b *vector.Batch) error {
	n := b.NumRows
	op.ensureCap(n)
	if err := op.evalKeys(op.probeKeys, b); err != nil {
		return err
	}
	defer op.releaseKeys()
	op.nullSel = op.nullSel[:0]
	sel := op.nonNullKeySel(b, &op.nullSel)
	op.lanes = kernels.HashKeys(op.keyVecs, sel, n, op.hashes, op.lanes)
	if err := op.tbl.Find(op.keyVecs, op.hashes, sel, n, op.rowIDs); err != nil {
		return err
	}
	for _, i := range op.nullSel {
		op.rowIDs[i] = -1
	}
	if n := b.NumActive(); cap(op.pairProbe) < n {
		op.pairProbe, op.pairTable = make([]int32, 0, n), make([]int32, 0, n)
	}
	op.probeBatch, op.probePos, op.resumeAt = b, 0, -1
	return nil
}

// match writes (probe row, table row) pairs from where the last call
// stopped, until the probe batch b ends (true) or the pairs fill an output
// batch (false); with b nil it writes the table rows no probe row met (probe
// row -1). A table row of -1 pads a probe row with NULLs, and a semi or anti
// join built on the right keeps or drops a probe row whole. A join built on
// the left flags the table rows it meets; in its semi and anti joins the
// first right row that meets a chain claims it, and every later one skips it.
func (op *HashJoinOp) match(b *vector.Batch) bool {
	P, T := op.pairProbe[:0], op.pairTable[:0]
	done := true
	if b == nil {
		for ; op.tailRow < len(op.matched); op.tailRow++ {
			if op.matched[op.tailRow] {
				continue
			}
			if len(P) == op.tc.Pool.BatchSize() {
				done = false
				break
			}
			P, T = append(P, -1), append(T, int32(op.tailRow))
		}
		op.tailDone = done
		op.pairProbe, op.pairTable = P, T
		return done
	}
	jt := op.joinType
	semiAnti := jt == LeftSemiJoin || jt == LeftAntiJoin
	limit := max(b.NumRows, op.tc.Pool.BatchSize())
rows:
	for n := b.NumActive(); op.probePos < n; op.probePos++ {
		i := int32(b.RowIndex(op.probePos))
		r, resumed := op.rowIDs[i], op.resumeAt != -1
		if resumed {
			r, op.resumeAt = op.resumeAt, -1
		}
		switch {
		case semiAnti && !op.buildLeft:
			if (r != -1) == (jt == LeftSemiJoin) {
				P, T = append(P, i), append(T, -1)
			}
			continue
		case semiAnti && r != -1 && op.matched[r] && !resumed:
			continue // an earlier right row claimed the chain
		}
		for ; r != -1; r = op.tbl.Next(r) {
			if op.buildLeft {
				op.matched[r] = true
				if jt == LeftAntiJoin {
					continue
				}
			}
			if len(P) == limit {
				op.resumeAt, done = r, false
				break rows
			}
			P, T = append(P, i), append(T, r)
		}
		if jt == LeftOuterJoin && !op.buildLeft && op.rowIDs[i] == -1 {
			if len(P) == limit {
				done = false
				break
			}
			P, T = append(P, i), append(T, -1)
		}
	}
	op.pairProbe, op.pairTable = P, T
	return done
}

// materialize turns the pairs into an output batch, its columns placed by
// layout. Pairs that name each row of the probe batch b at most once share
// b's vectors: the probe rows become the position list, and the table's
// columns are gathered at the same positions. Otherwise both sides are
// gathered into the join's own batch. Either never outlives b, which stays
// valid until the next call, so neither copies a string.
func (op *HashJoinOp) materialize(b *vector.Batch) *vector.Batch {
	probeAt, np, tableAt, nt := op.layout()
	P := op.pairProbe
	if b != nil && np > 0 && distinctRows(P) {
		if nt > 0 && (op.tableVecs == nil || op.tableVecs[0].Capacity() < b.NumRows) {
			op.tableVecs = make([]*vector.Vector, nt)
			for c, t := range op.build.types {
				op.tableVecs[c] = vector.New(t, grownRows(b.NumRows, op.tc.Pool.BatchSize()))
			}
		}
		table := op.tableVecs[:nt]
		op.gatherTable(table, P)
		if op.shared == nil {
			op.shared = vector.WrapBatch(op.schema, nil, nil, 0)
		}
		out := op.shared
		if op.buildLeft {
			out.Vecs = append(append(out.Vecs[:0], table...), b.Vecs...)
		} else {
			out.Vecs = append(append(out.Vecs[:0], b.Vecs...), table...)
		}
		out.Sel, out.NumRows = P, b.NumRows
		out.SetCapacity(b.NumRows)
		return out
	}
	m := len(P)
	if op.out == nil || op.out.Capacity() < m {
		op.out = vector.NewBatch(op.schema, grownRows(m, op.tc.Pool.BatchSize()))
	}
	out := op.out
	out.Reset()
	probe := out.Vecs[probeAt : probeAt+np]
	if b == nil {
		for _, v := range probe {
			for k := range m {
				v.SetNull(k)
			}
		}
	} else {
		// A position list that repeats rows gathers them again.
		src := vector.Batch{Vecs: b.Vecs[:np], Sel: P, NumRows: b.NumRows}
		dst := vector.Batch{Vecs: probe}
		src.GatherRange(&dst, 0, m)
	}
	op.gatherTable(out.Vecs[tableAt:tableAt+nt], nil)
	out.NumRows = m
	return out
}

// layout places the sides in the output: np probe columns from probeAt and
// nt table columns from tableAt. The left input's columns come first; a
// semi or anti join outputs only them.
func (op *HashJoinOp) layout() (probeAt, np, tableAt, nt int) {
	np, nt = len(op.probeIn.Schema().Fields), len(op.build.types)
	if op.joinType == LeftSemiJoin || op.joinType == LeftAntiJoin {
		if op.buildLeft {
			np = 0
		} else {
			nt = 0
		}
	}
	if op.buildLeft {
		return nt, np, 0, nt
	}
	return 0, np, np, nt
}

// distinctRows reports whether the probe rows of the pairs, written in row
// order, name no row twice.
func distinctRows(P []int32) bool {
	for k := 1; k < len(P); k++ {
		if P[k] == P[k-1] {
			return false
		}
	}
	return true
}

// gatherTable decodes the pairs' table rows into vecs, the k-th at position
// at[k] (k when at is nil); a table row of -1 is NULL. The vectors' verdicts
// are reset, since consumers cache theirs on the vectors they read.
func (op *HashJoinOp) gatherTable(vecs []*vector.Vector, at []int32) {
	for c, v := range vecs {
		v.SetHasNulls(false) // SetNull and GetSlot raise it again
		v.Ascii, v.Dec64 = vector.AsciiUnknown, vector.Dec64Unknown
		off := op.build.offs[c]
		for k, r := range op.pairTable {
			o := k
			if at != nil {
				o = int(at[k])
			}
			if r == -1 {
				v.SetNull(o)
			} else {
				op.tbl.GetSlot(op.tbl.PayloadBytes(r)[off:], v, o)
			}
		}
	}
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
		return op.nextProbeInput()
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
	// The live batches count as input where read takes them.
	err = drain(op.tc, nil, op.nextProbeInput, func(b *vector.Batch) (bool, error) {
		if err := op.evalKeys(op.probeKeys, b); err != nil {
			return false, err
		}
		defer op.releaseKeys()
		// All active rows are written (NULL keys hash via the null seed to
		// a stable partition and are handled by the per-partition probe).
		return true, op.partitionOut(b, b.Sel, runs)
	})
	if err != nil {
		return err
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
	err := drain(op.tc, nil, op.buildRuns[p].next(buf), func(b *vector.Batch) (bool, error) {
		return true, op.insertBuildBatch(b, op.tbl)
	})
	if err != nil {
		return err
	}
	op.resetMatched()
	op.curProbe = op.probeRuns[p]
	return nil
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
