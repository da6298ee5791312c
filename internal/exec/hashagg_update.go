package exec

import (
	"encoding/binary"

	"photon/internal/expr"
	"photon/internal/ht"
	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// findGroups hashes the key vectors, resolves every active row's group row
// in g into op.rowIDs through the vectorized hash table, and initializes
// the states of the groups this batch created. With no keys, every row maps
// to the single global group row 0 (created on demand).
func (op *HashAggOp) findGroups(keys []*vector.Vector, b *vector.Batch, g *groupState) error {
	n := b.NumRows
	op.ensureScratch(n)
	if len(keys) == 0 {
		if g.tbl.NumRows() == 0 {
			if err := op.newGlobalGroup(g); err != nil {
				return err
			}
		}
		apply(b.Sel, n, func(i int32) { op.rowIDs[i] = 0 })
		return nil
	}
	op.lanes = kernels.HashKeys(keys, b.Sel, n, op.hashes, op.lanes)
	if err := g.tbl.FindOrInsert(keys, op.hashes, b.Sel, n, op.rowIDs, op.inserted); err != nil {
		return err
	}
	apply(b.Sel, n, func(i int32) {
		if op.inserted[i] {
			op.initState(g, op.rowIDs[i])
		}
	})
	return nil
}

// newGlobalGroup creates the single group row of a keyless aggregation.
func (op *HashAggOp) newGlobalGroup(g *groupState) error {
	ids := []int32{0}
	ins := []bool{false}
	if err := g.tbl.FindOrInsert(nil, []uint64{0}, nil, 1, ids, ins); err != nil {
		return err
	}
	op.initState(g, 0)
	return nil
}

// apply runs body over active rows (local copy of the expr helper). It is
// small enough to inline, and a closure literal passed to it inlines into
// both loops, so one body written at the call site compiles to a dense and a
// selective loop the way the base kernels are written out by hand.
func apply(sel []int32, n int, body func(i int32)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
		return
	}
	for _, i := range sel {
		body(i)
	}
}

// evalChildExpr mirrors expr's internal child-eval helper for operators.
func evalChildExpr(ctx *expr.Ctx, e expr.Expr, b *vector.Batch) (*vector.Vector, bool, error) {
	v, err := e.Eval(ctx, b)
	if err != nil {
		return nil, false, err
	}
	_, isCol := e.(*expr.ColRef)
	return v, !isCol, nil
}

// updateBatch processes one raw input batch (Complete/Partial modes).
func (op *HashAggOp) updateBatch(b *vector.Batch) error {
	for c, k := range op.keyExprs {
		v, owned, err := evalChildExpr(op.tc.Expr, k, b)
		if err != nil {
			return err
		}
		op.keyVecs[c], op.keyOwned[c] = v, owned
	}
	// Pooled key vectors go back after the update pass.
	defer func() {
		for c, v := range op.keyVecs {
			if op.keyOwned[c] {
				op.tc.Expr.Put(v)
				op.keyVecs[c] = nil
			}
		}
	}()
	if err := op.findGroups(op.keyVecs, b, &op.groupState); err != nil {
		return err
	}
	// Every decimal sum/avg folds in one fused pass; the other aggregates
	// run one vectorized loop each.
	if err := op.updateDecimalSums(b); err != nil {
		return err
	}
	for _, info := range op.infos {
		if info.decSum {
			continue
		}
		if err := op.updateAgg(b, info); err != nil {
			return err
		}
	}
	return nil
}

// updateAgg evaluates one aggregate's argument over the batch and folds it
// into the live table.
func (op *HashAggOp) updateAgg(b *vector.Batch, info aggInfo) error {
	var av *vector.Vector
	if info.spec.Arg != nil {
		v, owned, err := evalChildExpr(op.tc.Expr, info.spec.Arg, b)
		if err != nil {
			return err
		}
		if owned {
			defer op.tc.Expr.Put(v)
		}
		av = v
	}
	switch {
	case info.spec.Distinct:
		sel := b.Sel
		if av.HasNulls() {
			op.setSel = kernels.SelIsNotNull(av.Nulls, true, b.Sel, b.NumRows, op.setSel[:0])
			sel = op.setSel
		}
		return op.foldDistinct(info, &op.groupState, op.gids, av, sel, b.NumRows)
	case info.spec.Kind == expr.AggCollectList:
		s := op.slotsOf(info, av, op.tbl)
		apply(b.Sel, b.NumRows, func(i int32) {
			if st := s.at(i); st != nil {
				ls := listOf(op.lists, st)
				// Element bytes go to the shared arena (allocation
				// coalescing across groups, Fig. 5).
				ls.blob = appendLenPrefixed(ls.blob, op.listPool.Copy(listElem(av, int(i))))
				ls.count++
			}
		})
	default:
		op.foldAgg(b, info, av, nil, op.tbl)
	}
	return nil
}

// foldDistinct resolves n (group id, value) pairs through the aggregate's set
// table and counts, in each group's state, the pairs that were new. Raw
// input (the batch's group ids beside the argument) and merged blobs
// (expanded back into pairs) both come here; sel must skip NULL values.
func (op *HashAggOp) foldDistinct(info aggInfo, g *groupState, gids, vals *vector.Vector, sel []int32, n int) error {
	// The group lookup is done with op.hashes and op.inserted; only its ids
	// (the gids column, when the input is raw) are still needed.
	keys := []*vector.Vector{gids, vals}
	op.lanes = kernels.HashKeys(keys, sel, n, op.hashes, op.lanes)
	if err := g.sets[info.dist].tbl.FindOrInsert(keys, op.hashes, sel, n, op.setIDs, op.inserted); err != nil {
		return err
	}
	apply(sel, n, func(i int32) {
		if op.inserted[i] {
			addCount(g.tbl.PayloadBytes(gids.I32[i])[info.off:], 1)
		}
	})
	return nil
}

// mergeDistinct folds a column of partial blobs into the set table: every
// u32-length-prefixed element becomes a (group id, value) pair again, a
// scratch vector's worth at a time.
func (op *HashAggOp) mergeDistinct(info aggInfo, g *groupState, blobs *vector.Vector, b *vector.Batch) error {
	size := op.tc.Pool.BatchSize()
	if op.mergeGids == nil {
		op.mergeGids = vector.New(types.Int32Type, size)
		op.mergeVals = make([]*vector.Vector, op.numDistinct)
	}
	if op.mergeVals[info.dist] == nil {
		op.mergeVals[info.dist] = vector.New(info.spec.Arg.Type(), size)
	}
	gids, vals := op.mergeGids, op.mergeVals[info.dist]
	k := 0
	for j, n := 0, b.NumActive(); j < n; j++ {
		i := b.RowIndex(j)
		if blobs.Nulls[i] != 0 {
			continue
		}
		for blob := blobs.Str[i]; len(blob) >= 4; {
			l := 4 + binary.LittleEndian.Uint32(blob)
			elem := blob[4:l]
			blob = blob[l:]
			gids.I32[k] = op.rowIDs[i]
			if vals.Type.ID == types.String {
				vals.Str[k] = elem
			} else {
				g.tbl.GetValue(elem, vals, k)
			}
			if k++; k == size {
				if err := op.foldDistinct(info, g, gids, vals, nil, k); err != nil {
					return err
				}
				k = 0
			}
		}
	}
	return op.foldDistinct(info, g, gids, vals, nil, k)
}

// mergeBatch folds a batch of partial states (AggFinal input, or spilled
// partition rows) into g. Apart from the blob-shaped states, a merge is the
// raw update fed the partial columns: the value column in place of the
// evaluated argument, the *_cnt column in place of "one per row".
func (op *HashAggOp) mergeBatch(b *vector.Batch, g *groupState) error {
	// Key columns are the first len(keyTypes) columns of the partial schema.
	col := len(op.keyTypes)
	if op.numDistinct > 0 {
		// mergeDistinct folds a batch's worth of elements at a time through
		// this scratch; grown now, it cannot drop the group ids findGroups
		// leaves in op.rowIDs.
		op.ensureScratch(op.tc.Pool.BatchSize())
	}
	if err := op.findGroups(b.Vecs[:col], b, g); err != nil {
		return err
	}
	tbl := g.tbl
	for _, info := range op.infos {
		v := b.Vecs[col]
		col++
		switch {
		case info.spec.Distinct:
			if err := op.mergeDistinct(info, g, v, b); err != nil {
				return err
			}
		case info.spec.Kind == expr.AggCollectList:
			s := op.slotsOf(info, v, tbl)
			apply(b.Sel, b.NumRows, func(i int32) {
				if st := s.at(i); st != nil {
					ls := listOf(g.lists, st)
					ls.blob = append(ls.blob, v.Str[i]...)
					iterLenPrefixed(v.Str[i], func([]byte) { ls.count++ })
				}
			})
		case info.spec.Kind == expr.AggCount:
			op.foldAgg(b, info, nil, v.I64, tbl)
		case info.spec.Kind == expr.AggSum || info.spec.Kind == expr.AggAvg:
			op.foldAgg(b, info, v, b.Vecs[col].I64, tbl)
			col++
		default: // min/max
			op.foldAgg(b, info, v, nil, tbl)
		}
	}
	return nil
}

// slots locates, for one aggregate over one resolved batch, the state slot
// each input row folds into.
type slots struct {
	nulls       []byte // the value column's NULL bytes; nil when it has none
	rowIDs      []int32
	pages       [][]byte
	off, stride int
}

// slotsOf addresses info's states in tbl for the rows in op.rowIDs. The page
// list is a snapshot taken after the batch's inserts, which findGroups has
// already done.
func (op *HashAggOp) slotsOf(info aggInfo, val *vector.Vector, tbl *ht.Table) slots {
	pages, keyOff, stride := tbl.PayloadPages()
	s := slots{rowIDs: op.rowIDs, pages: pages, off: keyOff + info.off, stride: stride}
	if val != nil && val.HasNulls() {
		s.nulls = val.Nulls
	}
	return s
}

// at returns the slot row i folds into, or nil when the row's value is NULL
// (NULLs contribute nothing to any aggregate).
func (s *slots) at(i int32) []byte {
	if s.nulls != nil && s.nulls[i] != 0 {
		return nil
	}
	r := s.rowIDs[i]
	return s.pages[r>>ht.PageShift][int(r&ht.PageMask)*s.stride+s.off:]
}

// rowsAt is how many input rows row i stands for: one for raw input
// (cnt == nil), the partial *_cnt value when merging.
func rowsAt(cnt []int64, i int32) int64 {
	if cnt == nil {
		return 1
	}
	return cnt[i]
}

// foldAgg folds one count/sum/avg/min/max aggregate over the batch into the
// states of tbl. val is the raw argument or, when merging, the partial value
// column; cnt is the per-row count source (see rowsAt).
func (op *HashAggOp) foldAgg(b *vector.Batch, info aggInfo, val *vector.Vector, cnt []int64, tbl *ht.Table) {
	s := op.slotsOf(info, val, tbl)
	switch info.spec.Kind {
	case expr.AggCount:
		apply(b.Sel, b.NumRows, func(i int32) {
			if st := s.at(i); st != nil {
				addCount(st, rowsAt(cnt, i))
			}
		})
	case expr.AggSum, expr.AggAvg:
		switch info.sumType.ID {
		case types.Decimal:
			// Raw decimal arguments never get here (updateDecimalSums owns
			// them); a partial decimal sum column runs the same row loop.
			arg := decSumAgg{off: info.off, dec: val.Dec, cnt: cnt, nulls: s.nulls}
			op.sumDecimalRows([]decSumAgg{arg}, b, tbl)
		case types.Float64:
			apply(b.Sel, b.NumRows, func(i int32) {
				if st := s.at(i); st != nil {
					addFloatSum(st, floatArg(val, i), rowsAt(cnt, i))
				}
			})
		default: // int64 accumulator
			apply(b.Sel, b.NumRows, func(i int32) {
				if st := s.at(i); st != nil {
					addIntSum(st, intArg(val, i), rowsAt(cnt, i))
				}
			})
		}
	default: // min/max: keep the value that compares below/above the stored one
		isMin := info.spec.Kind == expr.AggMin
		apply(b.Sel, b.NumRows, func(i int32) {
			st := s.at(i)
			if st != nil && (st[0] == 0 || cmpValue(st[1:], val, int(i), tbl) > 0 == isMin) {
				st[0] = 1
				tbl.PutValue(st[1:], val, int(i))
			}
		})
	}
}

// floatArg reads v[i] as a float64 sum/avg state adds it.
func floatArg(v *vector.Vector, i int32) float64 {
	switch v.Type.ID {
	case types.Float64:
		return v.F64[i]
	case types.Int32:
		return float64(v.I32[i])
	}
	return float64(v.I64[i])
}

// intArg reads v[i] as an int64 sum state adds it.
func intArg(v *vector.Vector, i int32) int64 {
	if v.Type.ID == types.Int32 || v.Type.ID == types.Date {
		return int64(v.I32[i])
	}
	return v.I64[i]
}

// decSumAgg is one decimal sum/avg input column inside a row pass: the
// argument evaluated over a raw batch, or a partial sum column being merged.
type decSumAgg struct {
	off   int // state offset in the group payload
	dec   []types.Decimal128
	cnt   []int64        // rows each input row stands for; nil = one
	nulls []byte         // the column's NULL bytes; nil when it has none
	vec   *vector.Vector // backs dec; returned to the pool when owned
	owned bool
}

// preAggMaxGroups caps the dense pre-aggregation scratch: above this many
// table rows the per-batch slab would outgrow the cache (and the memory),
// so updates fall back to the direct per-row loop.
const preAggMaxGroups = 1 << 16

// updateDecimalSums folds every decimal sum/avg aggregate over a raw batch
// in one fused pass; it is their only way into the states. Narrow NULL-free
// arguments against small tables take the batch-local pre-aggregation
// route: per row, each argument's low limb is added (overflow-tracked
// branch-free) into a dense per-group int64 scratch slab — all of a group's partial sums share one cache line — and the
// hash-table states are touched once per live group at flush time instead of
// once per input row. This is where the narrow-decimal fast path pays off on
// aggregation-heavy shapes (Q1: seven decimal accumulators per row): the
// per-row closure dispatch, payload lookups and count read-modify-writes of
// the generic loops collapse into a handful of adds per row. Everything else
// takes the direct per-row 128-bit loop.
func (op *HashAggOp) updateDecimalSums(b *vector.Batch) error {
	if op.numDecSums == 0 {
		return nil
	}
	ctx := op.tc.Expr
	op.decSums = op.decSums[:0]
	defer op.releaseDecSums()
	for _, info := range op.infos {
		if !info.decSum {
			continue
		}
		av, owned, err := evalChildExpr(ctx, info.spec.Arg, b)
		if err != nil {
			return err
		}
		ag := decSumAgg{off: info.off, dec: av.Dec, vec: av, owned: owned}
		if av.HasNulls() {
			ag.nulls = av.Nulls
		}
		op.decSums = append(op.decSums, ag)
	}

	// Partition: narrow NULL-free arguments pre-aggregate per group; the
	// rest update states per row. The dense route only pays when batches
	// concentrate many rows onto few groups (Q1: four groups): near one row
	// per group per batch (Q17's per-part averages), the flush+reset pass
	// would double the work, so high group counts take the direct loop.
	args := op.decSums
	nPre := 0
	if g := op.tbl.NumRows(); g <= preAggMaxGroups && g*4 <= b.NumActive() {
		for a := range args {
			ag := &args[a]
			if ag.nulls == nil && ctx.Dec64Qualified(ag.vec, b.Sel, b.NumRows) {
				args[nPre], args[a] = args[a], args[nPre]
				nPre++
			}
		}
	}
	escapes := op.preAggDecimalSums(args[:nPre], b)
	op.sumDecimalRows(args[nPre:], b, op.tbl)

	// One tally per (aggregate, batch): the input was pre-aggregated as
	// int64, escaped from that, or ran 128-bit throughout.
	ctx.Dec64Escapes += int64(escapes)
	ctx.Dec64Batches += int64(nPre - escapes)
	ctx.Dec128Batches += int64(len(args) - nPre)
	return nil
}

// releaseDecSums returns the argument vectors of the pass to the pool.
func (op *HashAggOp) releaseDecSums() {
	for i := range op.decSums {
		if ag := &op.decSums[i]; ag.owned {
			op.tc.Expr.Put(ag.vec)
		}
		op.decSums[i] = decSumAgg{}
	}
}

// sumDecimalRows is the per-row 128-bit loop: every active row of the batch
// folds each of args into its group's states. Raw arguments, the scratch-wrap
// replay and partial-sum merges all run it.
func (op *HashAggOp) sumDecimalRows(args []decSumAgg, b *vector.Batch, tbl *ht.Table) {
	if len(args) == 0 {
		return
	}
	pages, keyOff, stride := tbl.PayloadPages()
	n, rowIDs := b.NumActive(), op.rowIDs
	for j := 0; j < n; j++ {
		i := b.RowIndex(j)
		r := rowIDs[i]
		p := pages[r>>ht.PageShift][int(r&ht.PageMask)*stride+keyOff:]
		for a := range args {
			ag := &args[a]
			if ag.nulls != nil && ag.nulls[i] != 0 {
				continue
			}
			c := int64(1)
			if ag.cnt != nil {
				c = ag.cnt[i]
			}
			addDecSum(p[ag.off:], ag.dec[i], c)
		}
	}
}

// preAggDecimalSums is the batch-local pre-aggregation route for narrow
// NULL-free decimal sums: accumulate each aggregate into a dense per-group
// scratch column (groups × aggregates, one cache line per group), then fold
// the scratch into the hash-table states once per touched group. A scratch
// accumulator that wraps int64 is the one overflow escape: that aggregate's
// batch is replayed through the per-row 128-bit loop instead, with identical
// results. Returns how many aggregates escaped.
func (op *HashAggOp) preAggDecimalSums(pre []decSumAgg, b *vector.Batch) (escapes int) {
	if len(pre) == 0 {
		return 0
	}
	// Distinct input sources: aggregates reading the same input (Q1's
	// sum+avg pairs over one column) share a scratch column, accumulated
	// once and folded into each member's state.
	srcOf := op.decSrcOf[:0]
	srcAgg := op.decSrcAgg[:0]
	for a := range pre {
		s := -1
		for j, c := range srcAgg {
			if sameDecSrc(&pre[a], &pre[c]) {
				s = j
				break
			}
		}
		if s < 0 {
			s = len(srcAgg)
			srcAgg = append(srcAgg, a)
		}
		srcOf = append(srcOf, s)
	}
	op.decSrcOf, op.decSrcAgg = srcOf, srcAgg
	nS := len(srcAgg)

	rows := op.tbl.NumRows()
	if need := rows * nS; cap(op.decAcc) < need {
		op.decAcc = make([]int64, need)
	}
	if cap(op.decCnt) < rows {
		op.decCnt = make([]int64, rows)
	}
	acc := op.decAcc[:rows*nS]
	cnt := op.decCnt[:rows]
	touched := op.decTouched[:0]
	rowIDs := op.rowIDs

	// Pass 1: per-group batch row counts and the touched-group list.
	apply(b.Sel, b.NumRows, func(i int32) {
		rid := rowIDs[i]
		if cnt[rid] == 0 {
			touched = append(touched, rid)
		}
		cnt[rid]++
	})
	op.decTouched = touched

	// Pass 2, per distinct source: one tight accumulation loop, overflow
	// tracked in a register (the sign bit of ovf) rather than per row, then
	// the fold of that scratch column into each of its aggregates' states.
	for s, ca := range srcAgg {
		ovf := accumulateScratch(&pre[ca], b.Sel, b.NumRows, rowIDs, acc, nS, s)
		for a := range pre {
			switch {
			case srcOf[a] != s:
			case ovf>>63 != 0:
				// The scratch wrapped: the batch-local totals are unusable,
				// so replay this aggregate's rows in 128-bit.
				escapes++
				op.sumDecimalRows(pre[a:a+1], b, op.tbl)
			default:
				for _, rid := range touched {
					st := op.tbl.PayloadBytes(rid)[pre[a].off:]
					addDecSum(st, types.SignExtend64(acc[int(rid)*nS+s]), cnt[rid])
				}
			}
		}
	}

	// Restore the all-zero scratch invariant for the next batch.
	for _, rid := range touched {
		cnt[rid] = 0
		clear(acc[int(rid)*nS : int(rid)*nS+nS])
	}
	return escapes
}

// accumulateScratch adds one narrow NULL-free source column into column s of
// the per-group scratch (nS columns per group). The sign bit of the result is
// set iff some add wrapped int64. It is its own function so the two loops
// apply stamps out (dense and selective) each keep their operands in
// registers.
func accumulateScratch(src *decSumAgg, sel []int32, n int, rowIDs []int32, acc []int64, nS, s int) (ovf uint64) {
	dec := src.dec // narrow, so the low limb is the value
	apply(sel, n, func(i int32) { ovf |= scratchAdd(acc, int(rowIDs[i])*nS+s, int64(dec[i].Lo)) })
	return ovf
}

// scratchAdd adds x into acc[idx] and flags an int64 wrap in the sign bit of
// its result (branch-free, so a loop can OR the flags together).
func scratchAdd(acc []int64, idx int, x int64) uint64 {
	v := acc[idx]
	r := v + x
	acc[idx] = r
	return uint64((v ^ r) & (x ^ r))
}

// sameDecSrc reports whether two pre-aggregated arguments read the same
// input — pointer-identical decimal storage — so they can share one scratch
// column.
func sameDecSrc(x, y *decSumAgg) bool { return &x.dec[0] == &y.dec[0] }
