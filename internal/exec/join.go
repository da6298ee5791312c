package exec

import (
	"fmt"

	"photon/internal/expr"
	"photon/internal/ht"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// JoinType selects the join semantics. The left child is always the probe
// side and the right child the build side.
type JoinType uint8

// Join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	LeftSemiJoin
	LeftAntiJoin
)

func (jt JoinType) String() string {
	return [...]string{"Inner", "LeftOuter", "LeftSemi", "LeftAnti"}[jt]
}

// HashJoinOp is Photon's vectorized hash join (§4.4). The build side is
// consumed into the vectorized hash table with entries stored as rows (key
// columns + the full build row as payload); probing proceeds hash → batch
// candidate loads → column-wise compare, with the batched loads providing
// the memory-level parallelism responsible for most of the join speedup.
//
// Two adaptive behaviours from §4.6 are implemented:
//   - sparse probe batches are compacted (gathered dense) before probing
//     when sparsity exceeds the task's threshold (Fig. 9);
//   - on memory pressure the join degrades to a grace join, hash-partitioning
//     both sides to disk and joining partition-at-a-time (§5.3 spilling).
type HashJoinOp struct {
	base
	left, right Operator
	leftKeys    []expr.Expr
	rightKeys   []expr.Expr
	joinType    JoinType

	keyTypes   []types.DataType
	buildTypes []types.DataType
	buildOffs  []int
	payloadW   int

	tbl      *ht.Table
	consumer *mem.FuncConsumer
	reserved int64

	// Grace-join state: one build and one probe run per hash partition.
	graced     bool
	merging    bool
	buildRuns  spillRuns
	probeRuns  spillRuns
	curPart    int
	curProbe   *spillRun // the probe run of the partition being joined
	partProbeB *vector.Batch

	// Filter-mode probe (§4.3/§4.6): when every build key is unique (the
	// common primary-key join), the join behaves like a filter — the output
	// shares the probe batch's vectors, gains gathered build columns, and
	// carries a shrunken position list. Sparsity thus propagates to
	// downstream probes, which is exactly the scenario Fig. 9's adaptive
	// compaction addresses. Semi/anti joins always use filter mode.
	uniqueKeys bool
	fmOut      *vector.Batch
	fmBuild    []*vector.Vector
	fmSel      []int32
	fmAcc      *vector.Batch // coalescing compaction accumulator
	fmStrings  []byte        // the accumulated rows' string payloads
	outStrings []byte        // string payloads of out's rows from finished probe batches
	outOwned   int           // rows of out whose strings are in outStrings
	fmStash    *vector.Batch // dense batch deferred while flushing fmAcc
	fmEOF      bool

	// Probe iteration state.
	built      bool
	probeBatch *vector.Batch
	probeSel   []int32 // active, non-null-key probe rows with their chain state
	probePos   int     // index into probeSel
	chain      []int32 // current chain entry per physical probe row
	matchedAny []bool  // per physical probe row: matched at least once
	hashes     []uint64
	rowIDs     []int32
	keyVecs    []*vector.Vector
	keyOwned   []bool
	nullSel    []int32 // probe rows with a NULL key (for anti/outer)
	nullPos    int

	compacted       *vector.Batch // private gather target for adaptive compaction
	lanes           laneScratch
	insertedScratch []bool
	winSel          []int32 // synthetic selection for chunked giant-batch builds

	out *vector.Batch
}

// NewHashJoin builds a hash join; key lists must be type-aligned.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []expr.Expr, jt JoinType) (*HashJoinOp, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: join requires matching, non-empty key lists")
	}
	op := &HashJoinOp{left: left, right: right, leftKeys: leftKeys, rightKeys: rightKeys, joinType: jt}
	op.stats.Name = fmt.Sprintf("HashJoin(%v)", jt)
	for i := range leftKeys {
		lt, rt := leftKeys[i].Type(), rightKeys[i].Type()
		if lt.ID != rt.ID {
			return nil, fmt.Errorf("exec: join key %d type mismatch: %v vs %v", i, lt, rt)
		}
		op.keyTypes = append(op.keyTypes, rt)
	}
	// Payload layout: every build-side column as a row slot.
	off := 0
	for _, f := range right.Schema().Fields {
		op.buildTypes = append(op.buildTypes, f.Type)
		op.buildOffs = append(op.buildOffs, off)
		w := f.Type.FixedWidth()
		if w == 0 {
			w = 8
		}
		off += 1 + w
	}
	op.payloadW = off

	switch jt {
	case LeftSemiJoin, LeftAntiJoin:
		op.schema = left.Schema()
	default:
		// Right columns become nullable under LeftOuter.
		fields := append([]types.Field(nil), left.Schema().Fields...)
		for _, f := range right.Schema().Fields {
			nf := f
			if jt == LeftOuterJoin {
				nf.Nullable = true
			}
			fields = append(fields, nf)
		}
		op.schema = &types.Schema{Fields: fields}
	}
	return op, nil
}

// Open implements Operator.
func (op *HashJoinOp) Open(tc *TaskCtx) error {
	op.tc = tc
	op.tbl = ht.New(op.keyTypes, op.payloadW)
	op.tbl.Guard = tc.Cancelled
	op.consumer = &mem.FuncConsumer{ConsumerName: op.stats.Name, SpillFunc: op.spillBuild}
	op.built = false
	op.graced = false
	op.curPart = 0
	n := tc.Pool.BatchSize()
	op.hashes = make([]uint64, n)
	op.rowIDs = make([]int32, n)
	op.chain = make([]int32, n)
	op.matchedAny = make([]bool, n)
	op.keyVecs = make([]*vector.Vector, len(op.keyTypes))
	op.keyOwned = make([]bool, len(op.keyTypes))
	// fmSel must be non-nil even when empty: a nil position list means
	// "all rows active", the opposite of an empty selection.
	op.fmSel = make([]int32, 0, n)
	if err := op.left.Open(tc); err != nil {
		return err
	}
	return op.right.Open(tc)
}

// evalKeys evaluates the given key expressions over b into op.keyVecs.
func (op *HashJoinOp) evalKeys(keys []expr.Expr, b *vector.Batch) error {
	for c, k := range keys {
		v, err := k.Eval(op.tc.Expr, b)
		if err != nil {
			return err
		}
		_, isCol := k.(*expr.ColRef)
		op.keyVecs[c] = v
		op.keyOwned[c] = !isCol
	}
	return nil
}

func (op *HashJoinOp) releaseKeys() {
	for c, v := range op.keyVecs {
		if v != nil && op.keyOwned[c] {
			op.tc.Expr.Put(v)
		}
		op.keyVecs[c] = nil
	}
}

// ensureCap grows scratch arrays to batch capacity cap.
func (op *HashJoinOp) ensureCap(n int) {
	if len(op.hashes) < n {
		op.hashes = make([]uint64, n)
		op.rowIDs = make([]int32, n)
		op.chain = make([]int32, n)
		op.matchedAny = make([]bool, n)
	}
}

// build consumes the build (right) side.
func (op *HashJoinOp) build() error {
	for {
		// Batch-boundary cancellation check (join build side).
		if err := op.tc.Cancelled(); err != nil {
			return err
		}
		b, err := op.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		op.stats.RowsIn.Add(int64(b.NumActive()))
		if op.graced {
			if err := op.partitionBuildBatch(b); err != nil {
				return err
			}
			continue
		}
		if err := op.insertBuildBatch(b, op.tbl); err != nil {
			return err
		}
		// Reservation phase: may trigger our own spillBuild, flipping to
		// grace mode.
		want := op.tbl.MemoryUsage()
		if want > op.reserved {
			if err := op.tc.Mem.Reserve(op.consumer, want-op.reserved); err != nil {
				return err
			}
			if !op.graced {
				op.reserved = want
			}
			op.stats.observePeak(want)
		}
	}
	if op.graced {
		return op.buildRuns.finish()
	}
	return nil
}

// insertBuildBatch inserts one batch into tbl (keys + payload columns).
// Batches larger than cancelCheckRows are inserted in windows with a
// cancellation check between windows.
func (op *HashJoinOp) insertBuildBatch(b *vector.Batch, tbl *ht.Table) error {
	n := b.NumRows
	op.ensureCap(n)
	op.tc.Expr.ResetPerBatch()
	if err := op.evalKeys(op.rightKeys, b); err != nil {
		return err
	}
	defer op.releaseKeys()
	// Build rows with NULL keys can never match an equi-join; skip them.
	sel := op.nonNullKeySel(b, nil)
	hashKeyVectorsScratch(op.keyVecs, sel, n, op.hashes, &op.lanes)
	if cap(op.insertedScratch) < n {
		op.insertedScratch = make([]bool, n)
	}
	active := n
	if sel != nil {
		active = len(sel)
	}
	if active <= cancelCheckRows {
		return op.insertBuildRows(b, tbl, sel, n)
	}
	for lo := 0; lo < active; lo += cancelCheckRows {
		if err := op.tc.Cancelled(); err != nil {
			return err
		}
		hi := min(lo+cancelCheckRows, active)
		if err := op.insertBuildRows(b, tbl, window(sel, lo, hi, &op.winSel), n); err != nil {
			return err
		}
	}
	return nil
}

// insertBuildRows inserts the sel window of an already-hashed batch.
func (op *HashJoinOp) insertBuildRows(b *vector.Batch, tbl *ht.Table, sel []int32, n int) error {
	inserted := op.insertedScratch[:n]
	if err := tbl.InsertDup(op.keyVecs, op.hashes, sel, n, op.rowIDs, inserted); err != nil {
		return err
	}
	// Encode payload (full build row) for each inserted entry.
	apply(sel, n, func(i int32) {
		p := tbl.PayloadBytes(op.rowIDs[i])
		for c, v := range b.Vecs {
			tbl.PutSlot(p[op.buildOffs[c]:], v, int(i))
		}
	})
	return nil
}

// nonNullKeySel returns the subset of b's active rows whose key vectors are
// all non-NULL (nil when nothing was filtered), appending NULL-key rows to
// op.nullSel when collectNull is set.
func (op *HashJoinOp) nonNullKeySel(b *vector.Batch, collectNull *[]int32) []int32 {
	anyNulls := false
	for _, v := range op.keyVecs {
		if v.HasNulls() {
			anyNulls = true
			break
		}
	}
	if !anyNulls {
		return b.Sel
	}
	out := make([]int32, 0, b.NumActive())
	apply(b.Sel, b.NumRows, func(i int32) {
		for _, v := range op.keyVecs {
			if v.Nulls[i] != 0 {
				if collectNull != nil {
					*collectNull = append(*collectNull, i)
				}
				return
			}
		}
		out = append(out, i)
	})
	return out
}

// spillBuild is the memory-consumer callback: dump the current table's rows
// (heads and duplicates) to hash partitions and switch to grace mode.
func (op *HashJoinOp) spillBuild(need int64) (int64, error) {
	if op.merging || op.graced || !op.tc.CanSpill() {
		return 0, nil
	}
	runs, err := newSpillParts(op.tc, "join-build")
	if err != nil {
		return 0, err
	}
	op.buildRuns = runs
	batch := op.tc.Pool.Get(op.right.Schema())
	defer op.tc.Pool.Put(batch)
	err = runs.spillTable(op.tbl, batch, func(b *vector.Batch, row int32) {
		pay := op.tbl.PayloadBytes(row)
		for c := range op.buildTypes {
			op.tbl.GetSlot(pay[op.buildOffs[c]:], b.Vecs[c], b.NumRows)
		}
		b.NumRows++
	})
	if err != nil {
		return 0, err
	}
	freed := op.reserved
	op.tc.Mem.Release(op.consumer, op.reserved)
	op.reserved = 0
	op.tbl = ht.New(op.keyTypes, op.payloadW)
	op.tbl.Guard = op.tc.Cancelled
	op.graced = true
	op.stats.SpillCount.Add(1)
	op.stats.SpillBytes.Add(freed)
	return freed, nil
}

// partitionBuildBatch routes a build batch to partition files (grace mode).
func (op *HashJoinOp) partitionBuildBatch(b *vector.Batch) error {
	op.tc.Expr.ResetPerBatch()
	if err := op.evalKeys(op.rightKeys, b); err != nil {
		return err
	}
	defer op.releaseKeys()
	sel := op.nonNullKeySel(b, nil)
	return op.partitionOut(b, sel, op.buildRuns)
}

// partitionOut hashes key vectors and appends each active row to its
// partition's run.
func (op *HashJoinOp) partitionOut(b *vector.Batch, sel []int32, runs spillRuns) error {
	n := b.NumRows
	op.ensureCap(n)
	hashKeyVectorsScratch(op.keyVecs, sel, n, op.hashes, &op.lanes)
	// Build per-partition position lists, then write each subset.
	parts := make([][]int32, spillParts)
	apply(sel, n, func(i int32) {
		p := partOf(op.hashes[i])
		parts[p] = append(parts[p], i)
	})
	savedSel, savedN := b.Sel, b.NumRows
	defer func() { b.Sel, b.NumRows = savedSel, savedN }()
	for p, rows := range parts {
		if len(rows) == 0 {
			continue
		}
		b.Sel = rows
		if err := runs[p].write(b); err != nil {
			return err
		}
	}
	return nil
}
