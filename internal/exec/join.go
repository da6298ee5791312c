package exec

import (
	"fmt"

	"photon/internal/expr"
	"photon/internal/ht"
	"photon/internal/kernels"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// JoinType selects the join semantics, stated for the left input (semi,
// anti and outer keep left rows); either input may be hashed (readAhead).
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
// Every join type, either build side and every grace partition probe the
// same way (join_probe.go): one front end, one match loop writing (probe
// row, table row) pairs, and one materialization that shares the probe
// batch's vectors whenever the pairs name each probe row at most once.
//
// Two adaptive behaviours from §4.6 are implemented:
//   - sparse probe batches are coalesced into dense ones before probing
//     when sparsity exceeds the task's threshold (Fig. 9);
//   - on memory pressure the join degrades to a grace join, hash-partitioning
//     both sides to disk and joining partition-at-a-time (§5.3 spilling).
//
// Each task also hashes its left input when that turns out the smaller one
// and streams the right input through it (§2.2, §5.5; readAhead).
type HashJoinOp struct {
	base
	left, right Operator
	leftKeys    []expr.Expr
	rightKeys   []expr.Expr
	joinType    JoinType

	keyTypes []types.DataType
	build    rowLayout // the payload layout of the input the table holds

	// Which input the table holds (readAhead), and the state of reading
	// the left input ahead: the owned copies held (their bytes reserved
	// through heldMem, or written to heldRun when it is asked to spill) and
	// the pending batch that ended it, still the child's. matched flags the
	// table rows a right row met; tailRow is where the scan for unflagged
	// ones is (match).
	buildLeft            bool
	buildIn, probeIn     Operator
	buildKeys, probeKeys []expr.Expr
	rightRows            int64 // exact; -1 when unknown
	held                 []*vector.Batch
	heldRows, heldBytes  int64
	heldStrings          []byte
	heldMem              *mem.FuncConsumer
	heldRun              *spillRun
	heldBuf              *vector.Batch
	pending              *vector.Batch
	leftDone             bool
	matched              []bool
	tailRow              int
	tailing, tailDone    bool

	tbl      *ht.Table
	consumer *mem.FuncConsumer
	reserved int64
	arena    mem.Arena // the strings of the keys evaluated last (evalKeys)

	// Grace-join state: one build and one probe run per hash partition.
	graced     bool
	merging    bool
	buildRuns  spillRuns
	probeRuns  spillRuns
	curPart    int
	curProbe   *spillRun // the probe run of the partition being joined
	partProbeB *vector.Batch

	// Probe state. The front end (nextProbe) coalesces sparse probe batches
	// in acc, its rows' strings in accStrings; stash is the batch that
	// flushed it, due next when stashed. The batch being probed is
	// probeBatch: rowIDs holds each row's chain head, probePos the next
	// active row to match and resumeAt the table row where an interrupted
	// chain walk goes on (-1: none). The match loop writes (probe row, table
	// row) pairs into pairProbe and pairTable; materialize turns them into
	// shared (the probe batch's vectors, tableVecs gathered beside them) or
	// out (both sides gathered).
	built                bool
	acc, stash           *vector.Batch
	accStrings           []byte
	stashed, flushed     bool
	probeBatch           *vector.Batch
	probePos             int
	resumeAt             int32
	pairProbe, pairTable []int32
	shared, out          *vector.Batch
	tableVecs            []*vector.Vector
	hashes               []uint64
	rowIDs               []int32
	keyVecs              []*vector.Vector
	keyOwned             []bool
	nullSel              []int32 // probe rows with a NULL key
	keySel               []int32 // nonNullKeySel's result
	lanes                []uint64
	insertedScratch      []bool
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

// rowLayout places every column of one input in a payload slot.
type rowLayout struct {
	types []types.DataType
	offs  []int
	width int
}

func newRowLayout(s *types.Schema) rowLayout {
	var l rowLayout
	for _, f := range s.Fields {
		l.types = append(l.types, f.Type)
		l.offs = append(l.offs, l.width)
		w := f.Type.FixedWidth()
		if w == 0 {
			w = 8
		}
		l.width += 1 + w
	}
	return l
}

// Open implements Operator.
func (op *HashJoinOp) Open(tc *TaskCtx) error {
	op.tc = tc
	op.buildLeft = false
	op.buildIn, op.probeIn, op.buildKeys, op.probeKeys = op.right, op.left, op.rightKeys, op.leftKeys
	op.build = newRowLayout(op.right.Schema())
	op.newTable()
	op.consumer = &mem.FuncConsumer{ConsumerName: op.stats.Name, SpillFunc: op.spillBuild}
	// An exchange read knows its exact row count.
	op.rightRows = -1
	if c, ok := op.right.(interface{ ExactRows() (int64, bool) }); ok {
		if n, known := c.ExactRows(); known {
			op.rightRows = n
		}
	}
	op.held, op.heldRows, op.heldBytes, op.heldStrings, op.heldRun = nil, 0, 0, nil, nil
	op.pending, op.leftDone = nil, false
	op.partProbeB, op.heldBuf, op.acc, op.probeBatch = nil, nil, nil, nil
	op.built, op.stashed, op.flushed, op.tailing = false, false, false, false
	op.graced = false
	op.curPart = 0
	op.keyVecs = make([]*vector.Vector, len(op.keyTypes))
	op.keyOwned = make([]bool, len(op.keyTypes))
	// keySel must be non-nil even when empty: a nil position list means "all
	// rows active", the opposite of an empty selection. It, and the scratch
	// arrays (ensureCap), grow with the batches that need them.
	op.keySel = []int32{}
	if err := op.left.Open(tc); err != nil {
		return err
	}
	return op.right.Open(tc)
}

// newTable makes an empty table for the build side's layout.
func (op *HashJoinOp) newTable() {
	op.tbl = ht.New(op.keyTypes, op.build.width)
}

// keepsNullKeys reports whether NULL-key build rows go into the table: a
// build-left anti or outer join emits them among the unmatched left rows.
func (op *HashJoinOp) keepsNullKeys() bool {
	return op.buildLeft && (op.joinType == LeftAntiJoin || op.joinType == LeftOuterJoin)
}

// readAhead holds the left input's rows while their payload bytes stay
// within half the right input's. If the left input ends within that budget
// the table is built on it; otherwise the batch past it stays pending and
// the right input is built as usual, as it is when the held rows find no
// memory. The half was measured when a left build copied its output row by
// row (DESIGN §16) and is due to be measured again; a right input of one
// batch builds in microseconds and is left alone.
func (op *HashJoinOp) readAhead() error {
	if op.rightRows <= int64(op.tc.Pool.BatchSize()) {
		return nil
	}
	left := newRowLayout(op.left.Schema())
	budget := op.rightRows * int64(op.build.width) / int64(2*max(left.width, 1))
	if op.heldMem == nil {
		op.heldMem = &mem.FuncConsumer{ConsumerName: op.stats.Name + " read-ahead", SpillFunc: op.spillHeld}
	}
	err := drain(op.tc, &op.stats, op.left.Next, func(b *vector.Batch) (bool, error) {
		n := int64(b.NumActive())
		if n > 0 && (op.heldRows+n > budget || !op.hold(b, int(min(budget, int64(op.tc.Pool.BatchSize()))))) {
			op.pending = b
			return false, nil
		}
		return true, nil
	})
	if err != nil || op.pending != nil {
		return err
	}
	op.leftDone, op.buildLeft = true, true
	op.buildIn, op.probeIn, op.buildKeys, op.probeKeys = op.left, op.right, op.leftKeys, op.rightKeys
	op.build = left
	op.newTable()
	op.stats.BuiltLeft.Add(1)
	return nil
}

// hold copies b's active rows into dense held batches of capRows rows, so
// that they probe like full batches; false when the memory manager has no
// room for them.
func (op *HashJoinOp) hold(b *vector.Batch, capRows int) bool {
	n := b.NumActive()
	size := 0
	for _, v := range b.Vecs {
		size += (1 + v.Type.FixedWidth()) * n
		if v.Type.ID == types.String {
			size += 24 * n // slice headers
			apply(b.Sel, b.NumRows, func(i int32) { size += len(v.Str[i]) })
		}
	}
	if op.heldRun != nil || !op.tc.Mem.TryReserve(op.heldMem, int64(size)) {
		return false
	}
	for lo := 0; lo < n; {
		if k := len(op.held); k == 0 || op.held[k-1].NumRows == capRows {
			op.held = append(op.held, vector.NewBatch(op.left.Schema(), capRows))
		}
		dst := op.held[len(op.held)-1]
		from, hi := dst.NumRows, min(n, lo+capRows-dst.NumRows)
		b.GatherRange(dst, lo, hi)
		op.heldStrings = dst.OwnStrings(from, op.heldStrings)
		lo = hi
	}
	op.heldRows += int64(n)
	op.heldBytes += int64(size)
	return true
}

// spillHeld is heldMem's spill callback: it writes the held rows to a spill
// run, which nextLeft reads after them.
func (op *HashJoinOp) spillHeld(int64) (int64, error) {
	if len(op.held) == 0 || op.heldRun != nil || !op.tc.CanSpill() {
		return 0, nil
	}
	run, err := newSpillRun(op.tc, "join-held")
	if err != nil {
		return 0, err
	}
	for _, b := range op.held {
		if err == nil {
			err = run.write(b)
		}
	}
	if err == nil {
		err = run.finish()
	}
	if err != nil {
		run.remove()
		return 0, err
	}
	freed := op.heldBytes
	op.tc.Mem.Release(op.heldMem, freed)
	op.held, op.heldStrings, op.heldBytes, op.heldRun = nil, nil, 0, run
	op.stats.SpillCount.Add(1)
	op.stats.SpillBytes.Add(freed)
	return freed, nil
}

// nextLeft returns the next left batch: the held rows (in memory, then
// written out), then the pending batch, then the live input.
func (op *HashJoinOp) nextLeft() (*vector.Batch, error) {
	if len(op.held) > 0 {
		b := op.held[0]
		op.held[0], op.held = nil, op.held[1:]
		if len(op.held) == 0 {
			op.tc.Mem.ReleaseAll(op.heldMem)
			op.heldStrings = nil // the batches handed out keep what they use
		}
		return b, nil
	}
	if run := op.heldRun; run != nil {
		if op.heldBuf == nil {
			op.heldBuf = vector.NewBatch(op.left.Schema(), op.tc.Pool.BatchSize())
		}
		ok, err := run.read(op.heldBuf)
		if ok || err != nil {
			return op.heldBuf, err
		}
		run.remove()
		op.heldRun = nil
	}
	if b := op.pending; b != nil {
		op.pending = nil
		return b, nil
	}
	if op.leftDone {
		return nil, nil
	}
	return op.read(op.left)
}

// nextProbeInput returns the probe input's next batch, the left input's
// through nextLeft.
func (op *HashJoinOp) nextProbeInput() (*vector.Batch, error) {
	if op.probeIn == op.left {
		return op.nextLeft()
	}
	return op.read(op.right)
}

// read takes a child's next batch through drain, which counts it as input.
func (op *HashJoinOp) read(in Operator) (b *vector.Batch, err error) {
	err = drain(op.tc, &op.stats, in.Next, func(x *vector.Batch) (bool, error) {
		b = x
		return false, nil
	})
	return b, err
}

// evalKeys evaluates the given key expressions over b into op.keyVecs, its
// strings into the join's arena: each input batch's keys are evaluated once,
// and are done with before the next batch is taken.
func (op *HashJoinOp) evalKeys(keys []expr.Expr, b *vector.Batch) error {
	op.arena.Reset()
	op.tc.Expr.Arena = &op.arena
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

// ensureCap grows the scratch arrays to n rows.
func (op *HashJoinOp) ensureCap(n int) {
	if len(op.hashes) < n {
		op.hashes = make([]uint64, n)
		op.rowIDs = make([]int32, n)
	}
}

// buildTable reads ahead, then consumes the build side: the right input, or
// the left input's held rows, counted when they were read ahead.
func (op *HashJoinOp) buildTable() error {
	if err := op.readAhead(); err != nil {
		return err
	}
	var err error
	if op.buildLeft {
		err = drain(op.tc, nil, op.nextLeft, op.buildBatch)
	} else {
		err = drain(op.tc, &op.stats, op.right.Next, op.buildBatch)
	}
	if err != nil {
		return err
	}
	if op.graced {
		return op.buildRuns.finish()
	}
	op.resetMatched()
	return nil
}

// buildBatch inserts a build batch into the table, or routes it to the
// partition runs once the join has gone grace.
func (op *HashJoinOp) buildBatch(b *vector.Batch) (bool, error) {
	if op.graced {
		return true, op.partitionBuildBatch(b)
	}
	if err := op.insertBuildBatch(b, op.tbl); err != nil {
		return false, err
	}
	// Reservation phase: may trigger our own spillBuild, flipping to grace
	// mode.
	want := op.tbl.MemoryUsage()
	if want > op.reserved {
		if err := op.tc.Mem.Reserve(op.consumer, want-op.reserved); err != nil {
			return false, err
		}
		if !op.graced {
			op.reserved = want
		}
		op.stats.observePeak(want)
	}
	return true, nil
}

// resetMatched clears the matched flags and the unmatched scan for a newly
// built table.
func (op *HashJoinOp) resetMatched() {
	op.tailRow, op.tailDone = 0, false
	if op.buildLeft {
		op.matched = append(op.matched[:0], make([]bool, op.tbl.NumRows())...)
	}
}

// insertBuildBatch inserts one batch into tbl (keys + payload columns).
func (op *HashJoinOp) insertBuildBatch(b *vector.Batch, tbl *ht.Table) error {
	n := b.NumRows
	op.ensureCap(n)
	if err := op.evalKeys(op.buildKeys, b); err != nil {
		return err
	}
	defer op.releaseKeys()
	sel := op.buildSel(b)
	op.lanes = kernels.HashKeys(op.keyVecs, sel, n, op.hashes, op.lanes)
	if cap(op.insertedScratch) < n {
		op.insertedScratch = make([]bool, n)
	}
	inserted := op.insertedScratch[:n]
	if err := tbl.InsertDup(op.keyVecs, op.hashes, sel, n, op.rowIDs, inserted); err != nil {
		return err
	}
	// Encode payload (full build row) for each inserted entry.
	apply(sel, n, func(i int32) {
		p := tbl.PayloadBytes(op.rowIDs[i])
		for c, v := range b.Vecs {
			tbl.PutSlot(p[op.build.offs[c]:], v, int(i))
		}
	})
	return nil
}

// buildSel returns the build rows of b that go into the table: those whose
// key can match, unless the table keeps NULL keys (keepsNullKeys).
func (op *HashJoinOp) buildSel(b *vector.Batch) []int32 {
	if op.keepsNullKeys() {
		return b.Sel
	}
	return op.nonNullKeySel(b, nil)
}

// nonNullKeySel returns the subset of b's active rows whose key vectors are
// all non-NULL (b.Sel when nothing was filtered), appending NULL-key rows to
// collectNull when set. The subset lives in op.keySel until the next call.
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
	out := op.keySel[:0]
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
	op.keySel = out
	return out
}

// spillBuild is the memory-consumer callback: dump the current table's rows
// (heads and duplicates) to hash partitions and switch to grace mode. A
// table already being probed stays.
func (op *HashJoinOp) spillBuild(need int64) (int64, error) {
	if op.built || op.merging || op.graced || !op.tc.CanSpill() {
		return 0, nil
	}
	runs, err := newSpillParts(op.tc, "join-build")
	if err != nil {
		return 0, err
	}
	op.buildRuns = runs
	batch := op.tc.Pool.Get(op.buildIn.Schema())
	defer op.tc.Pool.Put(batch)
	err = runs.spillTable(op.tbl, batch, func(b *vector.Batch, row int32) {
		pay := op.tbl.PayloadBytes(row)
		for c, off := range op.build.offs {
			op.tbl.GetSlot(pay[off:], b.Vecs[c], b.NumRows)
		}
		b.NumRows++
	})
	if err != nil {
		return 0, err
	}
	freed := op.reserved
	op.tc.Mem.Release(op.consumer, op.reserved)
	op.reserved = 0
	op.newTable()
	op.graced = true
	op.stats.SpillCount.Add(1)
	op.stats.SpillBytes.Add(freed)
	return freed, nil
}

// partitionBuildBatch routes a build batch to partition files (grace mode).
func (op *HashJoinOp) partitionBuildBatch(b *vector.Batch) error {
	if err := op.evalKeys(op.buildKeys, b); err != nil {
		return err
	}
	defer op.releaseKeys()
	return op.partitionOut(b, op.buildSel(b), op.buildRuns)
}

// partitionOut hashes key vectors and appends each active row to its
// partition's run.
func (op *HashJoinOp) partitionOut(b *vector.Batch, sel []int32, runs spillRuns) error {
	n := b.NumRows
	op.ensureCap(n)
	op.lanes = kernels.HashKeys(op.keyVecs, sel, n, op.hashes, op.lanes)
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
