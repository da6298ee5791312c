package exec

import (
	"fmt"

	"photon/internal/expr"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// AggMode selects which phase of a (possibly distributed) aggregation this
// operator performs.
type AggMode uint8

const (
	// AggComplete consumes raw input and emits final values.
	AggComplete AggMode = iota
	// AggPartial consumes raw input and emits partial states (pre-shuffle).
	AggPartial
	// AggFinal consumes partial states and emits final values (post-shuffle).
	AggFinal
)

// HashAggOp is Photon's vectorized grouping aggregation (§4.4, Fig. 5).
// Groups are resolved through the vectorized hash table; aggregation states
// live in fixed-width payload slots (hashagg_state.go) folded by per-kind
// batch loops that raw input and partial states share (hashagg_update.go).
// collect_list states live in operator-side storage with payload indices,
// their element bytes coalesced into a shared arena across groups rather
// than allocated per group (the Fig. 5 optimization); a count(DISTINCT)'s
// sets live in one more hash table keyed (group, value) (distinctSet).
// Memory is acquired reservation-first (§5.3); on pressure
// the operator spills partial states partitioned by hash and merges
// partition-at-a-time during finalization (hashagg_spill.go). A partial
// aggregation whose table does not reduce its input stops building it and
// passes each later row on as a partial state (passThrough).
type HashAggOp struct {
	base
	child    Operator
	mode     AggMode
	keyExprs []expr.Expr
	keyNames []string
	aggs     []expr.AggSpec

	keyTypes []types.DataType
	infos    []aggInfo
	payloadW int
	// partSchema is the partial-state form of every group: what spill files
	// hold and what AggPartial hands AggFinal across a shuffle.
	partSchema *types.Schema

	groupState // the live groups
	listPool   mem.Arena
	arena      mem.Arena // the strings evaluated for the input batch at hand
	// numDistinct counts the DISTINCT aggregates; aggInfo.dist numbers them.
	numDistinct int

	// Fused decimal-sum pass (updateDecimalSums): the count of decimal
	// sum/avg aggregates and their per-batch argument descriptors.
	numDecSums int
	decSums    []decSumAgg
	// Batch-local pre-aggregation scratch (dense per-group int64 sums and
	// row counts, plus the list of groups touched this batch). Invariant:
	// all-zero between batches — the flush resets only touched entries.
	decAcc     []int64
	decCnt     []int64
	decTouched []int32
	decSrcOf   []int // scratch column per pre-aggregated argument
	decSrcAgg  []int // representative argument per distinct input source

	// Scratch.
	lanes    []uint64
	hashes   []uint64
	rowIDs   []int32
	inserted []bool
	keyVecs  []*vector.Vector
	keyOwned []bool
	// DISTINCT scratch: gids presents rowIDs as the set tables' first key
	// column; setSel lists a batch's non-NULL arguments; setIDs receives a
	// set-table lookup's entry ids; mergeGids/mergeVals hold the (group,
	// value) pairs a partial blob expands to; blobBuf backs the blobs of one
	// output or spill batch.
	gids      *vector.Vector
	setSel    []int32
	setIDs    []int32
	mergeGids *vector.Vector
	mergeVals []*vector.Vector
	blobBuf   []byte

	// Spilling.
	consumer  *mem.FuncConsumer
	reserved  int64
	spillRuns spillRuns // one per hash partition, made by the first spill
	merging   bool

	// Output iteration state.
	inputDone bool
	emitPos   int
	emitPart  int
	part      groupState // the spilled partition being merged and emitted
	out       *vector.Batch

	// Pass-through (AggPartial): passing once the operator has stopped
	// aggregating; pass is then its output batch, and held the pooled
	// vectors that batch aliases until the next one.
	passing bool
	pass    *vector.Batch
	held    []*vector.Vector
}

// aggInfo is the compiled layout of one aggregate's state.
type aggInfo struct {
	spec    expr.AggSpec
	off     int
	width   int
	resType types.DataType
	// sumType is the widened type a sum/avg state accumulates in.
	sumType types.DataType
	// decSum marks a non-DISTINCT decimal sum/avg: raw input reaches its
	// state only through the fused pass (updateDecimalSums).
	decSum bool
	// dist is a DISTINCT aggregate's index into groupState.sets.
	dist int
}

// NewHashAgg builds a grouping aggregation. keyExprs may be empty (global
// aggregation). In AggFinal mode the child's schema must be the partial
// schema produced by an AggPartial operator with the same specs.
func NewHashAgg(child Operator, mode AggMode, keyExprs []expr.Expr, keyNames []string, aggs []expr.AggSpec) (*HashAggOp, error) {
	op := &HashAggOp{child: child, mode: mode, keyExprs: keyExprs, keyNames: keyNames, aggs: aggs}
	op.stats.Name = fmt.Sprintf("HashAgg(%v)", mode)
	for _, k := range keyExprs {
		op.keyTypes = append(op.keyTypes, k.Type())
	}
	off := 0
	for _, a := range aggs {
		info := aggInfo{spec: a, off: off}
		rt, err := a.ResultType()
		if err != nil {
			return nil, err
		}
		info.resType = rt
		switch {
		case a.Distinct:
			if a.Kind != expr.AggCount {
				return nil, fmt.Errorf("exec: DISTINCT only supported for count")
			}
			info.width = 8
			info.dist = op.numDistinct
			op.numDistinct++
		case a.Kind == expr.AggCount:
			info.width = 8
		case a.Kind == expr.AggSum || a.Kind == expr.AggAvg:
			info.sumType = sumStateType(a)
			info.width = 16
			if info.sumType.ID == types.Decimal {
				info.width = 24
				info.decSum = true
				op.numDecSums++
			}
		case a.Kind == expr.AggMin || a.Kind == expr.AggMax:
			w := a.Arg.Type().FixedWidth()
			if w == 0 {
				w = 8 // heap ref for strings
			}
			info.width = 1 + w
		case a.Kind == expr.AggCollectList:
			info.width = 4
		default:
			return nil, fmt.Errorf("exec: unsupported aggregate %v", a.Kind)
		}
		off += info.width
		op.infos = append(op.infos, info)
	}
	op.payloadW = off

	// Partial-state schema (positional names), then the output schema.
	partFields := make([]types.Field, 0, len(keyExprs)+2*len(aggs))
	for i, k := range keyExprs {
		partFields = append(partFields, types.Field{Name: fmt.Sprintf("k%d", i), Type: k.Type(), Nullable: true})
	}
	for i, info := range op.infos {
		partFields = append(partFields, partialFields(info, fmt.Sprintf("agg%d", i))...)
	}
	op.partSchema = &types.Schema{Fields: partFields}

	fields := make([]types.Field, 0, len(keyExprs)+len(aggs))
	for i, k := range keyExprs {
		name := ""
		if i < len(keyNames) {
			name = keyNames[i]
		}
		if name == "" {
			name = k.String()
		}
		fields = append(fields, types.Field{Name: name, Type: k.Type(), Nullable: true})
	}
	for i, info := range op.infos {
		name := info.spec.Name
		if name == "" {
			name = fmt.Sprintf("agg%d", i)
		}
		if mode == AggPartial {
			fields = append(fields, partialFields(info, name)...)
		} else {
			fields = append(fields, types.Field{Name: name, Type: info.resType, Nullable: true})
		}
	}
	op.schema = &types.Schema{Fields: fields}
	return op, nil
}

// PartialAggSchema returns the schema an AggPartial operator with these
// specs emits (and an AggFinal operator consumes). The stage planner uses
// it to type exchange boundaries before any operator exists.
func PartialAggSchema(keyExprs []expr.Expr, keyNames []string, aggs []expr.AggSpec) (*types.Schema, error) {
	// Schema derivation never touches the child, so a child-less operator
	// is safe here.
	op, err := NewHashAgg(nil, AggPartial, keyExprs, keyNames, aggs)
	if err != nil {
		return nil, err
	}
	return op.Schema(), nil
}

// sumStateType is the widened type a sum/avg accumulates in. avg over
// non-decimals accumulates in float (Spark semantics: avg(int) is double).
func sumStateType(a expr.AggSpec) types.DataType {
	t := a.Arg.Type()
	switch {
	case t.ID == types.Decimal:
		return types.DecimalType(38, t.Scale)
	case t.ID == types.Float64 || a.Kind == expr.AggAvg:
		return types.Float64Type
	default:
		return types.Int64Type
	}
}

// partialFields lists the partial-state output columns for one aggregate.
func partialFields(info aggInfo, base string) []types.Field {
	switch {
	case info.spec.Distinct, info.spec.Kind == expr.AggCollectList:
		return []types.Field{{Name: base + "_blob", Type: types.StringType, Nullable: true}}
	case info.spec.Kind == expr.AggCount:
		return []types.Field{{Name: base + "_cnt", Type: types.Int64Type}}
	case info.spec.Kind == expr.AggSum || info.spec.Kind == expr.AggAvg:
		return []types.Field{
			{Name: base + "_sum", Type: info.sumType, Nullable: true},
			{Name: base + "_cnt", Type: types.Int64Type},
		}
	default: // min/max
		return []types.Field{{Name: base + "_val", Type: info.spec.Arg.Type(), Nullable: true}}
	}
}

// Open implements Operator.
func (op *HashAggOp) Open(tc *TaskCtx) error {
	op.tc = tc
	op.resetGroups(&op.groupState)
	op.consumer = &mem.FuncConsumer{ConsumerName: op.stats.Name, SpillFunc: op.spill}
	op.listPool = *mem.NewArena(0)
	op.keyVecs = make([]*vector.Vector, len(op.keyExprs))
	op.keyOwned = make([]bool, len(op.keyExprs))
	op.inputDone = false
	op.emitPos = 0
	op.emitPart = 0
	op.passing, op.pass = false, nil
	return op.child.Open(tc)
}

// ensureScratch grows the per-batch scratch arrays to n rows.
func (op *HashAggOp) ensureScratch(n int) {
	if len(op.hashes) < n {
		op.hashes = make([]uint64, n)
		op.rowIDs = make([]int32, n)
		op.inserted = make([]bool, n)
		if op.numDistinct > 0 {
			op.setSel = make([]int32, 0, n) // never nil: a nil selection means every row
			op.setIDs = make([]int32, n)
			op.gids = &vector.Vector{Type: types.Int32Type, I32: op.rowIDs, Nulls: make([]byte, n)}
		}
	}
}

// consumeInput drains the child, updating aggregation states batch by batch.
func (op *HashAggOp) consumeInput() error {
	return drain(op.tc, &op.stats, op.child.Next, func(b *vector.Batch) (bool, error) {
		op.useArena()
		var err error
		if op.mode == AggFinal {
			err = op.mergeBatch(b, &op.groupState)
		} else {
			err = op.updateBatch(b)
		}
		if err != nil {
			return false, err
		}
		// Reservation phase for the next batch: reserve the table + list
		// growth since the last reservation; this is where spilling can
		// trigger (ours or another operator's).
		if err := op.reserveDelta(); err != nil {
			return false, err
		}
		// The batch that takes a partial past passMinRows rows decides
		// whether it goes on aggregating.
		in := op.stats.RowsIn.Load()
		if op.mode == AggPartial && in >= passMinRows && in-int64(b.NumActive()) < passMinRows && op.keepsTooMuch(in) {
			op.passing = true
			return false, nil
		}
		return true, nil
	})
}

// A partial aggregation decides once, after passMinRows input rows, whether
// its table reduces its input. When it keeps at least passKeepPct % of the
// rows it read, it stops aggregating and passes every later row on.
const (
	passMinRows = 16 << 10
	passKeepPct = 80
)

// keepsTooMuch reports whether the live table holds, as groups or as the
// elements of one DISTINCT set, at least passKeepPct % of the in rows read.
// A keyless aggregation always reduces, and one that has spilled has moved
// its state to files, so neither stops.
func (op *HashAggOp) keepsTooMuch(in int64) bool {
	if len(op.keyExprs) == 0 || op.spillRuns != nil {
		return false
	}
	kept := op.tbl.NumRows()
	for _, set := range op.sets {
		kept = max(kept, set.tbl.NumRows())
	}
	return int64(kept)*100 >= in*passKeepPct
}

// passThrough returns the child's next batch as partial states, one per row
// (writePassStates), once the live groups have been emitted. The first call
// drops the table and gives back its reservation: from then on the operator
// holds one output batch and the blob bytes behind it.
func (op *HashAggOp) passThrough() (*vector.Batch, error) {
	if op.pass == nil {
		op.tc.Mem.ReleaseAll(op.consumer)
		op.reserved = 0
		op.listPool = *mem.NewArena(0)
		op.out = nil
		op.pass = vector.NewBatch(op.schema, op.tc.Pool.BatchSize())
	}
	op.releaseHeld()
	var out *vector.Batch
	err := drain(op.tc, &op.stats, op.child.Next, func(b *vector.Batch) (bool, error) {
		n := b.NumActive()
		op.stats.PassedRows.Add(int64(n))
		op.useArena()
		if n == 0 {
			return true, nil
		}
		var err error
		out, err = op.writePassStates(b)
		return false, err
	})
	return out, err
}

// useArena empties the operator's arena for a new input batch and points the
// task's evaluations at it.
func (op *HashAggOp) useArena() {
	op.arena.Reset()
	op.tc.Expr.Arena = &op.arena
}

// evalHeld evaluates e over b. A pooled result is held until releaseHeld,
// because the pass-through batch aliases it.
func (op *HashAggOp) evalHeld(e expr.Expr, b *vector.Batch) (*vector.Vector, error) {
	v, owned, err := evalChildExpr(op.tc.Expr, e, b)
	if owned {
		op.held = append(op.held, v)
	}
	return v, err
}

// releaseHeld returns the vectors the last pass-through batch aliased.
func (op *HashAggOp) releaseHeld() {
	for i, v := range op.held {
		op.tc.Expr.Put(v)
		op.held[i] = nil
	}
	op.held = op.held[:0]
}

// reserveDelta tops up the operator's reservation to its current footprint.
func (op *HashAggOp) reserveDelta() error {
	want := op.tbl.MemoryUsage() + op.listPool.Footprint() + int64(len(op.lists))*64 + int64(cap(op.blobBuf))
	for _, set := range op.sets {
		// Its table, and the index a spill builds over it (indexDistinct).
		want += set.tbl.MemoryUsage() + 4*int64(set.tbl.NumRows()+op.tbl.NumRows())
	}
	if want > op.reserved {
		delta := want - op.reserved
		if err := op.tc.Mem.Reserve(op.consumer, delta); err != nil {
			return err
		}
		// A recursive self-spill may have zeroed op.reserved and replaced
		// the table; only count the delta against the *current* epoch.
		op.reserved += delta
		op.stats.observePeak(op.reserved)
	}
	return nil
}

// Next implements Operator.
func (op *HashAggOp) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := op.timed(func() error {
		if !op.inputDone {
			if err := op.consumeInput(); err != nil {
				return err
			}
			op.inputDone = true
			// SQL semantics: a keyless aggregation over empty input still
			// produces one row (count 0, sums NULL).
			if len(op.keyExprs) == 0 && op.mode != AggFinal && op.tbl.NumRows() == 0 && op.spillRuns == nil {
				if err := op.newGlobalGroup(&op.groupState); err != nil {
					return err
				}
			}
			// Once any state has spilled, the live table may share groups
			// with the partitions; flush it too so every group is emitted
			// exactly once via the partition merge.
			if op.spillRuns != nil && op.tbl.Len() > 0 {
				if _, err := op.spill(0); err != nil {
					return err
				}
			}
			// End the spill partitions; emitNext reads them back.
			if err := op.spillRuns.finish(); err != nil {
				return err
			}
		}
		var err error
		if out, err = op.emitNext(); out == nil && err == nil && op.passing {
			out, err = op.passThrough()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		op.stats.RowsOut.Add(int64(out.NumActive()))
		op.stats.BatchesOut.Add(1)
	}
	return out, nil
}

// Close implements Operator.
func (op *HashAggOp) Close() error {
	op.tc.Mem.ReleaseAll(op.consumer)
	op.releaseHeld()
	op.spillRuns.remove()
	op.spillRuns = nil
	return op.child.Close()
}
