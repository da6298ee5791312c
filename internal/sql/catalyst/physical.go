package catalyst

import (
	"fmt"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/expr"
	"photon/internal/rf"
	"photon/internal/rowengine"
	"photon/internal/sql"
	"photon/internal/storage/delta"
	"photon/internal/storage/parquet"
	"photon/internal/types"
	"photon/internal/vector"
)

// Engine selects the execution backend.
type Engine uint8

// Backends.
const (
	// EnginePhoton runs the vectorized engine (with row-engine fallback for
	// nodes listed in PhotonUnsupported, Fig. 3's partial rollout).
	EnginePhoton Engine = iota
	// EngineDBRCompiled runs the baseline row engine in whole-stage-codegen
	// mode (pre-compiled closures).
	EngineDBRCompiled
	// EngineDBRInterpreted runs the baseline row engine in Volcano
	// interpreted mode.
	EngineDBRInterpreted
)

func (e Engine) String() string {
	return [...]string{"photon", "dbr-codegen", "dbr-interpreted"}[e]
}

// topKThreshold is the largest LIMIT under which a Sort+Limit becomes a TopK.
const topKThreshold = 10000

// Config controls physical planning.
type Config struct {
	Engine Engine
	// PhotonUnsupported lists logical node kinds ("filter", "project",
	// "aggregate", "join", "sort", "limit") that Photon must not execute;
	// the planner inserts a transition node and continues in the row
	// engine, exactly the partial-rollout behaviour of §5.1/§5.2.
	PhotonUnsupported map[string]bool
	// ScanPartitions/ScanPartition split the leftmost (probe-lineage) scan
	// across tasks in distributed execution; other scans replicate
	// (broadcast semantics). Zero disables partitioning.
	ScanPartitions int
	ScanPartition  int
	// ExchangeSource lowers an ExchangeRead leaf to the task's shuffle or
	// broadcast read operator. Set by the distributed driver; nil outside
	// staged execution (ExchangeRead nodes then fail to plan).
	ExchangeSource func(*ExchangeRead) (exec.Operator, error)
	// RuntimeFilterSource resolves the runtime filter published by producer
	// fragment id, or nil when unavailable — a RuntimeFilterPlan then lowers
	// to a pass-through (best-effort semantics). Set by the distributed
	// driver.
	RuntimeFilterSource func(producerID int) *rf.Filter
	// OnScanIO reports, once per data file a Delta scan is done with, the
	// bytes it read from the file and the bytes its chunks decompressed to.
	// Called from the task goroutine.
	OnScanIO func(read, decoded int64)
}

func (c Config) rowMode() rowengine.Mode {
	if c.Engine == EngineDBRInterpreted {
		return rowengine.Interpreted
	}
	return rowengine.Compiled
}

// Executable is a planned physical query: columnar when the top of the
// plan stayed in Photon, row-oriented when it fell back.
type Executable struct {
	Photon exec.Operator
	Row    rowengine.Operator
	// Transitions counts engine boundary nodes inserted (§6.3 metric).
	Transitions int
}

// Schema returns the output schema.
func (e *Executable) Schema() *types.Schema {
	if e.Photon != nil {
		return e.Photon.Schema()
	}
	return e.Row.Schema()
}

// Run executes to completion, returning materialized rows.
func (e *Executable) Run(tc *exec.TaskCtx) ([][]any, error) {
	if e.Photon != nil {
		return exec.CollectRows(e.Photon, tc)
	}
	return rowengine.CollectRows(e.Row)
}

// Build converts an optimized logical plan to a physical plan.
func Build(plan sql.LogicalPlan, cfg Config, tc *exec.TaskCtx) (*Executable, error) {
	b := &builder{cfg: cfg, tc: tc}
	if cfg.Engine != EnginePhoton {
		row, err := b.buildRow(plan)
		if err != nil {
			return nil, err
		}
		return &Executable{Row: row}, nil
	}
	ph, row, err := b.buildHybrid(plan)
	if err != nil {
		return nil, err
	}
	return &Executable{Photon: ph, Row: row, Transitions: b.transitions}, nil
}

type builder struct {
	cfg         Config
	tc          *exec.TaskCtx
	transitions int
	scanSeen    bool
}

// nodeKind names a logical node for the unsupported set.
func nodeKind(plan sql.LogicalPlan) string {
	switch plan.(type) {
	case *sql.LScan:
		return "scan"
	case *sql.LFilter:
		return "filter"
	case *sql.LProject:
		return "project"
	case *sql.LAggregate:
		return "aggregate"
	case *sql.LJoin:
		return "join"
	case *sql.LSort:
		return "sort"
	case *sql.LLimit:
		return "limit"
	case *ExchangeRead:
		return "exchange"
	case *PartialAggPlan, *FinalAggPlan:
		return "aggregate"
	case *RuntimeFilterPlan:
		return "runtimefilter"
	}
	return "unknown"
}

// buildHybrid converts bottom-up, falling back to the row engine at the
// first unsupported node (Fig. 3: conversion starts at scans and never
// restarts mid-plan). Exactly one of the return values is non-nil.
func (b *builder) buildHybrid(plan sql.LogicalPlan) (exec.Operator, rowengine.Operator, error) {
	unsupported := b.cfg.PhotonUnsupported[nodeKind(plan)]

	switch n := plan.(type) {
	case *sql.LScan:
		if unsupported {
			row, err := b.buildRowScan(n)
			return nil, row, err
		}
		op, err := b.buildPhotonScan(n)
		return op, nil, err

	case *sql.LSort:
		// Peephole: Sort directly under Limit is handled at LLimit.
		ph, row, err := b.buildHybrid(n.Child)
		if err != nil {
			return nil, nil, err
		}
		if ph != nil && !unsupported {
			return exec.NewSort(ph, sortKeys(n.Keys)), nil, nil
		}
		rowIn, err := b.toRow(ph, row)
		if err != nil {
			return nil, nil, err
		}
		return nil, rowengine.NewSort(rowIn, rowSortKeys(n.Keys)), nil

	case *sql.LLimit:
		// TopK fusion: Limit(Sort(x)) with small N.
		if s, ok := n.Child.(*sql.LSort); ok && n.N <= topKThreshold {
			ph, row, err := b.buildHybrid(s.Child)
			if err != nil {
				return nil, nil, err
			}
			if ph != nil && !unsupported && !b.cfg.PhotonUnsupported["sort"] {
				tk, err := exec.NewTopK(ph, sortKeys(s.Keys), int(n.N))
				return tk, nil, err
			}
			rowIn, err := b.toRow(ph, row)
			if err != nil {
				return nil, nil, err
			}
			return nil, rowengine.NewLimit(rowengine.NewSort(rowIn, rowSortKeys(s.Keys)), n.N), nil
		}
		ph, row, err := b.buildHybrid(n.Child)
		if err != nil {
			return nil, nil, err
		}
		if ph != nil && !unsupported {
			return exec.NewLimit(ph, n.N), nil, nil
		}
		rowIn, err := b.toRow(ph, row)
		if err != nil {
			return nil, nil, err
		}
		return nil, rowengine.NewLimit(rowIn, n.N), nil

	case *sql.LFilter:
		ph, row, err := b.buildHybrid(n.Child)
		if err != nil {
			return nil, nil, err
		}
		if ph != nil && !unsupported {
			return exec.NewFilter(ph, n.Pred), nil, nil
		}
		rowIn, err := b.toRow(ph, row)
		if err != nil {
			return nil, nil, err
		}
		pred, err := rowengine.CompilePred(n.Pred, b.cfg.rowMode())
		if err != nil {
			return nil, nil, err
		}
		return nil, rowengine.NewFilter(rowIn, pred), nil

	case *sql.LProject:
		ph, row, err := b.buildHybrid(n.Child)
		if err != nil {
			return nil, nil, err
		}
		if ph != nil && !unsupported {
			return exec.NewProject(ph, n.Exprs, n.Names), nil, nil
		}
		rowIn, err := b.toRow(ph, row)
		if err != nil {
			return nil, nil, err
		}
		exprs := make([]rowengine.RowExpr, len(n.Exprs))
		for i, e := range n.Exprs {
			fn, err := rowengine.CompileExpr(e, b.cfg.rowMode())
			if err != nil {
				return nil, nil, err
			}
			exprs[i] = fn
		}
		return nil, rowengine.NewProject(rowIn, exprs, n.Schema()), nil

	case *sql.LAggregate:
		ph, row, err := b.buildHybrid(n.Child)
		if err != nil {
			return nil, nil, err
		}
		if ph != nil && !unsupported {
			agg, err := exec.NewHashAgg(ph, exec.AggComplete, n.Keys, n.KeyNames, n.Aggs)
			return agg, nil, err
		}
		rowIn, err := b.toRow(ph, row)
		if err != nil {
			return nil, nil, err
		}
		agg, err := rowengine.NewHashAgg(rowIn, n.Keys, n.KeyNames, n.Aggs, b.cfg.rowMode())
		return nil, agg, err

	case *ExchangeRead:
		// Stage-input leaf: the distributed driver supplies the shuffle or
		// broadcast read for this task.
		if b.cfg.ExchangeSource == nil {
			return nil, nil, fmt.Errorf("catalyst: exchange read outside distributed execution")
		}
		op, err := b.cfg.ExchangeSource(n)
		return op, nil, err

	case *PartialAggPlan:
		// Map side of a split aggregation; distributed fragments are pure
		// Photon, so no row-engine variant exists.
		ph, _, err := b.buildHybrid(n.Child)
		if err != nil {
			return nil, nil, err
		}
		if ph == nil {
			return nil, nil, fmt.Errorf("catalyst: partial aggregation requires a Photon input")
		}
		agg, err := exec.NewHashAgg(ph, exec.AggPartial, n.Agg.Keys, n.Agg.KeyNames, n.Agg.Aggs)
		return agg, nil, err

	case *FinalAggPlan:
		// Reduce side: grouping keys are plain columns of the partial-state
		// schema (the exchange leads with them).
		ph, _, err := b.buildHybrid(n.Child)
		if err != nil {
			return nil, nil, err
		}
		if ph == nil {
			return nil, nil, fmt.Errorf("catalyst: final aggregation requires a Photon input")
		}
		ps := ph.Schema()
		finalKeys := make([]expr.Expr, len(n.Agg.Keys))
		for i := range finalKeys {
			f := ps.Field(i)
			finalKeys[i] = expr.Col(i, f.Name, f.Type)
		}
		agg, err := exec.NewHashAgg(ph, exec.AggFinal, finalKeys, n.Agg.KeyNames, n.Agg.Aggs)
		return agg, nil, err

	case *RuntimeFilterPlan:
		// Runtime filters stacked at one place in the plan run as one operator
		// (distributed fragments are pure Photon).
		stack := []*RuntimeFilterPlan{n}
		for c, ok := n.Child.(*RuntimeFilterPlan); ok; c, ok = c.Child.(*RuntimeFilterPlan) {
			stack = append(stack, c)
		}
		ph, _, err := b.buildHybrid(stack[len(stack)-1].Child)
		if err != nil {
			return nil, nil, err
		}
		if ph == nil {
			return nil, nil, fmt.Errorf("catalyst: runtime filter requires a Photon input")
		}
		filters := make([]exec.ProducerFilter, 0, len(stack))
		for i := len(stack) - 1; i >= 0; i-- {
			pf := exec.ProducerFilter{Keys: stack[i].Keys, Producer: stack[i].Producer.ID}
			if b.cfg.RuntimeFilterSource != nil {
				pf.Filter = b.cfg.RuntimeFilterSource(stack[i].Producer.ID)
			}
			filters = append(filters, pf)
		}
		return exec.NewRuntimeFilter(ph, filters), nil, nil

	case *sql.LJoin:
		lph, lrow, err := b.buildHybrid(n.Left)
		if err != nil {
			return nil, nil, err
		}
		rph, rrow, err := b.buildHybrid(n.Right)
		if err != nil {
			return nil, nil, err
		}
		bothPhoton := lph != nil && rph != nil
		if bothPhoton && !unsupported {
			j, err := exec.NewHashJoin(lph, rph, n.LeftKeys, n.RightKeys, exec.JoinType(n.Kind))
			if err != nil {
				return nil, nil, err
			}
			if n.Residual != nil {
				return exec.NewFilter(j, n.Residual), nil, nil
			}
			return j, nil, nil
		}
		lr, err := b.toRow(lph, lrow)
		if err != nil {
			return nil, nil, err
		}
		rr, err := b.toRow(rph, rrow)
		if err != nil {
			return nil, nil, err
		}
		j, err := rowengine.NewShuffledHashJoin(lr, rr, n.LeftKeys, n.RightKeys, rowengine.JoinType(n.Kind), b.cfg.rowMode())
		if err != nil {
			return nil, nil, err
		}
		if n.Residual != nil {
			pred, err := rowengine.CompilePred(n.Residual, b.cfg.rowMode())
			if err != nil {
				return nil, nil, err
			}
			return nil, rowengine.NewFilter(j, pred), nil
		}
		return nil, j, nil
	}
	return nil, nil, fmt.Errorf("catalyst: cannot plan %T", plan)
}

// toRow converts a mixed child into a row operator, inserting the
// column-to-row transition node when the child stayed in Photon (§5.2).
func (b *builder) toRow(ph exec.Operator, row rowengine.Operator) (rowengine.Operator, error) {
	if row != nil {
		return row, nil
	}
	b.transitions++
	return exec.NewTransition(ph, b.tc), nil
}

func sortKeys(keys []sql.SortKeyPlan) []exec.SortKey {
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		out[i] = exec.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return out
}

func rowSortKeys(keys []sql.SortKeyPlan) []rowengine.SortKey {
	out := make([]rowengine.SortKey, len(keys))
	for i, k := range keys {
		out[i] = rowengine.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return out
}

// buildPhotonScan builds the vectorized scan: in-memory tables pass
// batches zero-copy (the adapter path, §5.2); Delta tables prune files via
// statistics, then stream decoded batches.
func (b *builder) buildPhotonScan(n *sql.LScan) (exec.Operator, error) {
	partitionThis := !b.scanSeen && b.cfg.ScanPartitions > 1
	b.scanSeen = true
	var op exec.Operator
	switch t := n.Table.(type) {
	case *catalog.MemTable:
		batches := t.Batches
		if partitionThis {
			batches = pickBatches(batches, b.cfg.ScanPartitions, b.cfg.ScanPartition)
		}
		scan := exec.NewMemScan(t.Sch, batches)
		if n.Projection != nil {
			scan = scan.WithProjection(n.Projection)
		}
		op = scan
	case *catalog.DeltaTable:
		src := b.deltaSource(t, n, partitionThis)
		op = exec.NewSource("DeltaScan("+t.TableName+")", n.Schema(), func() (exec.Source, error) { return src(), nil })
	case *catalog.VirtualTable:
		// Normally pinned to a MemTable snapshot at bind time; this
		// fallback materializes per scan build, which is only safe
		// unpartitioned (partitioned tasks would each snapshot a moving
		// source and disagree on its contents).
		batches := t.Batches()
		if partitionThis {
			batches = pickBatches(batches, b.cfg.ScanPartitions, b.cfg.ScanPartition)
		}
		scan := exec.NewMemScan(t.Sch, batches)
		if n.Projection != nil {
			scan = scan.WithProjection(n.Projection)
		}
		op = scan
	default:
		return nil, fmt.Errorf("catalyst: unsupported table type %T", n.Table)
	}
	if n.Filter != nil {
		op = exec.NewFilter(op, n.Filter)
	}
	return op, nil
}

// buildRowScan is the legacy engine's scan (pivot to rows at the source).
func (b *builder) buildRowScan(n *sql.LScan) (rowengine.Operator, error) {
	partitionThis := !b.scanSeen && b.cfg.ScanPartitions > 1
	b.scanSeen = true
	var op rowengine.Operator
	switch t := n.Table.(type) {
	case *catalog.MemTable:
		batches := t.Batches
		if partitionThis {
			batches = pickBatches(batches, b.cfg.ScanPartitions, b.cfg.ScanPartition)
		}
		if n.Projection != nil {
			batches = projectBatches(batches, n.Projection, n.Schema())
		}
		op = rowengine.NewScan(n.Schema(), batches)
	case *catalog.DeltaTable:
		src := b.deltaSource(t, n, partitionThis)
		op = rowengine.NewBatchScan(n.Schema(), func() (rowengine.BatchSource, error) { return src(), nil })
	case *catalog.VirtualTable:
		batches := t.Batches()
		if partitionThis {
			batches = pickBatches(batches, b.cfg.ScanPartitions, b.cfg.ScanPartition)
		}
		if n.Projection != nil {
			batches = projectBatches(batches, n.Projection, n.Schema())
		}
		op = rowengine.NewScan(n.Schema(), batches)
	default:
		return nil, fmt.Errorf("catalyst: unsupported table type %T", n.Table)
	}
	if n.Filter != nil {
		pred, err := rowengine.CompilePred(n.Filter, b.cfg.rowMode())
		if err != nil {
			return nil, err
		}
		op = rowengine.NewFilter(op, pred)
	}
	return op, nil
}

// projectBatches builds zero-copy projected batch views.
func projectBatches(batches []*vector.Batch, proj []int, schema *types.Schema) []*vector.Batch {
	out := make([]*vector.Batch, len(batches))
	for i, b := range batches {
		vecs := make([]*vector.Vector, len(proj))
		for k, c := range proj {
			vecs[k] = b.Vecs[c]
		}
		out[i] = vector.WrapBatch(schema, vecs, nil, b.NumRows)
	}
	return out
}

// partitionSpec returns (partition, count) for a partitioned scan, or
// (0, 0) for a replicated one.
func (b *builder) partitionSpec(partitionThis bool) [2]int {
	if partitionThis {
		return [2]int{b.cfg.ScanPartition, b.cfg.ScanPartitions}
	}
	return [2]int{0, 0}
}

// pickBatches selects partition p of k (round-robin over batches).
func pickBatches(batches []*vector.Batch, k, p int) []*vector.Batch {
	var out []*vector.Batch
	for i := p; i < len(batches); i += k {
		out = append(out, batches[i])
	}
	return out
}

// deltaSource plans the scan of a Delta table: files pruned by statistics,
// columns projected, in batches of the task's batch size. The returned
// factory yields a fresh stream per Open.
func (b *builder) deltaSource(t *catalog.DeltaTable, n *sql.LScan, partitionThis bool) func() *deltaScan {
	part := b.partitionSpec(partitionThis)
	files := t.Snap.PruneFiles(n.Filter)
	if part[1] > 1 {
		var mine []delta.AddFile
		for i := part[0]; i < len(files); i += part[1] {
			mine = append(mine, files[i])
		}
		files = mine
	}
	var names []string
	if n.Projection != nil {
		for _, c := range n.Projection {
			names = append(names, t.Snap.Schema.Field(c).Name)
		}
	}
	onIO, rows := b.cfg.OnScanIO, b.tc.Pool.BatchSize()
	return func() *deltaScan {
		return &deltaScan{tbl: t.Tbl, files: files, names: names, onIO: onIO, rows: rows}
	}
}

// deltaScan streams a list of data files one after another. At most one
// file is open at a time, and none once the stream has ended, failed or
// been closed. Each file's reader takes over the buffers of the one before,
// so they live as long as the stream, not as long as a file.
type deltaScan struct {
	tbl   *delta.Table
	files []delta.AddFile
	names []string // projected columns; nil = all
	onIO  func(read, decoded int64)
	rows  int // batch size

	next int // index of the next file to open
	cur  *parquet.Reader
	done *parquet.Reader // the last reader closed, whose buffers the next one reuses
}

// Next implements exec.Source and rowengine.BatchSource.
func (s *deltaScan) Next() (*vector.Batch, error) {
	for {
		if s.cur != nil {
			batch, err := s.cur.NextBatch(s.rows)
			if batch != nil {
				return batch, nil
			}
			s.Close()
			if err != nil {
				return nil, err
			}
		}
		if s.next >= len(s.files) {
			return nil, nil
		}
		r, err := s.tbl.OpenDataFile(&s.files[s.next])
		s.next++
		if err != nil {
			return nil, err
		}
		s.cur = r
		if s.names != nil {
			if err := r.Project(s.names); err != nil {
				s.Close()
				return nil, err
			}
		}
		r.Reuse(s.done)
		s.done = nil
	}
}

// Close releases the open file, if any, and reports what was read from it.
func (s *deltaScan) Close() error {
	r := s.cur
	s.cur = nil
	if r == nil {
		return nil
	}
	if s.onIO != nil {
		s.onIO(r.IO())
	}
	s.done = r
	return r.Close()
}

// buildRow plans the whole query on the row engine (the DBR baseline).
func (b *builder) buildRow(plan sql.LogicalPlan) (rowengine.Operator, error) {
	saved := b.cfg.PhotonUnsupported
	b.cfg.PhotonUnsupported = map[string]bool{
		"scan": true, "filter": true, "project": true, "aggregate": true,
		"join": true, "sort": true, "limit": true,
	}
	defer func() { b.cfg.PhotonUnsupported = saved }()
	ph, row, err := b.buildHybrid(plan)
	if err != nil {
		return nil, err
	}
	if row == nil {
		return b.toRow(ph, nil)
	}
	return row, nil
}

// BuildOperator plans a fragment as the operator tree one task runs. A plan
// whose top is on the row engine — a baseline-engine plan, or a hybrid one
// whose fallback reaches the root — is wrapped in an adapter, so the root is
// always an exec.Operator; tc.Transitions records the plan's engine
// boundaries.
func BuildOperator(plan sql.LogicalPlan, cfg Config, tc *exec.TaskCtx) (exec.Operator, error) {
	b := &builder{cfg: cfg, tc: tc}
	var ph exec.Operator
	var row rowengine.Operator
	var err error
	if cfg.Engine == EnginePhoton {
		ph, row, err = b.buildHybrid(plan)
	} else {
		row, err = b.buildRow(plan)
	}
	if err != nil {
		return nil, err
	}
	tc.Transitions = b.transitions
	if ph == nil {
		return exec.NewAdapter(row), nil
	}
	return ph, nil
}
