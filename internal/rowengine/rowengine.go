// Package rowengine is the baseline execution engine standing in for the
// JVM-based Databricks Runtime (Spark SQL) that the paper compares Photon
// against (§3.2, §6). It reproduces the baseline's cost profile
// mechanism-for-mechanism:
//
//   - rows are boxed ([]any), paying allocation and dynamic-type dispatch
//     per value, like Java object rows / UnsafeRow accessors;
//   - operators are row-at-a-time Volcano iterators. Expressions run as
//     closure chains built once per query (Compiled mode, standing in for
//     whole-stage code generation: no per-row tree walk, as with codegen),
//     or are lowered again each time a row reaches a node (Interpreted
//     mode: a per-row walk with a node-kind switch per node, which also
//     allocates the node's closures on every row — a cost Spark's
//     interpreted path does not pay, so an Interpreted ratio overstates
//     the tree walk's);
//   - decimal arithmetic routes through math/big (the Java BigDecimal
//     analogue) regardless of precision, which is what makes TPC-H Q1
//     Photon's best case (§6.2);
//   - collect_list appends to boxed slices (the Scala-collections analogue
//     of Fig. 5);
//   - the engine's scan pivots columnar batches to rows, the pivot Spark
//     performs when reading columnar formats.
package rowengine

import (
	"photon/internal/types"
	"photon/internal/vector"
)

// Operator is a row-at-a-time Volcano iterator. NextRow returns nil at end
// of input. The returned slice is only valid until the next call.
type Operator interface {
	Schema() *types.Schema
	Open() error
	NextRow() ([]any, error)
	Close() error
}

// Mode selects the baseline's execution strategy.
type Mode uint8

const (
	// Interpreted lowers each expression node again for every row that
	// reaches it, so a row walks the tree and dispatches on node kind, the
	// Volcano fallback path Spark uses when codegen bails out (§3.2). Each
	// lowering allocates the node's closure and a thunk per child, which
	// Spark's interpreter does not. It runs under EngineDBRInterpreted
	// (photon-sql -engine dbr-interpreted, and the reference runs of the
	// golden digests and the oracle tests) and, whatever the mode, for
	// collect_list's argument (HashAgg: the DBR side of Fig. 5).
	Interpreted Mode = iota
	// Compiled pre-builds closure chains per expression, standing in for
	// whole-stage code generation.
	Compiled
)

// Scan pivots column batches to rows.
type Scan struct {
	schema  *types.Schema
	batches []*vector.Batch
	pos     int
	rowIdx  int
	row     []any
}

// NewScan builds a scan over batches.
func NewScan(schema *types.Schema, batches []*vector.Batch) *Scan {
	return &Scan{schema: schema, batches: batches}
}

// Schema implements Operator.
func (s *Scan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *Scan) Open() error {
	s.pos, s.rowIdx = 0, 0
	if s.row == nil {
		s.row = make([]any, s.schema.Len())
	}
	return nil
}

// NextRow implements Operator: the column-to-row pivot happens here.
func (s *Scan) NextRow() ([]any, error) {
	for {
		if s.pos >= len(s.batches) {
			return nil, nil
		}
		b := s.batches[s.pos]
		if s.rowIdx >= b.NumRows {
			s.pos++
			s.rowIdx = 0
			continue
		}
		i := s.rowIdx
		s.rowIdx++
		for c, v := range b.Vecs {
			s.row[c] = v.Get(i) // boxes every value
		}
		return s.row, nil
	}
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// Filter drops rows failing a predicate.
type Filter struct {
	child Operator
	pred  RowPred
}

// NewFilter builds a filter.
func NewFilter(child Operator, pred RowPred) *Filter {
	return &Filter{child: child, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.child.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.child.Open() }

// NextRow implements Operator.
func (f *Filter) NextRow() ([]any, error) {
	for {
		row, err := f.child.NextRow()
		if err != nil || row == nil {
			return nil, err
		}
		ok, err := f.pred(row)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.child.Close() }

// Project evaluates row expressions.
type Project struct {
	child  Operator
	exprs  []RowExpr
	schema *types.Schema
	out    []any
}

// NewProject builds a projection with the given output schema.
func NewProject(child Operator, exprs []RowExpr, schema *types.Schema) *Project {
	return &Project{child: child, exprs: exprs, schema: schema}
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error {
	p.out = make([]any, len(p.exprs))
	return p.child.Open()
}

// NextRow implements Operator.
func (p *Project) NextRow() ([]any, error) {
	row, err := p.child.NextRow()
	if err != nil || row == nil {
		return nil, err
	}
	for i, e := range p.exprs {
		v, err := e(row)
		if err != nil {
			return nil, err
		}
		p.out[i] = v
	}
	return p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Limit passes the first n rows.
type Limit struct {
	child Operator
	n     int64
	seen  int64
}

// NewLimit builds LIMIT n.
func NewLimit(child Operator, n int64) *Limit { return &Limit{child: child, n: n} }

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.child.Schema() }

// Open implements Operator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.child.Open()
}

// NextRow implements Operator.
func (l *Limit) NextRow() ([]any, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	row, err := l.child.NextRow()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }

// CollectRows drains an operator (test/result helper). Rows are copied.
func CollectRows(op Operator) ([][]any, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out [][]any
	for {
		row, err := op.NextRow()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, append([]any(nil), row...))
	}
}
