package exec

import (
	"bytes"
	"container/heap"
	"fmt"
	"sort"

	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// SortKey orders by one column. NULLs sort first ascending, last descending
// (Spark semantics).
type SortKey struct {
	Col  int
	Desc bool
}

// compareVecRows compares column values at (va, i) vs (vb, j): -1/0/1 with
// NULLs smallest.
func compareVecRows(va *vector.Vector, i int, vb *vector.Vector, j int) int {
	an, bn := va.Nulls[i] != 0, vb.Nulls[j] != 0
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	switch va.Type.ID {
	case types.Bool:
		return int(va.Bool[i]) - int(vb.Bool[j])
	case types.Int32, types.Date:
		a, b := va.I32[i], vb.I32[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case types.Int64, types.Timestamp:
		a, b := va.I64[i], vb.I64[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case types.Float64:
		a, b := va.F64[i], vb.F64[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case types.Decimal:
		return va.Dec[i].Cmp(vb.Dec[j])
	case types.String:
		return bytes.Compare(va.Str[i], vb.Str[j])
	}
	return 0
}

// compareBatchRows applies the sort keys to rows of two batches.
func compareBatchRows(a *vector.Batch, i int, b *vector.Batch, j int, keys []SortKey) int {
	for _, k := range keys {
		c := compareVecRows(a.Vecs[k.Col], i, b.Vecs[k.Col], j)
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// estimateBatchBytes approximates a batch's retained footprint.
func estimateBatchBytes(b *vector.Batch) int64 {
	var total int64
	for _, v := range b.Vecs {
		w := v.Type.FixedWidth()
		if w == 0 {
			w = 16
			for i := 0; i < b.NumRows; i++ {
				total += int64(len(v.Str[i]))
			}
		}
		total += int64(w+1) * int64(b.NumRows)
	}
	return total
}

// SortOp is an external merge sort: input batches buffer in memory under a
// reservation; on pressure the buffer is sorted and written as a run, and
// output merges the in-memory buffer with all runs.
type SortOp struct {
	base
	child Operator
	keys  []SortKey

	buffered []*vector.Batch
	bufBytes int64
	rows     int // rows consumed, which bounds the output batch
	consumer *mem.FuncConsumer

	runs spillRuns

	inputDone bool
	merge     *rowMerge
	out       *vector.Batch
}

// NewSort builds a sort operator.
func NewSort(child Operator, keys []SortKey) *SortOp {
	s := &SortOp{child: child, keys: keys}
	s.schema = child.Schema()
	s.stats.Name = "Sort"
	return s
}

// Open implements Operator.
func (s *SortOp) Open(tc *TaskCtx) error {
	s.tc = tc
	s.consumer = &mem.FuncConsumer{ConsumerName: "Sort", SpillFunc: s.spill}
	s.inputDone = false
	s.buffered = nil
	s.bufBytes = 0
	s.rows = 0
	return s.child.Open(tc)
}

// rowRefs lists the active rows of batches as (batchIdx, rowIdx) pairs, in
// order.
func rowRefs(batches []*vector.Batch) [][2]int32 {
	var refs [][2]int32
	for bi, b := range batches {
		n := b.NumActive()
		for k := 0; k < n; k++ {
			refs = append(refs, [2]int32{int32(bi), int32(b.RowIndex(k))})
		}
	}
	return refs
}

// sortedRowOrder sorts the buffered rows and returns (batchIdx, rowIdx)
// pairs in order.
func sortedRowOrder(buffered []*vector.Batch, keys []SortKey) [][2]int32 {
	order := rowRefs(buffered)
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		return compareBatchRows(buffered[a[0]], int(a[1]), buffered[b[0]], int(b[1]), keys) < 0
	})
	return order
}

// spill sorts the current buffer and writes it as a run.
func (s *SortOp) spill(need int64) (int64, error) {
	if len(s.buffered) == 0 || !s.tc.CanSpill() {
		return 0, nil
	}
	run, err := newSpillRun(s.tc, "sort-run")
	if err != nil {
		return 0, err
	}
	s.runs = append(s.runs, run)
	order := sortedRowOrder(s.buffered, s.keys)
	out := vector.NewBatch(s.schema, min(s.tc.Pool.BatchSize(), len(order)))
	for k, ref := range order {
		src := s.buffered[ref[0]]
		i := out.NumRows
		for c, v := range src.Vecs {
			out.Vecs[c].CopyRow(i, v, int(ref[1]))
		}
		out.NumRows++
		if out.NumRows == out.Capacity() || k == len(order)-1 {
			if err := run.write(out); err != nil {
				return 0, err
			}
			out.Reset()
		}
	}
	if err := run.finish(); err != nil {
		return 0, err
	}
	freed := s.bufBytes
	s.tc.Mem.Release(s.consumer, s.bufBytes)
	s.buffered = nil
	s.bufBytes = 0
	s.stats.SpillCount.Add(1)
	s.stats.SpillBytes.Add(freed)
	return freed, nil
}

// consume drains the child into the buffer.
func (s *SortOp) consume() error {
	for {
		// Batch-boundary cancellation check (sort input drain).
		if err := s.tc.Cancelled(); err != nil {
			return err
		}
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		s.stats.RowsIn.Add(int64(b.NumActive()))
		s.tc.ReportProgress(int64(b.NumActive()), 0)
		if b.NumActive() == 0 {
			continue
		}
		cl := b.Keep()
		s.rows += cl.NumRows
		sz := estimateBatchBytes(cl)
		if err := s.tc.Mem.Reserve(s.consumer, sz); err != nil {
			return err
		}
		// A self-spill inside Reserve may have flushed the buffer; the new
		// batch still joins the (possibly empty) buffer.
		s.buffered = append(s.buffered, cl)
		s.bufBytes += sz
		s.stats.observePeak(s.bufBytes)
	}
}

// Next implements Operator.
func (s *SortOp) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := s.timed(func() error {
		if !s.inputDone {
			if err := s.consume(); err != nil {
				return err
			}
			s.inputDone = true
			if err := s.initMerge(); err != nil {
				return err
			}
		}
		var err error
		out, err = s.emit()
		return err
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		s.stats.RowsOut.Add(int64(out.NumRows))
		s.stats.BatchesOut.Add(1)
	}
	return out, nil
}

// rowCursor walks sorted rows. next moves to the next row, false past the
// last; row returns the row under the cursor, valid until the next move.
// Strings copied out of a run's row keep their bytes after the cursor moves
// on: a run reads each block into a buffer of its own.
type rowCursor interface {
	next() (bool, error)
	row() (*vector.Batch, int)
}

// refCursor walks in-memory rows through (batchIdx, rowIdx) references. It
// starts at pos -1.
type refCursor struct {
	batches []*vector.Batch
	refs    [][2]int32
	pos     int
}

func (c *refCursor) next() (bool, error) {
	c.pos++
	return c.pos < len(c.refs), nil
}

func (c *refCursor) row() (*vector.Batch, int) {
	ref := c.refs[c.pos]
	return c.batches[ref[0]], int(ref[1])
}

// runCursor walks the rows of a spill run, one block at a time.
type runCursor struct {
	run *spillRun
	b   *vector.Batch // the block being walked
	i   int
}

func (c *runCursor) next() (bool, error) {
	for c.i++; c.i >= c.b.NumRows; c.i = 0 {
		if ok, err := c.run.read(c.b); !ok {
			return false, err
		}
	}
	return true, nil
}

func (c *runCursor) row() (*vector.Batch, int) { return c.b, c.i }

// rowMerge k-way merges sorted cursors through one heap; cur[0] holds the
// smallest row. Cursors enter the heap in the order given, which fixes how
// ties between them break.
type rowMerge struct {
	keys []SortKey
	cur  []rowCursor
}

// newRowMerge moves each cursor to its first row and starts the merge;
// exhausted cursors drop out.
func newRowMerge(keys []SortKey, cursors []rowCursor) (*rowMerge, error) {
	m := &rowMerge{keys: keys}
	for _, c := range cursors {
		ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.cur = append(m.cur, c)
		}
	}
	heap.Init(m)
	return m, nil
}

// advance moves the cursor holding the smallest row past it.
func (m *rowMerge) advance() error {
	ok, err := m.cur[0].next()
	if err != nil {
		return err
	}
	if ok {
		heap.Fix(m, 0)
	} else {
		heap.Pop(m)
	}
	return nil
}

func (m *rowMerge) Len() int { return len(m.cur) }
func (m *rowMerge) Less(x, y int) bool {
	ba, ia := m.cur[x].row()
	bb, ib := m.cur[y].row()
	return compareBatchRows(ba, ia, bb, ib, m.keys) < 0
}
func (m *rowMerge) Swap(x, y int) { m.cur[x], m.cur[y] = m.cur[y], m.cur[x] }
func (m *rowMerge) Push(x any)    { m.cur = append(m.cur, x.(rowCursor)) }
func (m *rowMerge) Pop() any {
	x := m.cur[len(m.cur)-1]
	m.cur = m.cur[:len(m.cur)-1]
	return x
}

// initMerge prepares output iteration over the buffer, then the runs in the
// order they were spilled.
func (s *SortOp) initMerge() error {
	var cursors []rowCursor
	if len(s.buffered) > 0 {
		cursors = append(cursors, &refCursor{batches: s.buffered, refs: sortedRowOrder(s.buffered, s.keys), pos: -1})
	}
	for _, run := range s.runs {
		cursors = append(cursors, &runCursor{run: run, b: vector.NewBatch(s.schema, s.tc.Pool.BatchSize())})
	}
	var err error
	s.merge, err = newRowMerge(s.keys, cursors)
	return err
}

// emit produces the next sorted output batch from the merge. The merge loop
// checks cancellation per emitted batch, so a cancelled query aborts a giant
// merge promptly even when the consumer isn't polling the context.
func (s *SortOp) emit() (*vector.Batch, error) {
	if err := s.tc.Cancelled(); err != nil {
		return nil, err
	}
	if s.out == nil {
		s.out = vector.NewBatch(s.schema, min(s.tc.Pool.BatchSize(), s.rows))
	}
	s.out.Reset()
	for s.out.NumRows < s.out.Capacity() && s.merge.Len() > 0 {
		b, i := s.merge.cur[0].row()
		o := s.out.NumRows
		for c, v := range b.Vecs {
			s.out.Vecs[c].CopyRow(o, v, i)
		}
		s.out.NumRows++
		if err := s.merge.advance(); err != nil {
			return nil, err
		}
	}
	if s.out.NumRows == 0 {
		return nil, nil
	}
	return s.out, nil
}

// Close implements Operator.
func (s *SortOp) Close() error {
	s.tc.Mem.ReleaseAll(s.consumer)
	s.runs.remove()
	s.runs = nil
	return s.child.Close()
}

// TopKOp keeps the K smallest rows under the sort keys (ORDER BY + LIMIT).
type TopKOp struct {
	base
	child Operator
	keys  []SortKey
	k     int

	rows    *topkHeap
	emitted bool
	out     *vector.Batch
}

// topkHeap is a max-heap of materialized rows (worst row at the top).
type topkHeap struct {
	schema *types.Schema
	keys   []SortKey
	batch  *vector.Batch // storage: one slot per held row
	idx    []int32       // heap order over batch slots
}

func (h *topkHeap) Len() int { return len(h.idx) }
func (h *topkHeap) Less(x, y int) bool {
	// Max-heap: "greater" rows bubble to the top.
	return compareBatchRows(h.batch, int(h.idx[x]), h.batch, int(h.idx[y]), h.keys) > 0
}
func (h *topkHeap) Swap(x, y int) { h.idx[x], h.idx[y] = h.idx[y], h.idx[x] }
func (h *topkHeap) Push(x any)    { h.idx = append(h.idx, x.(int32)) }
func (h *topkHeap) Pop() any {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// NewTopK builds a top-K operator (k > 0).
func NewTopK(child Operator, keys []SortKey, k int) (*TopKOp, error) {
	if k <= 0 {
		return nil, fmt.Errorf("exec: TopK requires k > 0, got %d", k)
	}
	t := &TopKOp{child: child, keys: keys, k: k}
	t.schema = child.Schema()
	t.stats.Name = fmt.Sprintf("TopK(%d)", k)
	return t, nil
}

// Open implements Operator.
func (t *TopKOp) Open(tc *TaskCtx) error {
	t.tc = tc
	t.emitted = false
	t.rows = &topkHeap{
		schema: t.schema,
		keys:   t.keys,
		batch:  vector.NewBatch(t.schema, t.k+1),
	}
	return t.child.Open(tc)
}

// Next implements Operator.
func (t *TopKOp) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := t.timed(func() error {
		if !t.emitted {
			if err := t.consume(); err != nil {
				return err
			}
			t.emitted = true
			out = t.materialize()
			return nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out != nil {
		t.stats.RowsOut.Add(int64(out.NumRows))
		t.stats.BatchesOut.Add(1)
	}
	return out, nil
}

func (t *TopKOp) consume() error {
	h := t.rows
	free := []int32{}
	for s := 0; s <= t.k; s++ {
		free = append(free, int32(s))
	}
	// Pop slots from free as rows are held; returned when evicted.
	take := func() int32 {
		s := free[len(free)-1]
		free = free[:len(free)-1]
		return s
	}
	for {
		b, err := t.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		t.stats.RowsIn.Add(int64(b.NumActive()))
		n := b.NumActive()
		for r := 0; r < n; r++ {
			i := b.RowIndex(r)
			if h.Len() == t.k {
				// Compare against the current worst; skip if not better.
				worst := h.idx[0]
				if compareBatchRows(b, i, h.batch, int(worst), t.keys) >= 0 {
					continue
				}
				heap.Pop(h)
				free = append(free, worst)
			}
			slot := take()
			for c, v := range b.Vecs {
				h.batch.Vecs[c].CopyRow(int(slot), v, i)
				// Deep-copy strings: the source batch will be reused.
				if v.Type.ID == types.String && h.batch.Vecs[c].Nulls[slot] == 0 {
					h.batch.Vecs[c].Str[slot] = append([]byte(nil), h.batch.Vecs[c].Str[slot]...)
				}
			}
			heap.Push(h, slot)
		}
	}
}

// materialize pops the heap into ascending order.
func (t *TopKOp) materialize() *vector.Batch {
	h := t.rows
	n := h.Len()
	slots := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		slots[i] = heap.Pop(h).(int32)
	}
	out := vector.NewBatch(t.schema, max(n, 1))
	for _, s := range slots {
		o := out.NumRows
		for c := range out.Vecs {
			out.Vecs[c].CopyRow(o, h.batch.Vecs[c], int(s))
		}
		out.NumRows++
	}
	if out.NumRows == 0 {
		return nil
	}
	return out
}

// Close implements Operator.
func (t *TopKOp) Close() error { return t.child.Close() }

// LimitOp passes through the first N rows.
type LimitOp struct {
	base
	child Operator
	n     int64
	seen  int64
}

// NewLimit builds LIMIT n.
func NewLimit(child Operator, n int64) *LimitOp {
	l := &LimitOp{child: child, n: n}
	l.schema = child.Schema()
	l.stats.Name = fmt.Sprintf("Limit(%d)", n)
	return l
}

// Open implements Operator.
func (l *LimitOp) Open(tc *TaskCtx) error {
	l.tc = tc
	l.seen = 0
	return l.child.Open(tc)
}

// Next implements Operator.
func (l *LimitOp) Next() (*vector.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	act := int64(b.NumActive())
	if l.seen+act <= l.n {
		l.seen += act
		l.stats.RowsOut.Add(act)
		return b, nil
	}
	// Truncate the batch's selection to the remaining quota.
	keep := l.n - l.seen
	sel := make([]int32, 0, keep)
	for i := 0; int64(i) < keep; i++ {
		sel = append(sel, int32(b.RowIndex(i)))
	}
	b.SetSel(sel)
	l.seen = l.n
	l.stats.RowsOut.Add(keep)
	return b, nil
}

// Close implements Operator.
func (l *LimitOp) Close() error { return l.child.Close() }
