package exec

import (
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"slices"

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
//
// A sort bounded to k rows (ORDER BY … LIMIT k) keeps at most k rows of each
// input batch and, once it has k rows at or before one row (its k-th), only
// the rows that sort before that; it sorts its buffer and cuts it to k rows
// whenever it holds more than max(2k, one batch), and emits at most k rows.
type SortOp struct {
	base
	child Operator
	keys  []SortKey
	limit int // the row bound; -1 for none

	buffered []*vector.Batch
	bufBytes int64
	held     int           // rows in the buffer
	rows     int           // rows kept, then rows left to emit: bounds the output batch
	kth      *vector.Batch // with kthRow, a row with k kept rows at or before it
	kthRow   int
	sel      []int32 // take's scratch
	consumer *mem.FuncConsumer

	runs spillRuns

	inputDone bool
	merge     *rowMerge
	out       *vector.Batch
}

// NewSort builds a sort operator.
func NewSort(child Operator, keys []SortKey) *SortOp {
	s := &SortOp{child: child, keys: keys, limit: -1}
	s.schema = child.Schema()
	s.stats.Name = "Sort"
	return s
}

// NewSortLimit builds a sort that emits only its first k rows, which reports
// as TopK(k).
func NewSortLimit(child Operator, keys []SortKey, k int) *SortOp {
	s := NewSort(child, keys)
	s.limit = k
	s.stats.Name = fmt.Sprintf("TopK(%d)", k)
	return s
}

// Open implements Operator.
func (s *SortOp) Open(tc *TaskCtx) error {
	s.tc = tc
	s.consumer = &mem.FuncConsumer{ConsumerName: "Sort", SpillFunc: s.spill}
	s.inputDone = false
	s.buffered, s.kth = nil, nil
	s.bufBytes = 0
	s.held, s.rows = 0, 0
	return s.child.Open(tc)
}

// rowRefs lists the active rows of batches as (batchIdx, rowIdx) pairs, in
// order.
func rowRefs(batches []*vector.Batch) [][2]int32 {
	n := 0
	for _, b := range batches {
		n += b.NumActive()
	}
	refs := make([][2]int32, 0, n)
	for bi, b := range batches {
		n := b.NumActive()
		for k := 0; k < n; k++ {
			refs = append(refs, [2]int32{int32(bi), int32(b.RowIndex(k))})
		}
	}
	return refs
}

// sortedRowOrder returns the buffered rows in order as (batchIdx, rowIdx)
// pairs, only the first limit of them when limit is not negative. Rows with
// equal keys keep the order they were buffered in, as in a stable sort.
func sortedRowOrder(buffered []*vector.Batch, keys []SortKey, limit int) [][2]int32 {
	order := rowRefs(buffered)
	byKey := func(a, b [2]int32) int {
		if c := compareBatchRows(buffered[a[0]], int(a[1]), buffered[b[0]], int(b[1]), keys); c != 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	}
	if limit >= 0 && limit < len(order) {
		selectFirst(order, limit, byKey)
		order = order[:limit]
	}
	slices.SortFunc(order, byKey)
	return order
}

// selectFirst moves the k smallest refs under the total order cmp to the
// front, in no particular order (Hoare's selection), so that a bounded sort
// sorts and copies only the rows it keeps.
func selectFirst[T any](refs []T, k int, cmp func(a, b T) int) {
	lo, hi := 0, len(refs)-1
	for lo < hi {
		p := refs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for cmp(refs[i], p) < 0 {
				i++
			}
			for cmp(refs[j], p) > 0 {
				j--
			}
			if i <= j {
				refs[i], refs[j] = refs[j], refs[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case k-1 <= j:
			hi = j
		case k-1 >= i:
			lo = i
		default:
			return
		}
	}
}

// spill sorts the current buffer, cut to the row bound, and writes it as a
// run.
func (s *SortOp) spill(need int64) (int64, error) {
	if len(s.buffered) == 0 || !s.tc.CanSpill() {
		return 0, nil
	}
	run, err := newSpillRun(s.tc, "sort-run")
	if err != nil {
		return 0, err
	}
	s.runs = append(s.runs, run)
	order, step := sortedRowOrder(s.buffered, s.keys, s.limit), s.tc.Pool.BatchSize()
	out := vector.NewBatch(s.schema, min(step, len(order)))
	for lo := 0; lo < len(order); lo += step {
		s.gather(out, order[lo:min(lo+step, len(order))])
		if err := run.write(out); err != nil {
			return 0, err
		}
	}
	if err := run.finish(); err != nil {
		return 0, err
	}
	freed := s.bufBytes
	s.tc.Mem.Release(s.consumer, s.bufBytes)
	s.buffered, s.kth = nil, nil
	s.bufBytes, s.held = 0, 0
	s.stats.SpillCount.Add(1)
	s.stats.SpillBytes.Add(freed)
	return freed, nil
}

// take buffers one input batch's active rows. Under a row bound of k it
// keeps only those that sort before the k-th row and, of those, the batch's
// own first k: any other row has k rows before it. The k-th of those, if it
// has k, becomes the k-th row.
func (s *SortOp) take(b *vector.Batch) (bool, error) {
	if b.NumActive() == 0 {
		return true, nil
	}
	kthRow := -1
	if s.limit >= 0 && (s.kth != nil || b.NumActive() > s.limit) {
		s.sel = slices.Grow(s.sel[:0], b.NumActive())
		apply(b.Sel, b.NumRows, func(i int32) {
			if s.kth == nil || compareBatchRows(b, int(i), s.kth, s.kthRow, s.keys) < 0 {
				s.sel = append(s.sel, i)
			}
		})
		if len(s.sel) >= s.limit {
			selectFirst(s.sel, s.limit, func(x, y int32) int {
				return cmp.Or(compareBatchRows(b, int(x), b, int(y), s.keys), cmp.Compare(x, y))
			})
			kth := s.sel[s.limit-1]
			s.sel = s.sel[:s.limit]
			slices.Sort(s.sel)
			kthRow, _ = slices.BinarySearch(s.sel, kth)
		}
		if len(s.sel) == 0 {
			return true, nil
		}
		saved := b.Sel
		defer func() { b.Sel = saved }()
		b.Sel = s.sel
	}
	cl := b.Keep()
	s.rows += cl.NumRows
	sz := estimateBatchBytes(cl)
	if err := s.tc.Mem.Reserve(s.consumer, sz); err != nil {
		return false, err
	}
	// A self-spill inside Reserve may have flushed the buffer; the new
	// batch still joins the (possibly empty) buffer.
	s.buffered = append(s.buffered, cl)
	s.bufBytes += sz
	s.held += cl.NumRows
	s.stats.observePeak(s.bufBytes)
	if kthRow >= 0 {
		s.kth, s.kthRow = cl, kthRow
	}
	// Cut above max(2k, one batch) rows, written so that no k overflows.
	if s.limit >= 0 && s.held-s.limit > max(s.limit, s.tc.Pool.BatchSize()-s.limit) {
		s.cut()
	}
	return true, nil
}

// gather refills out with the buffered rows order names; their strings still
// point into the buffer.
func (s *SortOp) gather(out *vector.Batch, order [][2]int32) {
	out.Reset()
	for _, ref := range order {
		src, i := s.buffered[ref[0]], out.NumRows
		for c, v := range src.Vecs {
			out.Vecs[c].CopyRow(i, v, int(ref[1]))
		}
		out.NumRows++
	}
}

// cut replaces the buffer with its first k rows in order, the last of
// which becomes the k-th row.
func (s *SortOp) cut() {
	order := sortedRowOrder(s.buffered, s.keys, s.limit)
	kth := vector.NewBatch(s.schema, len(order))
	s.gather(kth, order)
	kth.OwnStrings(0, make([]byte, 0, kth.StringBytes()))
	sz := estimateBatchBytes(kth)
	s.tc.Mem.Release(s.consumer, s.bufBytes-sz)
	s.buffered, s.kth, s.kthRow = append(s.buffered[:0], kth), kth, kth.NumRows-1
	s.bufBytes, s.held = sz, kth.NumRows
}

// Next implements Operator.
func (s *SortOp) Next() (*vector.Batch, error) {
	var out *vector.Batch
	err := s.timed(func() error {
		if !s.inputDone {
			if s.limit != 0 {
				if err := drain(s.tc, &s.stats, s.child.Next, s.take); err != nil {
					return err
				}
			}
			s.inputDone = true
			if s.limit >= 0 {
				s.rows = min(s.rows, s.limit)
			}
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
		cursors = append(cursors, &refCursor{batches: s.buffered, refs: sortedRowOrder(s.buffered, s.keys, s.limit), pos: -1})
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
	want := min(s.tc.Pool.BatchSize(), s.rows)
	if s.out == nil {
		s.out = vector.NewBatch(s.schema, want)
	}
	s.out.Reset()
	for s.out.NumRows < want && s.merge.Len() > 0 {
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
	s.rows -= s.out.NumRows
	return s.out, nil
}

// Close implements Operator.
func (s *SortOp) Close() error {
	s.tc.Mem.ReleaseAll(s.consumer)
	s.runs.remove()
	s.runs = nil
	return s.child.Close()
}

// LimitOp passes through the first N rows. It counts the rows it takes and
// the batches it passes, but is untimed: its Next is its child's.
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
	l.stats.RowsIn.Add(act)
	l.stats.BatchesOut.Add(1)
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
