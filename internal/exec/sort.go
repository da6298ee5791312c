package exec

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"os"
	"sort"

	"photon/internal/fault"
	"photon/internal/mem"
	"photon/internal/serde"
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
	consumer *mem.FuncConsumer

	runs []*os.File

	inputDone bool
	merge     *mergeHeap
	memIter   *memCursor
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
	return s.child.Open(tc)
}

// sortedRowOrder sorts the buffered rows and returns (batchIdx, rowIdx)
// pairs in order.
func sortedRowOrder(buffered []*vector.Batch, keys []SortKey) [][2]int32 {
	var order [][2]int32
	for bi, b := range buffered {
		n := b.NumActive()
		for k := 0; k < n; k++ {
			order = append(order, [2]int32{int32(bi), int32(b.RowIndex(k))})
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		return compareBatchRows(buffered[a[0]], int(a[1]), buffered[b[0]], int(b[1]), keys) < 0
	})
	return order
}

// spill sorts the current buffer and writes it as a run file.
func (s *SortOp) spill(need int64) (int64, error) {
	if len(s.buffered) == 0 || !s.tc.CanSpill() {
		return 0, nil
	}
	f, err := s.tc.NewSpillFile("sort-run")
	if err != nil {
		return 0, err
	}
	w := serde.NewWriter(f)
	order := sortedRowOrder(s.buffered, s.keys)
	out := vector.NewBatch(s.schema, s.tc.Pool.BatchSize())
	for _, ref := range order {
		src := s.buffered[ref[0]]
		i := out.NumRows
		for c, v := range src.Vecs {
			out.Vecs[c].CopyRow(i, v, int(ref[1]))
		}
		out.NumRows++
		if out.NumRows == out.Capacity() {
			if err := w.WriteBatch(out); err != nil {
				return 0, fault.ClassifyIO(fault.SpillWrite, err)
			}
			out.Reset()
		}
	}
	if out.NumRows > 0 {
		if err := w.WriteBatch(out); err != nil {
			return 0, fault.ClassifyIO(fault.SpillWrite, err)
		}
	}
	if err := w.Close(); err != nil {
		return 0, fault.ClassifyIO(fault.SpillWrite, err)
	}
	s.runs = append(s.runs, f)
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
		cl := b.Clone()
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

// memCursor iterates the sorted in-memory buffer.
type memCursor struct {
	buffered []*vector.Batch
	order    [][2]int32
	pos      int
}

func (m *memCursor) current() (*vector.Batch, int) {
	ref := m.order[m.pos]
	return m.buffered[ref[0]], int(ref[1])
}

// runCursor streams one spilled run.
type runCursor struct {
	rd    *serde.Reader
	batch *vector.Batch
	pos   int
	done  bool
	tc    *TaskCtx
}

func (rc *runCursor) advance() error {
	rc.pos++
	if rc.pos < rc.batch.NumRows {
		return nil
	}
	ok, err := rc.tc.readSpill(rc.rd, rc.batch)
	rc.pos, rc.done = 0, !ok
	return err
}

// mergeHeap merges the memory cursor and run cursors.
type mergeHeap struct {
	keys []SortKey
	mem  *memCursor
	runs []*runCursor
	// items: -1 = memory cursor, else run index.
	items []int
}

func (h *mergeHeap) rowOf(item int) (*vector.Batch, int) {
	if item == -1 {
		return h.mem.current()
	}
	rc := h.runs[item]
	return rc.batch, rc.pos
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(x, y int) bool {
	ba, ia := h.rowOf(h.items[x])
	bb, ib := h.rowOf(h.items[y])
	return compareBatchRows(ba, ia, bb, ib, h.keys) < 0
}
func (h *mergeHeap) Swap(x, y int) { h.items[x], h.items[y] = h.items[y], h.items[x] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(int)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// initMerge prepares output iteration over buffer + runs.
func (s *SortOp) initMerge() error {
	s.merge = &mergeHeap{keys: s.keys}
	if len(s.buffered) > 0 {
		s.memIter = &memCursor{buffered: s.buffered, order: sortedRowOrder(s.buffered, s.keys)}
		if len(s.memIter.order) > 0 {
			s.merge.items = append(s.merge.items, -1)
			s.merge.mem = s.memIter
		}
	}
	for ri, f := range s.runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		rc := &runCursor{rd: serde.NewReader(f, s.schema), batch: vector.NewBatch(s.schema, s.tc.Pool.BatchSize()), pos: -1, tc: s.tc}
		if err := rc.advance(); err != nil {
			return err
		}
		if !rc.done {
			s.merge.runs = append(s.merge.runs, rc)
			s.merge.items = append(s.merge.items, len(s.merge.runs)-1)
		} else {
			_ = ri
		}
	}
	heap.Init(s.merge)
	return nil
}

// emit produces the next sorted output batch from the merge heap. The merge
// loop checks cancellation per emitted batch, so a cancelled query aborts a
// giant merge promptly even when the consumer isn't polling the context.
func (s *SortOp) emit() (*vector.Batch, error) {
	if err := s.tc.Cancelled(); err != nil {
		return nil, err
	}
	if s.out == nil {
		s.out = vector.NewBatch(s.schema, s.tc.Pool.BatchSize())
	}
	s.out.Reset()
	for s.out.NumRows < s.out.Capacity() && s.merge.Len() > 0 {
		item := s.merge.items[0]
		b, i := s.merge.rowOf(item)
		o := s.out.NumRows
		for c, v := range b.Vecs {
			s.out.Vecs[c].CopyRow(o, v, i)
		}
		s.out.NumRows++
		// Advance the winning cursor and restore heap order.
		exhausted := false
		if item == -1 {
			s.memIter.pos++
			exhausted = s.memIter.pos >= len(s.memIter.order)
		} else {
			rc := s.merge.runs[item]
			if err := rc.advance(); err != nil {
				return nil, err
			}
			exhausted = rc.done
		}
		if exhausted {
			heap.Pop(s.merge)
		} else {
			heap.Fix(s.merge, 0)
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
	for _, f := range s.runs {
		f.Close()
		os.Remove(f.Name())
	}
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
