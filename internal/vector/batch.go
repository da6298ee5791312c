package vector

import (
	"fmt"
	"strings"

	"photon/internal/types"
)

// Batch is a column batch (Fig. 2): a collection of column vectors that
// logically form rows, plus a position list of the active row indices.
//
// Sel == nil means all rows in [0, NumRows) are active — the dense fast
// path. A non-nil Sel holds strictly increasing row indices of active rows.
// Filters shrink Sel (§4.3); they never touch the data vectors, so inactive
// row slots may still hold valid data belonging to other expressions.
type Batch struct {
	Schema  *types.Schema
	Vecs    []*Vector
	Sel     []int32
	NumRows int // number of filled row slots (active + inactive)

	capacity int
}

// NewBatch allocates a batch with one vector per schema field, each with the
// given row capacity.
func NewBatch(schema *types.Schema, capacity int) *Batch {
	vecs := make([]*Vector, schema.Len())
	for i := range vecs {
		vecs[i] = New(schema.Field(i).Type, capacity)
	}
	return &Batch{Schema: schema, Vecs: vecs, capacity: capacity}
}

// WrapBatch builds a batch around existing vectors (zero-copy projection and
// expression outputs). Capacity derives from the narrowest vector.
func WrapBatch(schema *types.Schema, vecs []*Vector, sel []int32, numRows int) *Batch {
	capacity := 0
	first := true
	for _, v := range vecs {
		if v == nil {
			continue
		}
		if first || v.Capacity() < capacity {
			capacity = v.Capacity()
			first = false
		}
	}
	return &Batch{Schema: schema, Vecs: vecs, Sel: sel, NumRows: numRows, capacity: capacity}
}

// SetCapacity overrides the recorded row-slot capacity (used when vectors
// are replaced in an operator-owned batch).
func (b *Batch) SetCapacity(c int) { b.capacity = c }

// Capacity returns the row-slot capacity of the batch.
func (b *Batch) Capacity() int { return b.capacity }

// NumActive returns the number of active rows.
func (b *Batch) NumActive() int {
	if b.Sel == nil {
		return b.NumRows
	}
	return len(b.Sel)
}

// AllActive reports whether every filled row is active (the kAllRowsActive
// specialization trigger).
func (b *Batch) AllActive() bool { return b.Sel == nil }

// RowIndex maps the i-th active row to its physical row index.
func (b *Batch) RowIndex(i int) int {
	if b.Sel == nil {
		return i
	}
	return int(b.Sel[i])
}

// Sparsity returns the fraction of row slots that are inactive, in [0,1].
// The adaptive join compaction heuristic (§4.6, Fig. 9) uses this.
func (b *Batch) Sparsity() float64 {
	if b.NumRows == 0 || b.Sel == nil {
		return 0
	}
	return 1 - float64(len(b.Sel))/float64(b.NumRows)
}

// Reset prepares the batch for refilling: all vectors reset, selection
// cleared, zero rows.
func (b *Batch) Reset() {
	for _, v := range b.Vecs {
		v.Reset()
	}
	b.Sel = nil
	b.NumRows = 0
}

// SetSel installs a position list. The list must be a subset of the
// currently active rows in increasing order; nil marks all rows active.
func (b *Batch) SetSel(sel []int32) { b.Sel = sel }

// Compact rewrites the batch in place so that only the previously active
// rows remain, densely packed at the front with Sel == nil. This is the
// adaptive batch compaction of §4.6: dense batches exploit memory
// parallelism during hash-table probes, while sparse batches pay full memory
// latency per active row and incur interpretation overhead downstream.
func (b *Batch) Compact() {
	if b.Sel == nil {
		return
	}
	sel := b.Sel
	for _, v := range b.Vecs {
		switch v.Type.ID {
		case types.Bool:
			for to, from := range sel {
				v.Bool[to] = v.Bool[from]
				v.Nulls[to] = v.Nulls[from]
			}
		case types.Int32, types.Date:
			for to, from := range sel {
				v.I32[to] = v.I32[from]
				v.Nulls[to] = v.Nulls[from]
			}
		case types.Int64, types.Timestamp:
			for to, from := range sel {
				v.I64[to] = v.I64[from]
				v.Nulls[to] = v.Nulls[from]
			}
		case types.Float64:
			for to, from := range sel {
				v.F64[to] = v.F64[from]
				v.Nulls[to] = v.Nulls[from]
			}
		case types.Decimal:
			for to, from := range sel {
				v.Dec[to] = v.Dec[from]
				v.Nulls[to] = v.Nulls[from]
			}
		case types.String:
			for to, from := range sel {
				v.Str[to] = v.Str[from]
				v.Nulls[to] = v.Nulls[from]
			}
		}
		v.RecomputeHasNulls(nil, len(sel))
	}
	b.NumRows = len(sel)
	b.Sel = nil
}

// GatherInto copies b's active rows densely into dst (same schema, enough
// capacity) with one tight loop per column — the compaction kernel (§4.6).
// dst ends dense (Sel == nil) with NumRows = b.NumActive().
func (b *Batch) GatherInto(dst *Batch) {
	dst.NumRows = 0
	b.GatherAppend(dst)
}

// GatherAppend appends b's active rows densely after dst's existing rows —
// the coalescing form of compaction: successive sparse batches pack into
// one dense batch so downstream operators amortize their per-batch costs
// over full batches. dst must have capacity for the appended rows.
func (b *Batch) GatherAppend(dst *Batch) { b.GatherRange(dst, 0, b.NumActive()) }

// GatherRange appends b's active rows [lo, hi) — positions among the active
// rows, not row indices — densely after dst's existing rows, so a consumer
// can fill dst exactly to capacity. String payloads are aliased, not copied.
func (b *Batch) GatherRange(dst *Batch, lo, hi int) {
	n := hi - lo
	base := dst.NumRows
	var sel []int32
	if b.Sel != nil {
		sel = b.Sel[lo:hi]
	}
	for c, v := range b.Vecs {
		dv := dst.Vecs[c]
		anyNull := byte(0)
		dn := dv.Nulls[base : base+n]
		switch {
		case !v.HasNulls():
			clear(dn)
		case sel == nil:
			copy(dn, v.Nulls[lo:hi])
			for _, nb := range dn {
				anyNull |= nb
			}
		default:
			for to, from := range sel {
				nb := v.Nulls[from]
				dn[to] = nb
				anyNull |= nb
			}
		}
		switch v.Type.ID {
		case types.Bool:
			gather(dv.Bool[base:base+n], v.Bool, sel, lo)
		case types.Int32, types.Date:
			gather(dv.I32[base:base+n], v.I32, sel, lo)
		case types.Int64, types.Timestamp:
			gather(dv.I64[base:base+n], v.I64, sel, lo)
		case types.Float64:
			gather(dv.F64[base:base+n], v.F64, sel, lo)
		case types.Decimal:
			gather(dv.Dec[base:base+n], v.Dec, sel, lo)
		case types.String:
			gather(dv.Str[base:base+n], v.Str, sel, lo)
		}
		if anyNull != 0 {
			dv.SetHasNulls(true)
		} else if base == 0 {
			dv.SetHasNulls(false)
		}
		if base == 0 {
			dv.Ascii = v.Ascii
		} else if dv.Ascii != v.Ascii {
			dv.Ascii = AsciiUnknown
		}
	}
	dst.Sel = nil
	dst.NumRows = base + n
}

// gather fills dst with src's rows sel, or, without a selection vector, with
// its len(dst) rows from lo.
func gather[T any](dst, src []T, sel []int32, lo int) {
	if sel == nil {
		copy(dst, src[lo:])
		return
	}
	dst = dst[:len(sel)]
	for to, from := range sel {
		dst[to] = src[from]
	}
}

// OwnStrings copies the string payloads of rows [from, NumRows) into arena
// and points the rows at the copies, so they stay valid after the batch they
// were gathered from is refilled. It returns the grown arena; payloads
// copied earlier stay valid even when the arena's storage moves.
func (b *Batch) OwnStrings(from int, arena []byte) []byte {
	for _, v := range b.Vecs {
		if v.Type.ID != types.String {
			continue
		}
		for i := from; i < b.NumRows; i++ {
			if v.Nulls[i] != 0 {
				v.Str[i] = nil
				continue
			}
			at := len(arena)
			arena = append(arena, v.Str[i]...)
			v.Str[i] = arena[at:len(arena):len(arena)]
		}
	}
	return arena
}

// StringBytes is the length of the string payloads of the active rows.
func (b *Batch) StringBytes() int {
	n, size := b.NumActive(), 0
	for _, v := range b.Vecs {
		if v.Type.ID == types.String {
			for j := 0; j < n; j++ {
				size += len(v.Str[b.RowIndex(j)])
			}
		}
	}
	return size
}

// AppendRow appends one row of values (one per column, nil = NULL) to the
// batch. Boundary/test use only; the data plane fills vectors with kernels.
func (b *Batch) AppendRow(vals ...any) {
	if len(vals) != len(b.Vecs) {
		panic(fmt.Sprintf("vector: AppendRow arity %d != %d columns", len(vals), len(b.Vecs)))
	}
	if b.Sel != nil {
		panic("vector: AppendRow on a filtered batch")
	}
	i := b.NumRows
	for c, val := range vals {
		b.Vecs[c].Set(i, val)
	}
	b.NumRows++
}

// Row materializes the physical row idx as a slice of anys (boundary use).
func (b *Batch) Row(idx int) []any {
	out := make([]any, len(b.Vecs))
	for c, v := range b.Vecs {
		out[c] = v.Get(idx)
	}
	return out
}

// Rows materializes every active row; for tests and result collection.
func (b *Batch) Rows() [][]any {
	n := b.NumActive()
	out := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, b.Row(b.RowIndex(i)))
	}
	return out
}

// String renders a compact debug form.
func (b *Batch) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Batch(%d rows, %d active)[%s]", b.NumRows, b.NumActive(), b.Schema)
	return sb.String()
}

// Keep copies the active rows densely into a new batch of exactly that many
// rows, for a consumer that holds rows past the producer's next refill. The
// string payloads of all its columns are copied into one buffer sized up
// front. The NULL, ASCII and Dec64 verdicts carry over: they hold for any
// subset of the rows.
func (b *Batch) Keep() *Batch {
	n := b.NumActive()
	vecs := make([]*Vector, len(b.Vecs))
	for c, v := range b.Vecs {
		vecs[c] = New(v.Type, n)
	}
	out := &Batch{Schema: b.Schema, Vecs: vecs, capacity: n}
	b.GatherInto(out)
	out.OwnStrings(0, make([]byte, 0, b.StringBytes()))
	for c, v := range b.Vecs {
		vecs[c].Dec64 = v.Dec64
	}
	return out
}
