// Package vector implements Photon's batched columnar data layout (§4.1):
// column vectors holding a batch worth of contiguous values plus a NULL byte
// vector and batch-level metadata (e.g. ASCII-ness), and column batches that
// group vectors with a position list of active rows (Fig. 2).
//
// The position list (Sel) stores indices of rows that are "active" — not yet
// filtered out. A nil Sel means every row in [0, NumRows) is active, which is
// the fast path kernels specialize on (Listing 2's kAllRowsActive). Data at
// inactive row indices may still be valid and must never be overwritten.
//
// A batch holds at most its task's batch size rows, and no operator or
// expression sizes scratch from the first batch it sees: scratch is checked
// against every batch and grown to it, and a scan hands out a stored batch
// larger than the batch size as zero-copy row ranges (Vector.Slice).
package vector

import (
	"fmt"

	"photon/internal/types"
)

// DefaultBatchSize is the number of row slots per column batch. Batches are
// sized to keep a working set of vectors resident in cache while amortizing
// per-batch dispatch overhead.
const DefaultBatchSize = 2048

// AsciiInfo is batch-level metadata about a string vector's encoding,
// discovered at runtime by the adaptive ASCII-check kernel (§4.6).
type AsciiInfo uint8

const (
	// AsciiUnknown means the vector has not been scanned yet.
	AsciiUnknown AsciiInfo = iota
	// AsciiAll means every active string is pure ASCII.
	AsciiAll
	// AsciiMixed means at least one active string has a non-ASCII byte.
	AsciiMixed
)

// Dec64Info is batch-level metadata about a decimal vector's narrowness:
// whether every active unscaled value fits in an int64, which the declared
// precision does not say. Like AsciiInfo it is discovered at runtime — for
// free from Parquet chunk min-max statistics at scan time, once when a memory
// table is registered, or by the Dec64CheckV kernel elsewhere — and it stays
// valid as the selection vector shrinks (§4.6 batch-level adaptivity).
type Dec64Info uint8

const (
	// Dec64Unknown means the vector has not been checked yet.
	Dec64Unknown Dec64Info = iota
	// Dec64All means every active unscaled value fits in an int64.
	Dec64All
	// Dec64Wide means at least one active value needs all 128 bits.
	Dec64Wide
)

// Vector is a single column holding one batch worth of values. Exactly one
// of the typed slices is in use, selected by Type.ID. Nulls holds one byte
// per row (1 = NULL). hasNulls is batch-level metadata maintained by writers
// so kernels can take the NULL-free fast path.
type Vector struct {
	Type types.DataType

	Bool []byte // 0/1, one byte per row
	I32  []int32
	I64  []int64
	F64  []float64
	Dec  []types.Decimal128
	Str  [][]byte // string payloads; backing bytes typically live in an arena

	Nulls []byte

	hasNulls bool
	Ascii    AsciiInfo
	Dec64    Dec64Info
}

// New allocates a vector of the given type with capacity rows, all slots
// valid (non-NULL) and zero.
func New(t types.DataType, capacity int) *Vector {
	v := &Vector{Type: t, Nulls: make([]byte, capacity)}
	switch t.ID {
	case types.Bool:
		v.Bool = make([]byte, capacity)
	case types.Int32, types.Date:
		v.I32 = make([]int32, capacity)
	case types.Int64, types.Timestamp:
		v.I64 = make([]int64, capacity)
	case types.Float64:
		v.F64 = make([]float64, capacity)
	case types.Decimal:
		v.Dec = make([]types.Decimal128, capacity)
	case types.String:
		v.Str = make([][]byte, capacity)
	default:
		panic(fmt.Sprintf("vector: unsupported type %v", t))
	}
	return v
}

// Slice returns rows [lo, hi) of v as a vector sharing v's storage. Its
// metadata is v's, which stays true of any subset of the rows.
func (v *Vector) Slice(lo, hi int) *Vector {
	s := *v
	s.Nulls = v.Nulls[lo:hi]
	switch v.Type.ID {
	case types.Bool:
		s.Bool = v.Bool[lo:hi]
	case types.Int32, types.Date:
		s.I32 = v.I32[lo:hi]
	case types.Int64, types.Timestamp:
		s.I64 = v.I64[lo:hi]
	case types.Float64:
		s.F64 = v.F64[lo:hi]
	case types.Decimal:
		s.Dec = v.Dec[lo:hi]
	case types.String:
		s.Str = v.Str[lo:hi]
	}
	return &s
}

// Capacity returns the number of row slots.
func (v *Vector) Capacity() int { return len(v.Nulls) }

// HasNulls reports the batch-level no-NULLs metadata. When false, kernels
// skip all NULL branching.
func (v *Vector) HasNulls() bool { return v.hasNulls }

// SetHasNulls overrides the NULL metadata (used by scanners that know chunk
// statistics, and by kernels that produce NULLs).
func (v *Vector) SetHasNulls(h bool) { v.hasNulls = h }

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls[i] != 0 }

// SetNull marks row i NULL and updates the batch-level metadata.
func (v *Vector) SetNull(i int) {
	v.Nulls[i] = 1
	v.hasNulls = true
}

// SetNotNull clears row i's NULL flag. It does not clear hasNulls; call
// RecomputeHasNulls for exact metadata.
func (v *Vector) SetNotNull(i int) { v.Nulls[i] = 0 }

// ClearNulls marks every slot valid.
func (v *Vector) ClearNulls() {
	clear(v.Nulls)
	v.hasNulls = false
}

// RecomputeHasNulls rescans the null bytes of the rows listed in sel (or all
// n rows when sel is nil) and updates the metadata. This is the batch-level
// adaptivity step (§4.6): after a filter, a column that had NULLs may be
// NULL-free among the surviving rows.
func (v *Vector) RecomputeHasNulls(sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			if v.Nulls[i] != 0 {
				v.hasNulls = true
				return
			}
		}
		v.hasNulls = false
		return
	}
	for _, i := range sel {
		if v.Nulls[i] != 0 {
			v.hasNulls = true
			return
		}
	}
	v.hasNulls = false
}

// Reset prepares the vector for reuse by a new batch: clears NULL flags and
// metadata but keeps allocations (the buffer pool relies on this).
func (v *Vector) Reset() {
	clear(v.Nulls)
	v.hasNulls = false
	v.Ascii = AsciiUnknown
	v.Dec64 = Dec64Unknown
	if v.Str != nil {
		// Drop payload pointers so arena memory can be recycled safely.
		clear(v.Str)
	}
}

// Get returns row i's value as an any (nil for NULL). For tests, row
// conversion at engine boundaries, and debugging — never on the data plane.
func (v *Vector) Get(i int) any {
	if v.Nulls[i] != 0 {
		return nil
	}
	switch v.Type.ID {
	case types.Bool:
		return v.Bool[i] != 0
	case types.Int32, types.Date:
		return v.I32[i]
	case types.Int64, types.Timestamp:
		return v.I64[i]
	case types.Float64:
		return v.F64[i]
	case types.Decimal:
		return v.Dec[i]
	case types.String:
		return string(v.Str[i])
	}
	panic("vector: Get on unsupported type")
}

// Set stores val (nil for NULL) at row i. Inverse of Get; boundary use only.
func (v *Vector) Set(i int, val any) {
	if val == nil {
		v.SetNull(i)
		return
	}
	v.Nulls[i] = 0
	switch v.Type.ID {
	case types.Bool:
		if val.(bool) {
			v.Bool[i] = 1
		} else {
			v.Bool[i] = 0
		}
	case types.Int32, types.Date:
		v.I32[i] = val.(int32)
	case types.Int64, types.Timestamp:
		v.I64[i] = val.(int64)
	case types.Float64:
		v.F64[i] = val.(float64)
	case types.Decimal:
		v.Dec[i] = val.(types.Decimal128)
	case types.String:
		switch s := val.(type) {
		case string:
			v.Str[i] = []byte(s)
		case []byte:
			v.Str[i] = s
		default:
			panic(fmt.Sprintf("vector: Set string from %T", val))
		}
	default:
		panic("vector: Set on unsupported type")
	}
}

// CopyRow copies src's row j into v's row i, including NULL-ness. The
// vectors must have the same type. String payloads are aliased, not copied.
func (v *Vector) CopyRow(i int, src *Vector, j int) {
	if src.Nulls[j] != 0 {
		v.SetNull(i)
		return
	}
	v.Nulls[i] = 0
	switch v.Type.ID {
	case types.Bool:
		v.Bool[i] = src.Bool[j]
	case types.Int32, types.Date:
		v.I32[i] = src.I32[j]
	case types.Int64, types.Timestamp:
		v.I64[i] = src.I64[j]
	case types.Float64:
		v.F64[i] = src.F64[j]
	case types.Decimal:
		v.Dec[i] = src.Dec[j]
	case types.String:
		v.Str[i] = src.Str[j]
	default:
		panic("vector: CopyRow on unsupported type")
	}
}
