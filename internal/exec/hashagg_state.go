package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"photon/internal/expr"
	"photon/internal/ht"
	"photon/internal/types"
	"photon/internal/vector"
)

// Aggregation state slots. Each aggregate owns info.width bytes at info.off
// of its group's hash-table payload, little-endian, all-zero when empty:
//
//	count             [count u64]
//	sum/avg           [sum i64 | f64 bits][count u64]
//	decimal sum/avg   [lo u64][hi i64][count u64]
//	min/max           [present u8][value]
//	distinct / list   [list-state id u32]
//
// The accessors below are the only code that reads or writes a slot, so the
// update, merge, spill and emit paths cannot disagree about the layout.

// addCount adds c to the count at the head of st.
func addCount(st []byte, c int64) {
	binary.LittleEndian.PutUint64(st, binary.LittleEndian.Uint64(st)+uint64(c))
}

// loadCount reads the count at the head of st.
func loadCount(st []byte) int64 { return int64(binary.LittleEndian.Uint64(st)) }

// loadDec reads a 128-bit decimal (a sum, or a min/max value) at st.
func loadDec(st []byte) types.Decimal128 {
	return types.Decimal128{
		Lo: binary.LittleEndian.Uint64(st),
		Hi: int64(binary.LittleEndian.Uint64(st[8:])),
	}
}

// storeDec writes a 128-bit decimal at st.
func storeDec(st []byte, d types.Decimal128) {
	binary.LittleEndian.PutUint64(st, d.Lo)
	binary.LittleEndian.PutUint64(st[8:], uint64(d.Hi))
}

// addDecSum folds x and c contributing rows into the decimal sum/avg state
// at st. Sums always accumulate in 128 bits: Go's two-limb add costs what an
// overflow-checked int64 add does, so a narrow state tier had nothing to buy.
func addDecSum(st []byte, x types.Decimal128, c int64) {
	lo, carry := bits.Add64(binary.LittleEndian.Uint64(st), x.Lo, 0)
	binary.LittleEndian.PutUint64(st, lo)
	binary.LittleEndian.PutUint64(st[8:], binary.LittleEndian.Uint64(st[8:])+uint64(x.Hi)+carry)
	addCount(st[16:], c)
}

// addIntSum folds x and c contributing rows into an int64 sum state.
func addIntSum(st []byte, x, c int64) {
	binary.LittleEndian.PutUint64(st, binary.LittleEndian.Uint64(st)+uint64(x))
	addCount(st[8:], c)
}

// loadFloatSum reads the sum of a float64 sum/avg state.
func loadFloatSum(st []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(st))
}

// addFloatSum folds x and c contributing rows into a float64 sum/avg state.
func addFloatSum(st []byte, x float64, c int64) {
	binary.LittleEndian.PutUint64(st, math.Float64bits(loadFloatSum(st)+x))
	addCount(st[8:], c)
}

// loadSum decodes the accumulated sum of a sum/avg state into v[i].
func loadSum(v *vector.Vector, i int, st []byte, sumT types.DataType) {
	switch sumT.ID {
	case types.Decimal:
		v.Set(i, loadDec(st))
	case types.Float64:
		v.Set(i, loadFloatSum(st))
	default:
		v.Set(i, int64(binary.LittleEndian.Uint64(st)))
	}
}

// storeValue writes av[i] into a min/max value slot.
func storeValue(st []byte, av *vector.Vector, i int, tbl *ht.Table) {
	switch av.Type.ID {
	case types.Bool:
		st[0] = av.Bool[i]
	case types.Int32, types.Date:
		binary.LittleEndian.PutUint32(st, uint32(av.I32[i]))
	case types.Int64, types.Timestamp:
		binary.LittleEndian.PutUint64(st, uint64(av.I64[i]))
	case types.Float64:
		binary.LittleEndian.PutUint64(st, math.Float64bits(av.F64[i]))
	case types.Decimal:
		storeDec(st, av.Dec[i])
	case types.String:
		off, ln := tbl.AppendHeap(av.Str[i])
		binary.LittleEndian.PutUint32(st, off)
		binary.LittleEndian.PutUint32(st[4:], ln)
	}
}

// loadValue reads a min/max value slot of type t into v[i].
func loadValue(v *vector.Vector, i int, st []byte, t types.DataType, tbl *ht.Table) {
	switch t.ID {
	case types.Bool:
		v.Set(i, st[0] != 0)
	case types.Int32, types.Date:
		v.Set(i, int32(binary.LittleEndian.Uint32(st)))
	case types.Int64, types.Timestamp:
		v.Set(i, int64(binary.LittleEndian.Uint64(st)))
	case types.Float64:
		v.Set(i, math.Float64frombits(binary.LittleEndian.Uint64(st)))
	case types.Decimal:
		v.Set(i, loadDec(st))
	case types.String:
		off := binary.LittleEndian.Uint32(st)
		ln := binary.LittleEndian.Uint32(st[4:])
		v.Set(i, append([]byte(nil), tbl.HeapBytes(off, ln)...))
	}
}

// cmpValue compares a min/max value slot against av[i]: -1/0/1.
func cmpValue(st []byte, av *vector.Vector, i int, tbl *ht.Table) int {
	switch av.Type.ID {
	case types.Bool:
		return int(st[0]) - int(av.Bool[i])
	case types.Int32, types.Date:
		return cmpOrdered(int32(binary.LittleEndian.Uint32(st)), av.I32[i])
	case types.Int64, types.Timestamp:
		return cmpOrdered(int64(binary.LittleEndian.Uint64(st)), av.I64[i])
	case types.Float64:
		return cmpOrdered(math.Float64frombits(binary.LittleEndian.Uint64(st)), av.F64[i])
	case types.Decimal:
		return loadDec(st).Cmp(av.Dec[i])
	case types.String:
		off := binary.LittleEndian.Uint32(st)
		ln := binary.LittleEndian.Uint32(st[4:])
		return bytes.Compare(tbl.HeapBytes(off, ln), av.Str[i])
	}
	return 0
}

// cmpOrdered is a three-way compare in which NaN is neither below nor above
// anything (so a NaN never displaces a stored min/max).
func cmpOrdered[T int32 | int64 | float64](s, x T) int {
	switch {
	case s < x:
		return -1
	case s > x:
		return 1
	}
	return 0
}

// listState holds a variable-size aggregation state: the concatenated
// elements (each u32-length-prefixed) for collect_list, or the distinct set
// for count(distinct).
type listState struct {
	blob     []byte
	count    int64
	distinct map[string]struct{}
}

// listOf resolves the list state a distinct/collect_list slot points at.
func listOf(lists []listState, st []byte) *listState {
	return &lists[binary.LittleEndian.Uint32(st)]
}

// initState zeroes a new group's payload and allocates its list states in
// lists (the operator's, or the partition merge's).
func (op *HashAggOp) initState(tbl *ht.Table, row int32, lists *[]listState) {
	p := tbl.PayloadBytes(row)
	clear(p)
	for _, info := range op.infos {
		if info.spec.Distinct || info.spec.Kind == expr.AggCollectList {
			binary.LittleEndian.PutUint32(p[info.off:], uint32(len(*lists)))
			ls := listState{}
			if info.spec.Distinct {
				ls.distinct = make(map[string]struct{})
			}
			*lists = append(*lists, ls)
		}
	}
}

// encodeValueKey renders av[i] as a map key for DISTINCT sets.
func encodeValueKey(av *vector.Vector, i int) string {
	switch av.Type.ID {
	case types.String:
		return string(av.Str[i])
	case types.Int32, types.Date:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(av.I32[i]))
		return string(b[:])
	case types.Float64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(av.F64[i]))
		return string(b[:])
	case types.Decimal:
		var b [16]byte
		storeDec(b[:], av.Dec[i])
		return string(b[:])
	default:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(av.I64[i]))
		return string(b[:])
	}
}

// encodeListElem renders av[i] as display bytes for collect_list, copied
// into the shared arena (allocation coalescing across groups, Fig. 5).
func encodeListElem(av *vector.Vector, i int, arena interface{ Copy([]byte) []byte }) []byte {
	switch av.Type.ID {
	case types.String:
		return arena.Copy(av.Str[i])
	default:
		return arena.Copy([]byte(fmt.Sprintf("%v", av.Get(i))))
	}
}

// appendLenPrefixed appends a u32-length-prefixed element to a blob.
func appendLenPrefixed[T []byte | string](blob []byte, elem T) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(elem)))
	blob = append(blob, l[:]...)
	return append(blob, elem...)
}

// iterLenPrefixed walks a u32-length-prefixed element blob.
func iterLenPrefixed(blob []byte, f func(elem []byte)) {
	for len(blob) >= 4 {
		l := binary.LittleEndian.Uint32(blob)
		blob = blob[4:]
		f(blob[:l])
		blob = blob[l:]
	}
}
