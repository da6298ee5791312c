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
//	count distinct    [count u64] (the size of the group's set, see distinctSet)
//	collect_list      [list-state id u32]
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
	v.Nulls[i] = 0
	switch sumT.ID {
	case types.Decimal:
		v.Dec[i] = loadDec(st)
	case types.Float64:
		v.F64[i] = loadFloatSum(st)
	default:
		v.I64[i] = int64(binary.LittleEndian.Uint64(st))
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

// listState holds a collect_list state: the concatenated elements, each
// u32-length-prefixed, and how many there are.
type listState struct {
	blob  []byte
	count int64
}

// listOf resolves the list state a collect_list slot points at.
func listOf(lists []listState, st []byte) *listState {
	return &lists[binary.LittleEndian.Uint32(st)]
}

// groupState is the state of one grouping epoch: the group table, whose
// payloads are the fixed-width states; the collect_list states those index;
// and one set per DISTINCT aggregate. The operator folds input into a live
// one and rebuilds another from each spilled partition.
type groupState struct {
	tbl   *ht.Table
	lists []listState
	sets  []distinctSet
	// indexed: the sets' emission indexes are built (indexDistinct).
	indexed bool
}

// distinctSet holds a DISTINCT aggregate's sets for every group at once: one
// table keyed (group entry id, value), with no payload. A batch's values are
// resolved with one FindOrInsert and each pair that was new bumps the
// counter in its group's state, so the sets are only as valid as the group
// ids: both are reset together.
type distinctSet struct {
	tbl *ht.Table
	// Emission index: order lists the table's entries bucketed by group,
	// group r's ending at end[r] (and starting where group r-1's end).
	order, end []int32
}

// resetGroups gives g empty tables.
func (op *HashAggOp) resetGroups(g *groupState) {
	g.tbl = ht.New(op.keyTypes, op.payloadW)
	g.lists = g.lists[:0]
	g.sets = g.sets[:0]
	for _, info := range op.infos {
		if info.spec.Distinct { // appended in aggInfo.dist order
			g.sets = append(g.sets, distinctSet{tbl: ht.New([]types.DataType{types.Int32Type, info.spec.Arg.Type()}, 0)})
		}
	}
	g.indexed = false
}

// initState zeroes a new group's payload and allocates its list states.
func (op *HashAggOp) initState(g *groupState, row int32) {
	p := g.tbl.PayloadBytes(row)
	clear(p)
	for _, info := range op.infos {
		if info.spec.Kind == expr.AggCollectList {
			binary.LittleEndian.PutUint32(p[info.off:], uint32(len(g.lists)))
			g.lists = append(g.lists, listState{})
		}
	}
}

// indexDistinct buckets every set table's entries by group in one counting
// pass — a group's count is the counter its state already holds — so that
// partial output and spill can list each group's elements. It runs once no
// more input can reach g.
func (op *HashAggOp) indexDistinct(g *groupState) {
	if g.indexed {
		return
	}
	g.indexed = true
	groups := g.tbl.NumRows()
	for _, info := range op.infos {
		if !info.spec.Distinct {
			continue
		}
		set := &g.sets[info.dist]
		// Starts first; placing a group's entries advances its start to its end.
		set.end = make([]int32, groups)
		next := int32(0)
		for r := range set.end {
			set.end[r] = next
			next += int32(loadCount(g.tbl.PayloadBytes(int32(r))[info.off:]))
		}
		set.order = make([]int32, set.tbl.NumRows())
		for e := range set.order {
			r := binary.LittleEndian.Uint32(set.tbl.KeyBytes(int32(e), 0))
			set.order[set.end[r]] = int32(e)
			set.end[r]++
		}
	}
}

// appendBlob appends group row's set as the partial format's blob of
// u32-length-prefixed little-endian elements. Needs indexDistinct.
func (set *distinctSet) appendBlob(blob []byte, row int32) []byte {
	lo := int32(0)
	if row > 0 {
		lo = set.end[row-1]
	}
	for _, e := range set.order[lo:set.end[row]] {
		blob = appendLenPrefixed(blob, set.tbl.KeyBytes(e, 1))
	}
	return blob
}

// listElem renders av[i] as collect_list's display bytes: a string's own
// bytes, anything else formatted.
func listElem(av *vector.Vector, i int) []byte {
	if av.Type.ID == types.String {
		return av.Str[i]
	}
	return fmt.Appendf(nil, "%v", av.Get(i))
}

// distinctElem renders non-NULL av[i] as an element of a DISTINCT blob: the
// bytes the set table's value column holds (appendBlob), built in buf.
// Table.PutValue touches its table only to store a string, so none is needed.
func distinctElem(av *vector.Vector, i int, buf *[16]byte) []byte {
	if av.Type.ID == types.String {
		return av.Str[i]
	}
	w := av.Type.FixedWidth()
	(*ht.Table)(nil).PutValue(buf[:w], av, i)
	return buf[:w]
}

// appendLenPrefixed appends a u32-length-prefixed element to a blob.
func appendLenPrefixed(blob, elem []byte) []byte {
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
