package kernels

import (
	"bytes"
	"slices"

	"photon/internal/types"
)

// Comparison (filter) kernels. A filtering kernel takes data vectors and the
// batch's position list and produces a new, smaller position list of the
// rows where the predicate is TRUE (§4.3). NULL comparisons are FALSE (SQL
// three-valued logic collapses to "row filtered out" at this level).
//
// The op is a mask, not a branch: a kernel computes each row's three-way
// outcome as one bit — less, equal or greater, none for an unordered pair
// (NaN on either side) — and looks it up in the op's truth table. Every
// candidate row is written at the output cursor, which advances by the
// answer, so one loop per (nulls × activity) shape serves all six ops and
// has no branch on the data.

// CmpOp identifies a comparison operator for table-driven kernels.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Outcomes of a three-way comparison, one bit each.
const (
	less    = 1
	equal   = 2
	greater = 4
)

// cmpTest returns op's truth table: bit m is set when outcome m passes. <>
// is "not equal", so it also passes the unordered outcome 0 (IEEE).
func cmpTest(op CmpOp) uint8 {
	return [...]uint8{
		CmpEq: 1 << equal,
		CmpNe: 1<<0 | 1<<less | 1<<greater,
		CmpLt: 1 << less,
		CmpLe: 1<<less | 1<<equal,
		CmpGt: 1 << greater,
		CmpGe: 1<<equal | 1<<greater,
	}[op]
}

// pass is 1 when table t holds outcome m, else 0.
func pass(t, m uint8) int { return int(t>>(m&7)) & 1 }

func b2i(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// live is 1 for a non-NULL row, else 0.
func live(null byte) int { return int(b2i(null == 0)) }

// outcome is x's outcome against y; NaN on either side is unordered.
func outcome[T Ordered](x, y T) uint8 {
	return b2i(x < y)*less | b2i(x == y)*equal | b2i(x > y)*greater
}

// sign turns a -1/0/+1 three-way compare into an outcome.
func sign(c int) uint8 { return 1 << uint(c+1) }

// bytesOutcome is x's outcome against y, bytewise. A caller that needs
// only equality (= and <>) passes unequal for strings of different lengths
// and gets the unordered outcome without a look at their bytes.
func bytesOutcome(x, y []byte, unequal bool) uint8 {
	if unequal {
		return 0
	}
	return sign(bytes.Compare(x, y))
}

// room extends out by a slot per candidate row (len(sel), or n when dense);
// a kernel writes every candidate at its cursor and cuts out back to it.
func room(out []int32, n int, sel []int32) []int32 {
	if sel != nil {
		n = len(sel)
	}
	return slices.Grow(out, n)[:len(out)+n]
}

// SelCmpVS appends rows where a[i] <op> s holds. Vector-vs-constant is the
// hottest filter shape in analytics (e.g. o_shipdate > '2021-01-01').
func SelCmpVS[T Ordered](op CmpOp, a []T, s T, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k := cmpTest(op), len(out)
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(x, s))
		}
	case sel == nil:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(x, s)) & live(nulls[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(a[i], s))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(a[i], s)) & live(nulls[i])
		}
	}
	return out[:k]
}

// SelCmpVV appends rows where a[i] <op> b[i] holds.
func SelCmpVV[T Ordered](op CmpOp, a, b []T, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k := cmpTest(op), len(out)
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(x, b[i]))
		}
	case sel == nil:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(x, b[i])) & live(nulls1[i]|nulls2[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(a[i], b[i]))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(a[i], b[i])) & live(nulls1[i]|nulls2[i])
		}
	}
	return out[:k]
}

// SelBetweenVS is the fused BETWEEN kernel (§3.3): col >= lo AND col <= hi
// in one pass, avoiding the interpretation overhead of a conjunction of two
// comparison kernels.
func SelBetweenVS[T Ordered](a []T, lo, hi T, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	k := len(out)
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += int(b2i(x >= lo) & b2i(x <= hi))
		}
	case sel == nil:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += int(b2i(x >= lo)&b2i(x <= hi)) & live(nulls[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += int(b2i(a[i] >= lo) & b2i(a[i] <= hi))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += int(b2i(a[i] >= lo)&b2i(a[i] <= hi)) & live(nulls[i])
		}
	}
	return out[:k]
}

// SelCmpBytesVS appends rows where a[i] <op> s holds, bytewise.
func SelCmpBytesVS(op CmpOp, a [][]byte, s []byte, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k, eq := cmpTest(op), len(out), op <= CmpNe
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, bytesOutcome(x, s, eq && len(x) != len(s)))
		}
	case sel == nil:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, bytesOutcome(x, s, eq && len(x) != len(s))) & live(nulls[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, bytesOutcome(a[i], s, eq && len(a[i]) != len(s)))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, bytesOutcome(a[i], s, eq && len(a[i]) != len(s))) & live(nulls[i])
		}
	}
	return out[:k]
}

// SelCmpBytesVV appends rows where a[i] <op> b[i] holds, bytewise.
func SelCmpBytesVV(op CmpOp, a, b [][]byte, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k, eq := cmpTest(op), len(out), op <= CmpNe
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, bytesOutcome(x, b[i], eq && len(x) != len(b[i])))
		}
	case sel == nil:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, bytesOutcome(x, b[i], eq && len(x) != len(b[i]))) & live(nulls1[i]|nulls2[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, bytesOutcome(a[i], b[i], eq && len(a[i]) != len(b[i])))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, bytesOutcome(a[i], b[i], eq && len(a[i]) != len(b[i]))) & live(nulls1[i]|nulls2[i])
		}
	}
	return out[:k]
}

// SelCmpDecVS appends rows where a[i] <op> s holds, over 128 bits.
func SelCmpDecVS(op CmpOp, a []types.Decimal128, s types.Decimal128, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k := cmpTest(op), len(out)
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, sign(x.Cmp(s)))
		}
	case sel == nil:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, sign(x.Cmp(s))) & live(nulls[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, sign(a[i].Cmp(s)))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, sign(a[i].Cmp(s))) & live(nulls[i])
		}
	}
	return out[:k]
}

// SelCmpDecVV appends rows where a[i] <op> b[i] holds, over 128 bits.
func SelCmpDecVV(op CmpOp, a, b []types.Decimal128, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k := cmpTest(op), len(out)
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, sign(x.Cmp(b[i])))
		}
	case sel == nil:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, sign(x.Cmp(b[i]))) & live(nulls1[i]|nulls2[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, sign(a[i].Cmp(b[i])))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, sign(a[i].Cmp(b[i]))) & live(nulls1[i]|nulls2[i])
		}
	}
	return out[:k]
}

// SelIsNull appends rows whose value is NULL.
func SelIsNull(nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		return out
	}
	return SelCmpVS(CmpNe, nulls, 0, nil, false, sel, n, out)
}

// SelIsNotNull appends rows whose value is not NULL.
func SelIsNotNull(nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	switch {
	case hasNulls:
		return SelCmpVS(CmpEq, nulls, 0, nil, false, sel, n, out)
	case sel != nil:
		return append(out, sel...)
	}
	return DenseSel(n, out)
}

// UnionSel merges two sorted position lists (logical OR of two predicate
// results evaluated over the same parent selection).
func UnionSel(a, b, out []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// DiffSel returns parent minus sub (both sorted): the rows where a predicate
// evaluated under parent did NOT pass. Used by CASE WHEN branch masking.
func DiffSel(parent, sub, out []int32) []int32 {
	j := 0
	for _, v := range parent {
		for j < len(sub) && sub[j] < v {
			j++
		}
		if j < len(sub) && sub[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// DenseSel materializes the dense selection [0, n) (needed when an operator
// must mix dense and selective children).
func DenseSel(n int, out []int32) []int32 {
	for i := 0; i < n; i++ {
		out = append(out, int32(i))
	}
	return out
}
