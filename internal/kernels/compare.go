package kernels

import (
	"bytes"

	"photon/internal/types"
)

// Comparison (filter) kernels. A filtering kernel takes data vectors and the
// batch's position list and produces a new, smaller position list of the
// rows where the predicate is TRUE (§4.3). NULL comparisons are FALSE (SQL
// three-valued logic collapses to "row filtered out" at this level).
//
// Gt/Ge over two vectors are expressed by swapping operands into Lt/Le at
// the call site, so each element type needs only Eq/Ne/Lt/Le VV loops.

// SelEqVV appends rows where a[i] == b[i].
func SelEqVV[T Ordered](a, b []T, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		if sel == nil {
			for i := 0; i < n; i++ {
				if a[i] == b[i] {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if a[i] == b[i] {
				out = append(out, i)
			}
		}
		return out
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls1[i]|nulls2[i] == 0 && a[i] == b[i] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls1[i]|nulls2[i] == 0 && a[i] == b[i] {
			out = append(out, i)
		}
	}
	return out
}

// SelNeVV appends rows where a[i] != b[i].
func SelNeVV[T Ordered](a, b []T, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		if sel == nil {
			for i := 0; i < n; i++ {
				if a[i] != b[i] {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if a[i] != b[i] {
				out = append(out, i)
			}
		}
		return out
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls1[i]|nulls2[i] == 0 && a[i] != b[i] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls1[i]|nulls2[i] == 0 && a[i] != b[i] {
			out = append(out, i)
		}
	}
	return out
}

// SelLtVV appends rows where a[i] < b[i].
func SelLtVV[T Ordered](a, b []T, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		if sel == nil {
			for i := 0; i < n; i++ {
				if a[i] < b[i] {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if a[i] < b[i] {
				out = append(out, i)
			}
		}
		return out
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls1[i]|nulls2[i] == 0 && a[i] < b[i] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls1[i]|nulls2[i] == 0 && a[i] < b[i] {
			out = append(out, i)
		}
	}
	return out
}

// SelLeVV appends rows where a[i] <= b[i].
func SelLeVV[T Ordered](a, b []T, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		if sel == nil {
			for i := 0; i < n; i++ {
				if a[i] <= b[i] {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if a[i] <= b[i] {
				out = append(out, i)
			}
		}
		return out
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls1[i]|nulls2[i] == 0 && a[i] <= b[i] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls1[i]|nulls2[i] == 0 && a[i] <= b[i] {
			out = append(out, i)
		}
	}
	return out
}

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

// wantMask maps a CmpOp to a bitmask over three-way compare results
// (bit 0 = less, bit 1 = equal, bit 2 = greater).
func wantMask(op CmpOp) uint8 {
	switch op {
	case CmpEq:
		return 0b010
	case CmpNe:
		return 0b101
	case CmpLt:
		return 0b001
	case CmpLe:
		return 0b011
	case CmpGt:
		return 0b100
	case CmpGe:
		return 0b110
	}
	panic("kernels: bad CmpOp")
}

// SelCmpVS appends rows where a[i] <op> s holds for numeric element types.
// Each op gets its own tight loop; vector-vs-constant is the hottest filter
// shape in analytics (e.g. o_shipdate > '2021-01-01').
func SelCmpVS[T Ordered](op CmpOp, a []T, s T, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	appendIf := func(pred func(T) bool) {
		if !hasNulls {
			if sel == nil {
				for i := 0; i < n; i++ {
					if pred(a[i]) {
						out = append(out, int32(i))
					}
				}
				return
			}
			for _, i := range sel {
				if pred(a[i]) {
					out = append(out, i)
				}
			}
			return
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				if nulls[i] == 0 && pred(a[i]) {
					out = append(out, int32(i))
				}
			}
			return
		}
		for _, i := range sel {
			if nulls[i] == 0 && pred(a[i]) {
				out = append(out, i)
			}
		}
	}
	switch op {
	case CmpEq:
		appendIf(func(v T) bool { return v == s })
	case CmpNe:
		appendIf(func(v T) bool { return v != s })
	case CmpLt:
		appendIf(func(v T) bool { return v < s })
	case CmpLe:
		appendIf(func(v T) bool { return v <= s })
	case CmpGt:
		appendIf(func(v T) bool { return v > s })
	case CmpGe:
		appendIf(func(v T) bool { return v >= s })
	}
	return out
}

// SelBetweenVS is the fused BETWEEN kernel (§3.3): col >= lo AND col <= hi
// in one pass, avoiding the interpretation overhead of a conjunction of two
// comparison kernels. The ablation bench compares this against the unfused
// form.
func SelBetweenVS[T Ordered](a []T, lo, hi T, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		if sel == nil {
			for i := 0; i < n; i++ {
				if a[i] >= lo && a[i] <= hi {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if a[i] >= lo && a[i] <= hi {
				out = append(out, i)
			}
		}
		return out
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls[i] == 0 && a[i] >= lo && a[i] <= hi {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls[i] == 0 && a[i] >= lo && a[i] <= hi {
			out = append(out, i)
		}
	}
	return out
}

// SelCmpBytesVS appends rows where bytes.Compare(a[i], s) satisfies op.
// = and <> test equality alone, which compares lengths before bytes; only
// the ordering operators pay for a three-way compare.
func SelCmpBytesVS(op CmpOp, a [][]byte, s []byte, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if op == CmpEq || op == CmpNe {
		eq := op == CmpEq
		if sel == nil {
			for i := 0; i < n; i++ {
				if (!hasNulls || nulls[i] == 0) && (string(a[i]) == string(s)) == eq {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if (!hasNulls || nulls[i] == 0) && (string(a[i]) == string(s)) == eq {
				out = append(out, i)
			}
		}
		return out
	}
	want := wantMask(op)
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		c := bytes.Compare(a[i], s)
		if want&(1<<uint(c+1)) != 0 {
			out = append(out, i)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
	return out
}

// SelCmpBytesVV appends rows where bytes.Compare(a[i], b[i]) satisfies op.
func SelCmpBytesVV(op CmpOp, a, b [][]byte, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	want := wantMask(op)
	body := func(i int32) {
		if hasNulls && nulls1[i]|nulls2[i] != 0 {
			return
		}
		c := bytes.Compare(a[i], b[i])
		if want&(1<<uint(c+1)) != 0 {
			out = append(out, i)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
	return out
}

// SelCmpDecVS appends rows where a[i].Cmp(s) satisfies op.
func SelCmpDecVS(op CmpOp, a []types.Decimal128, s types.Decimal128, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	want := wantMask(op)
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		c := a[i].Cmp(s)
		if want&(1<<uint(c+1)) != 0 {
			out = append(out, i)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
	return out
}

// SelCmpDecVV appends rows where a[i].Cmp(b[i]) satisfies op.
func SelCmpDecVV(op CmpOp, a, b []types.Decimal128, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	want := wantMask(op)
	body := func(i int32) {
		if hasNulls && nulls1[i]|nulls2[i] != 0 {
			return
		}
		c := a[i].Cmp(b[i])
		if want&(1<<uint(c+1)) != 0 {
			out = append(out, i)
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
	return out
}

// SelFromBool appends rows whose computed boolean value is TRUE (used for
// predicates like LIKE whose kernels produce a bool vector).
func SelFromBool(vals []byte, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		if sel == nil {
			for i := 0; i < n; i++ {
				if vals[i] != 0 {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if vals[i] != 0 {
				out = append(out, i)
			}
		}
		return out
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls[i] == 0 && vals[i] != 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls[i] == 0 && vals[i] != 0 {
			out = append(out, i)
		}
	}
	return out
}

// SelIsNull appends rows whose value is NULL.
func SelIsNull(nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		return out
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls[i] != 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls[i] != 0 {
			out = append(out, i)
		}
	}
	return out
}

// SelIsNotNull appends rows whose value is not NULL.
func SelIsNotNull(nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	if !hasNulls {
		if sel == nil {
			for i := 0; i < n; i++ {
				out = append(out, int32(i))
			}
			return out
		}
		return append(out, sel...)
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls[i] == 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if nulls[i] == 0 {
			out = append(out, i)
		}
	}
	return out
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
