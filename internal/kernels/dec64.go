package kernels

import (
	"math/bits"

	"photon/internal/types"
)

// Narrow-decimal (int64) kernels. TPC-H decimals (prices, discounts,
// quantities) almost always fit in 64 bits even when typed DECIMAL(38,s), so
// where one loop over the low limbs can stand in for a 128-bit one — compare,
// cast, key hashing — the expr and exec layers take it whenever the values
// allow, the same batch-level adaptivity as the ASCII and no-NULLs metadata
// (§4.6). Arithmetic is not among them: it runs the 128-bit kernels of
// arith.go.
//
// Conventions: a value is "narrow" when its high limb is the sign extension
// of its low limb (types.Fits64); Dec64CheckV is how a vector is found to
// hold only such values. The cast kernel reports ok=false the moment a
// computed row overflows int64; the caller then runs the 128-bit kernel.

// Dec64CheckV reports whether every active non-NULL value is narrow. The
// NULL-free path is a branch-free accumulation over Hi ^ sext(Lo); the
// nullable path exits early on the first wide value.
func Dec64CheckV(a []types.Decimal128, nulls []byte, hasNulls bool, sel []int32, n int) bool {
	if !hasNulls {
		var acc uint64
		if sel == nil {
			a := a[:n]
			for i := range a {
				acc |= uint64(a[i].Hi ^ (int64(a[i].Lo) >> 63))
			}
		} else {
			for _, i := range sel {
				acc |= uint64(a[i].Hi ^ (int64(a[i].Lo) >> 63))
			}
		}
		return acc == 0
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if nulls[i] == 0 && a[i].Hi != int64(a[i].Lo)>>63 {
				return false
			}
		}
		return true
	}
	for _, i := range sel {
		if nulls[i] == 0 && a[i].Hi != int64(a[i].Lo)>>63 {
			return false
		}
	}
	return true
}

// mulOvf64 returns x*y truncated to 64 bits plus an overflow tag that is 0
// iff the full signed product fits in int64: one unsigned Mul64 with a
// high-word sign correction, compared against the sign extension of the low
// word.
func mulOvf64(x, y int64) (lo int64, tag uint64) {
	uhi, ulo := bits.Mul64(uint64(x), uint64(y))
	shi := int64(uhi) - ((x >> 63) & y) - ((y >> 63) & x)
	return int64(ulo), uint64(shi ^ (int64(ulo) >> 63))
}

// Dec64RescaleDecV rescales a narrow canonical decimal vector in place of
// DecRescaleV — int64 lane arithmetic on the low limbs, sign-extended back —
// without materializing lane vectors (the CAST dispatch shape). NULL rows
// are skipped so masked garbage cannot force a fallback. Returns ok=false on
// overflow or an out-of-range shift; the caller then runs DecRescaleV.
func Dec64RescaleDecV(a, out []types.Decimal128, from, to int, nulls []byte, hasNulls bool, sel []int32, n int) bool {
	shift := from - to
	if shift < 0 {
		shift = -shift
	}
	if shift > 18 {
		return false
	}
	if to == from {
		if sel == nil {
			copy(out[:n], a[:n])
		} else {
			for _, i := range sel {
				out[i] = a[i]
			}
		}
		return true
	}
	var body func(i int32) bool
	if to > from {
		m := types.Pow10(to - from).ToInt64()
		body = func(i int32) bool {
			if hasNulls && nulls[i] != 0 {
				return true
			}
			r, tag := mulOvf64(int64(a[i].Lo), m)
			if tag != 0 {
				return false
			}
			out[i] = types.Decimal128{Hi: r >> 63, Lo: uint64(r)}
			return true
		}
	} else {
		div := types.Pow10(from - to).ToInt64()
		body = func(i int32) bool {
			if hasNulls && nulls[i] != 0 {
				return true
			}
			x := int64(a[i].Lo)
			q, r := x/div, x%div
			if r < 0 {
				r = -r
			}
			if r*2 >= div { // round half away from zero
				if x >= 0 {
					q++
				} else {
					q--
				}
			}
			out[i] = types.Decimal128{Hi: q >> 63, Lo: uint64(q)}
			return true
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			if !body(int32(i)) {
				return false
			}
		}
		return true
	}
	for _, i := range sel {
		if !body(i) {
			return false
		}
	}
	return true
}

// SelCmpDec64VS appends rows where the narrow value int64(a[i].Lo) <op> s.
// The vector must carry Dec64All metadata; s must itself be narrow. Unlike
// arithmetic, comparison needs no escape: NULL rows never match, and all
// active non-NULL rows are narrow by contract.
func SelCmpDec64VS(op CmpOp, a []types.Decimal128, s int64, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k := cmpTest(op), len(out)
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(int64(x.Lo), s))
		}
	case sel == nil:
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(int64(x.Lo), s)) & live(nulls[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(int64(a[i].Lo), s))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(int64(a[i].Lo), s)) & live(nulls[i])
		}
	}
	return out[:k]
}

// SelCmpDec64VV appends rows where int64(a[i].Lo) <op> int64(b[i].Lo). Both
// vectors must carry Dec64All metadata and share a scale.
func SelCmpDec64VV(op CmpOp, a, b []types.Decimal128, nulls1, nulls2 []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	t, k := cmpTest(op), len(out)
	out = room(out, n, sel)
	switch {
	case sel == nil && !hasNulls:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(int64(x.Lo), int64(b[i].Lo)))
		}
	case sel == nil:
		b := b[:n]
		for i, x := range a[:n] {
			out[k] = int32(i)
			k += pass(t, outcome(int64(x.Lo), int64(b[i].Lo))) & live(nulls1[i]|nulls2[i])
		}
	case !hasNulls:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(int64(a[i].Lo), int64(b[i].Lo)))
		}
	default:
		for _, i := range sel {
			out[k] = i
			k += pass(t, outcome(int64(a[i].Lo), int64(b[i].Lo))) & live(nulls1[i]|nulls2[i])
		}
	}
	return out[:k]
}

// dec64HashNegK is the two's-complement negation of the decimal hash-lane
// multiplier 0x9e3779b97f4a7c15.
const dec64HashNegK uint64 = 0x61c8864680b583eb

// Dec64HashLanes fills the decimal key-hash input lanes for a narrow vector
// without touching the high limbs: for narrow values Hi is sext(Lo), so the
// wide lane Lo ^ uint64(Hi)*K collapses to Lo ^ (signMask & -K) — byte
// identical, branch-free, and half the memory traffic.
func Dec64HashLanes(a []types.Decimal128, out []uint64, n int) {
	a, o := a[:n], out[:n]
	for i := range o {
		lo := a[i].Lo
		o[i] = lo ^ (uint64(int64(lo)>>63) & dec64HashNegK)
	}
}
