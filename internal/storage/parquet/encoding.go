package parquet

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"photon/internal/lebytes"
	"photon/internal/types"
	"photon/internal/vector"
)

// Column chunk wire layout (before compression):
//
//	u32 numValues
//	u8  hasNulls; if 1: bit-packed validity bitmap (1 bit per value, 1=valid)
//	encoding payload:
//	  PLAIN: values back to back (strings: u32 len + bytes each)
//	  DICT:  u32 dictCount, PLAIN dictionary, u8 bitWidth, u32 count, packed indices
//	  FOR:   i64 base, u8 bitWidth, u32 count, packed offsets (value − base)
//
// Both bit-packed runs hold one entry per non-NULL row. The writer stores a
// chunk of a forType as FOR whenever its values span less than 2^32; the
// base is in the chunk, so decoding never trusts the footer's statistics.

// forType reports whether chunks of type t may be stored as FOR: the
// integer-valued types, decimals included (the writer uses FOR for a decimal
// chunk only when its values fit int64).
func forType(t types.TypeID) bool {
	switch t {
	case types.Int32, types.Date, types.Int64, types.Timestamp, types.Decimal:
		return true
	}
	return false
}

// appendFOR appends the FOR payload of a chunk held in vecs, base its
// minimum and width the bits of its span, and returns it with offs, the
// scratch the offsets were gathered in.
func appendFOR(dst []byte, vecs []*vector.Vector, base int64, width int, offs []uint32) ([]byte, []uint32) {
	offs = offs[:0]
	for _, v := range vecs {
		var nulls []byte
		if v.HasNulls() {
			nulls = v.Nulls
		}
		n := v.Capacity()
		switch v.Type.ID {
		case types.Int32, types.Date:
			offs = appendOffsets(offs, v.I32[:n], nulls, base)
		case types.Int64, types.Timestamp:
			offs = appendOffsets(offs, v.I64[:n], nulls, base)
		case types.Decimal:
			for i, d := range v.Dec[:n] {
				if nulls == nil || nulls[i] == 0 {
					offs = append(offs, uint32(d.ToInt64()-base))
				}
			}
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(base))
	dst = append(dst, byte(width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(offs)))
	return lebytes.BitPack(dst, offs, width), offs
}

// appendOffsets appends vals[i] − base for each non-NULL row i (nulls nil:
// none are NULL).
func appendOffsets[T int32 | int64](offs []uint32, vals []T, nulls []byte, base int64) []uint32 {
	for i, x := range vals {
		if nulls == nil || nulls[i] == 0 {
			offs = append(offs, uint32(int64(x)-base))
		}
	}
	return offs
}

// widen writes base + offs[i] to dst[i], the inverse of appendOffsets.
func widen[T int32 | int64](dst []T, offs []uint32, base int64) {
	for i, o := range offs {
		dst[i] = T(base + int64(o))
	}
}

// bitWidthFor returns the bits needed to represent values in [0, n).
func bitWidthFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len32(uint32(n - 1))
}

// packValidity appends nulls' validity bits (1 = valid) to a bitmap that
// already holds bit bits in dst, and returns both. Segments of any length
// pack back to back: the bitmap is one run of bits per chunk.
func packValidity(dst []byte, bit int, nulls []byte) ([]byte, int) {
	for _, nb := range nulls {
		if bit&7 == 0 {
			dst = append(dst, 0)
		}
		if nb == 0 {
			dst[len(dst)-1] |= 1 << (bit & 7)
		}
		bit++
	}
	return dst, bit
}

// unpackValidity writes len(nulls) NULL bytes (1 = NULL) from the validity
// bitmap src, starting at row start, and returns how many are NULL. Whole
// 64-row words that are all valid — the common case — cost one compare.
func unpackValidity(nulls []byte, src []byte, start int) (nullCount int) {
	for i := 0; i < len(nulls); i += 64 {
		bit := start + i
		n := min(64, len(nulls)-i)
		w := lebytes.Word(src, bit>>3) >> (bit & 7)
		if bit&7 != 0 && n > 64-bit&7 {
			w |= uint64(src[bit>>3+8]) << (64 - bit&7)
		}
		if n < 64 {
			w |= ^uint64(0) << n
		}
		out := nulls[i : i+n]
		if w == ^uint64(0) {
			clear(out)
			continue
		}
		nullCount += bits.OnesCount64(^w)
		for k := range out {
			out[k] = byte(^w >> k & 1)
		}
	}
	return nullCount
}

// appendPlain appends v's n rows in PLAIN encoding, skipping NULL rows. A
// NULL-free run of fixed-width values is one bulk copy.
func appendPlain(dst []byte, v *vector.Vector, n int) []byte {
	hasNulls := v.HasNulls()
	if v.Type.ID == types.String {
		for i, s := range v.Str[:n] {
			if hasNulls && v.Nulls[i] != 0 {
				continue
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
		return dst
	}
	for lo := 0; lo < n; {
		hi := n
		if hasNulls {
			for lo < n && v.Nulls[lo] != 0 {
				lo++
			}
			for hi = lo; hi < n && v.Nulls[hi] == 0; hi++ {
			}
		}
		switch v.Type.ID {
		case types.Bool:
			dst = append(dst, v.Bool[lo:hi]...)
		case types.Int32, types.Date:
			dst = lebytes.Append4(dst, v.I32[lo:hi])
		case types.Int64, types.Timestamp:
			dst = lebytes.Append8(dst, v.I64[lo:hi])
		case types.Float64:
			dst = lebytes.Append8(dst, v.F64[lo:hi])
		case types.Decimal:
			dst = lebytes.Append16(dst, v.Dec[lo:hi])
		default:
			panic("parquet: unsupported type")
		}
		lo = hi
	}
	return dst
}

// spread moves the nv values packed at the front of v to the slots of the
// valid rows of nulls (one byte per row of v), zeroing the NULL slots. It
// works back to front, so no value is overwritten before it has moved, and
// stops once the values still to move are already in place.
func spread[T any](v []T, nulls []byte, nv int) {
	var zero T
	for i := len(nulls) - 1; i >= nv; i-- {
		if nulls[i] != 0 {
			v[i] = zero
		} else {
			nv--
			v[i] = v[nv]
		}
	}
}

// readPlain decodes one batch of a PLAIN run: the k rows of v take the next
// nv = k − (NULLs in v.Nulls[:k]) values of src, NULL slots are zeroed, and
// the rest of src is returned. Fixed-width values are bounds-checked once
// and copied in bulk; NULLs, when the batch has any, are opened up after.
func readPlain(src []byte, v *vector.Vector, k, nv int) ([]byte, error) {
	if v.Type.ID == types.String {
		for i := range v.Str[:k] {
			if v.Nulls[i] != 0 {
				v.Str[i] = nil
				continue
			}
			if len(src) < 4 {
				return nil, fmt.Errorf("parquet: PLAIN data truncated")
			}
			l := int(binary.LittleEndian.Uint32(src))
			if len(src)-4 < l {
				return nil, fmt.Errorf("parquet: PLAIN data truncated")
			}
			v.Str[i] = src[4 : 4+l : 4+l]
			src = src[4+l:]
		}
		return src, nil
	}
	size := nv * v.Type.FixedWidth()
	if len(src) < size {
		return nil, fmt.Errorf("parquet: PLAIN data truncated")
	}
	nulls := v.Nulls[:k]
	switch v.Type.ID {
	case types.Bool:
		copy(v.Bool[:nv], src)
		spread(v.Bool[:k], nulls, nv)
	case types.Int32, types.Date:
		lebytes.Get4(v.I32[:nv], src)
		spread(v.I32[:k], nulls, nv)
	case types.Int64, types.Timestamp:
		lebytes.Get8(v.I64[:nv], src)
		spread(v.I64[:k], nulls, nv)
	case types.Float64:
		lebytes.Get8(v.F64[:nv], src)
		spread(v.F64[:k], nulls, nv)
	case types.Decimal:
		lebytes.Get16(v.Dec[:nv], src)
		spread(v.Dec[:k], nulls, nv)
	default:
		return nil, fmt.Errorf("parquet: unsupported type %v", v.Type)
	}
	return src[size:], nil
}
