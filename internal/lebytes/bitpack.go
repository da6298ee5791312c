package lebytes

import (
	"encoding/binary"
	"fmt"
)

// BitPack appends vals (each < 2^width) packed width bits apiece, low bits
// first — the bit-packed run of Parquet dictionary indices (§6.1's
// "optimized bit-packing") and of shuffle dictionary blocks.
func BitPack(dst []byte, vals []uint32, width int) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	accBits := 0
	for _, v := range vals {
		acc |= uint64(v) << accBits
		accBits += width
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// Word returns the 64 bits of src starting at byte i, zero-extended past
// the end of src.
func Word(src []byte, i int) uint64 {
	if i+8 <= len(src) {
		return binary.LittleEndian.Uint64(src[i:])
	}
	var w uint64
	for k := len(src) - 1; k >= i; k-- {
		w = w<<8 | uint64(src[k])
	}
	return w
}

// BitUnpack fills dst with the len(dst) width-bit values of src that start
// at value index start, a 64-bit word at a time: each value is one shift and
// mask of the word holding its first bit (width ≤ 32, so a value never
// reaches past that word's 57 usable bits).
func BitUnpack(dst []uint32, src []byte, width, start int) error {
	if width == 0 {
		clear(dst)
		return nil
	}
	if width > 32 {
		return fmt.Errorf("bit width %d", width)
	}
	bit := start * width
	if need := (bit + len(dst)*width + 7) / 8; len(src) < need {
		return fmt.Errorf("bit-packed run truncated: have %d bytes, need %d", len(src), need)
	}
	mask := uint64(1)<<width - 1
	for i := range dst {
		dst[i] = uint32(Word(src, bit>>3) >> (bit & 7) & mask)
		bit += width
	}
	return nil
}
