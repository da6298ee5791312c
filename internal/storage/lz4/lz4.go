// Package lz4 implements the LZ4 block format (compress + decompress),
// needed because the paper's Parquet path compresses with LZ4 (§6.1) and the
// Go standard library has no LZ4 codec.
//
// The compressor is a greedy single-pass matcher with a 16-bit hash chain,
// like the reference LZ4 fast path. The format is the standard block
// format: sequences of [token][literal-length*][literals][offset][match-
// length*], ending with a literals-only sequence.
package lz4

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

const (
	minMatch     = 4
	lastLiterals = 5     // spec: last 5 bytes are always literals
	mfLimit      = 12    // spec: no match may start within 12 bytes of the end
	maxOffset    = 65535 // 16-bit offsets
	hashLog      = 16
	hashShift    = (minMatch * 8) - hashLog
)

func hash4(u uint32) uint32 {
	return (u * 2654435761) >> hashShift
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

// CompressBound returns the maximum compressed size for n input bytes.
func CompressBound(n int) int {
	return n + n/255 + 16
}

// Compressor compresses blocks with a hash table it keeps from one call to
// the next: an entry holds base + position + 1 of the last occurrence of its
// hash in the call that wrote it. Each call ends by raising base past every
// entry it wrote, so an entry ≤ base is stale and reads as empty — a block
// costs its own bytes, not a 256 KB clear. The zero value is ready to use; a
// writer owns one for as long as it writes and drops it with its buffers.
type Compressor struct {
	table [1 << hashLog]uint32
	base  uint32
}

// Compress appends the LZ4 block of src to dst and returns it, as a one-off
// Compressor would.
func Compress(dst, src []byte) []byte {
	var c Compressor
	return c.Compress(dst, src)
}

// Compress appends the LZ4 block of src to dst and returns it. The bytes are
// the same whatever the Compressor compressed before.
func (c *Compressor) Compress(dst, src []byte) []byte {
	n := len(src)
	dst = slices.Grow(dst, CompressBound(n))
	if n < mfLimit+1 {
		return emitLastLiterals(dst, src)
	}
	if uint64(c.base)+uint64(n) > math.MaxUint32 {
		clear(c.table[:])
		c.base = 0
	}
	base := c.base
	c.base += uint32(n)

	anchor := 0
	i := 0
	limit := n - mfLimit
	matchEnd := n - lastLiterals
	for i < limit {
		seq := load32(src, i)
		h := hash4(seq)
		e := c.table[h]
		c.table[h] = base + uint32(i) + 1
		if e <= base {
			i++
			continue
		}
		cand := int(e - base - 1)
		if i-cand > maxOffset || load32(src, cand) != seq {
			i++
			continue
		}
		// Extend the match forward, eight bytes at a time.
		matchLen := minMatch
		for i+matchLen+8 <= matchEnd {
			if x := load64(src, cand+matchLen) ^ load64(src, i+matchLen); x != 0 {
				matchLen += bits.TrailingZeros64(x) >> 3
				goto emit
			}
			matchLen += 8
		}
		for i+matchLen < matchEnd && src[cand+matchLen] == src[i+matchLen] {
			matchLen++
		}
	emit:
		dst = emitSequence(dst, src[anchor:i], i-cand, matchLen)
		i += matchLen
		anchor = i
	}
	return emitLastLiterals(dst, src[anchor:])
}

// emitSequence writes one token + literals + match.
func emitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	mlCode := matchLen - minMatch
	token := byte(0)
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	if mlCode >= 15 {
		token |= 0x0F
	} else {
		token |= byte(mlCode)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if mlCode >= 15 {
		dst = appendLenExt(dst, mlCode-15)
	}
	return dst
}

// emitLastLiterals writes the final literals-only sequence.
func emitLastLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= 15 {
		dst = append(dst, 0xF0)
		dst = appendLenExt(dst, litLen-15)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func appendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// readLenExt adds a length's continuation bytes (each 255 means "more").
func readLenExt(src []byte, si, v int) (int, int, bool) {
	for si < len(src) {
		b := src[si]
		si++
		v += int(b)
		if b != 255 {
			return si, v, true
		}
	}
	return si, v, false
}

// Decompress expands an LZ4 block into dst, which must be pre-sized to the
// exact decompressed length. Returns the bytes written.
//
// A match that does not overlap itself is one copy; one that overlaps at a
// distance of eight or more moves in 8-byte words, each load at least eight
// bytes behind its store; the byte loop remains for closer overlaps.
func Decompress(dst, src []byte) (int, error) {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		si++
		litLen := int(token >> 4)
		matchLen := int(token&0x0F) + minMatch
		// Literals.
		if litLen == 15 {
			var ok bool
			if si, litLen, ok = readLenExt(src, si, litLen); !ok {
				return 0, fmt.Errorf("lz4: truncated literal length")
			}
		}
		if litLen > len(src)-si || litLen > len(dst)-di {
			return 0, fmt.Errorf("lz4: literal overrun (lit=%d)", litLen)
		}
		copy(dst[di:], src[si:si+litLen])
		si += litLen
		di += litLen
		if si >= len(src) {
			return di, nil // final literals-only sequence
		}
		// Match.
		if si+2 > len(src) {
			return 0, fmt.Errorf("lz4: truncated offset")
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return 0, fmt.Errorf("lz4: invalid offset %d at %d", offset, di)
		}
		if matchLen == 15+minMatch {
			var ok bool
			if si, matchLen, ok = readLenExt(src, si, matchLen); !ok {
				return 0, fmt.Errorf("lz4: truncated match length")
			}
		}
		if matchLen > len(dst)-di {
			return 0, fmt.Errorf("lz4: match overrun")
		}
		m := di - offset
		switch {
		case offset >= matchLen:
			copy(dst[di:di+matchLen], dst[m:])
		case offset >= 8 && matchLen+8 <= len(dst)-di:
			for k := 0; k < matchLen; k += 8 {
				*(*[8]byte)(dst[di+k:]) = *(*[8]byte)(dst[m+k:])
			}
		default:
			for k := 0; k < matchLen; k++ {
				dst[di+k] = dst[m+k]
			}
		}
		di += matchLen
	}
	return di, nil
}

// MaxExpansion is the most an LZ4 block can grow on decompression: a match
// length byte adds 255 bytes of output. A length claimed for a block's
// output is checked against it before a buffer is sized from it.
const MaxExpansion = 255
