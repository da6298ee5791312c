package kernels

import (
	"bytes"
	"encoding/binary"
	"strings"
	"unicode"
	"unicode/utf8"

	"photon/internal/mem"
)

// String kernels. The ASCII check and ASCII upper-casing use SWAR (SIMD
// within a register, 8 bytes per step) as this build's stand-in for the
// paper's hand-written SIMD intrinsics (§6.1, Fig. 6): ASCII strings are
// uppercased with byte-wise arithmetic while general UTF-8 goes through the
// Unicode-table path, exactly the specialization Photon adapts between at
// runtime based on per-vector ASCII metadata (§4.6).

const hiBits = 0x8080808080808080

// IsASCII reports whether b contains only bytes < 0x80, scanning 8 bytes at
// a time.
func IsASCII(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b)&hiBits != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// CheckASCII scans the active strings and reports whether all are ASCII.
// Operators cache the result as vector-level metadata.
func CheckASCII(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int) bool {
	body := func(i int32) bool {
		if hasNulls && nulls[i] != 0 {
			return true
		}
		return IsASCII(vals[i])
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

// upperASCII8 uppercases 8 ASCII bytes at once: for each byte in 'a'..'z',
// clear bit 5. Classic SWAR range test: a byte c is in [lo,hi] iff
// (c + (0x80-lo-? ...)) — implemented as (c >= lo) AND (c <= hi) via
// borrow/carry tricks on the high bit.
func upperASCII8(v uint64) uint64 {
	// ge: high bit set for bytes >= 'a'
	ge := (v | hiBits) - (0x6161616161616161 &^ hiBits) // v - 'a' with saturating borrow into bit 7
	ge &= hiBits
	// le: high bit set for bytes <= 'z'  <=>  NOT (bytes >= '{')
	gt := (v | hiBits) - (0x7b7b7b7b7b7b7b7b &^ hiBits)
	le := ^gt & hiBits
	mask := (ge & le) >> 2 // 0x80 -> 0x20 per lowercase byte
	return v &^ mask
}

// lowerASCII8 lowercases 8 ASCII bytes at once ('A'..'Z' gain bit 5).
func lowerASCII8(v uint64) uint64 {
	ge := (v | hiBits) - (0x4141414141414141 &^ hiBits)
	ge &= hiBits
	gt := (v | hiBits) - (0x5b5b5b5b5b5b5b5b &^ hiBits)
	le := ^gt & hiBits
	mask := (ge & le) >> 2
	return v | mask
}

// UpperASCIIInto uppercases ASCII src into dst (same length) with SWAR.
func UpperASCIIInto(dst, src []byte) {
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], upperASCII8(binary.LittleEndian.Uint64(src[i:])))
	}
	for ; i < n; i++ {
		c := src[i]
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		dst[i] = c
	}
}

// LowerASCIIInto lowercases ASCII src into dst with SWAR.
func LowerASCIIInto(dst, src []byte) {
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], lowerASCII8(binary.LittleEndian.Uint64(src[i:])))
	}
	for ; i < n; i++ {
		c := src[i]
		if c >= 'A' && c <= 'Z' {
			c += 32
		}
		dst[i] = c
	}
}

// UpperASCIIV uppercases active rows via the SWAR fast path, allocating
// output payloads from the arena.
func UpperASCIIV(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, arena *mem.Arena, out [][]byte) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		src := vals[i]
		dst := arena.Alloc(len(src))
		UpperASCIIInto(dst, src)
		out[i] = dst
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
}

// LowerASCIIV lowercases active rows via the SWAR fast path.
func LowerASCIIV(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, arena *mem.Arena, out [][]byte) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		src := vals[i]
		dst := arena.Alloc(len(src))
		LowerASCIIInto(dst, src)
		out[i] = dst
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
}

// UpperUTF8V is the general Unicode-table path ("ICU" in the paper's Fig. 6
// baseline): decode each rune, map through the Unicode case tables,
// re-encode. Used when the vector's ASCII metadata says mixed, or when
// adaptivity is disabled for ablation.
func UpperUTF8V(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, out [][]byte) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		out[i] = []byte(strings.ToUpper(string(vals[i])))
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
}

// LowerUTF8V is the general Unicode lower-casing path.
func LowerUTF8V(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, out [][]byte) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		out[i] = []byte(strings.ToLower(string(vals[i])))
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
}

// LengthV computes character length per active row: byte length on the
// ASCII fast path, rune count on the general path.
func LengthV(vals [][]byte, nulls []byte, hasNulls bool, ascii bool, sel []int32, n int, out []int32) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		if ascii {
			out[i] = int32(len(vals[i]))
		} else {
			out[i] = int32(utf8.RuneCount(vals[i]))
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
}

// SubstrV computes SUBSTRING(s, start, length) with 1-based start (SQL
// semantics) per active row, slicing bytes on the ASCII fast path.
func SubstrV(vals [][]byte, nulls []byte, hasNulls bool, ascii bool, start, length int, sel []int32, n int, out [][]byte) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		out[i] = substrOne(vals[i], start, length, ascii)
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
}

func substrOne(s []byte, start, length int, ascii bool) []byte {
	if length <= 0 {
		return s[:0]
	}
	if ascii {
		from := start - 1
		if start <= 0 { // SQL: start 0 behaves as 1; negative counts from end
			if start == 0 {
				from = 0
			} else {
				from = len(s) + start
				if from < 0 {
					length += from
					from = 0
					if length <= 0 {
						return s[:0]
					}
				}
			}
		}
		if from >= len(s) {
			return s[:0]
		}
		to := from + length
		if to > len(s) {
			to = len(s)
		}
		return s[from:to]
	}
	// Rune-aware general path.
	runes := []rune(string(s))
	from := start - 1
	if start <= 0 {
		if start == 0 {
			from = 0
		} else {
			from = len(runes) + start
			if from < 0 {
				length += from
				from = 0
				if length <= 0 {
					return s[:0]
				}
			}
		}
	}
	if from >= len(runes) {
		return s[:0]
	}
	to := from + length
	if to > len(runes) {
		to = len(runes)
	}
	return []byte(string(runes[from:to]))
}

// ConcatVV concatenates two string vectors per active row via the arena.
func ConcatVV(a, b [][]byte, outNulls []byte, sel []int32, n int, arena *mem.Arena, out [][]byte) {
	body := func(i int32) {
		if outNulls[i] != 0 {
			return
		}
		dst := arena.Alloc(len(a[i]) + len(b[i]))
		copy(dst, a[i])
		copy(dst[len(a[i]):], b[i])
		out[i] = dst
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
}

// TrimV trims leading/trailing ASCII spaces per active row.
func TrimV(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, out [][]byte) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		s := vals[i]
		for len(s) > 0 && s[0] == ' ' {
			s = s[1:]
		}
		for len(s) > 0 && s[len(s)-1] == ' ' {
			s = s[:len(s)-1]
		}
		out[i] = s
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
}

// LikePattern is a compiled SQL LIKE pattern: segments separated by %
// wildcards. A segment keeps its literal bytes and the places of its _
// wildcards apart, so every byte of a pattern, NUL included, is literal
// unless it is % or _. A _ matches one character: one UTF-8 sequence of the
// string, or one byte that starts none, as regexp decodes strings.
type LikePattern struct {
	Raw      string
	segments []likeSeg
	hasUnder bool
	// Fast-path classification.
	kind   likeKind
	needle []byte
}

// likeSeg is the part of a LIKE pattern between two % wildcards.
type likeSeg struct {
	lit   []byte // the literal bytes, _ left out
	under []int  // for each _, in order, the number of literal bytes before it
}

type likeKind uint8

const (
	likeGeneric  likeKind = iota
	likeExact             // no wildcards
	likePrefix            // lit%
	likeSuffix            // %lit
	likeContains          // %lit%
)

// CompileLike parses a LIKE pattern (wildcards % and _, no escape).
func CompileLike(pattern string) *LikePattern {
	p := &LikePattern{Raw: pattern}
	var segs []likeSeg
	cur := likeSeg{lit: []byte{}}
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '%':
			segs = append(segs, cur)
			cur = likeSeg{lit: []byte{}}
		case '_':
			p.hasUnder = true
			cur.under = append(cur.under, len(cur.lit))
		default:
			cur.lit = append(cur.lit, pattern[i])
		}
	}
	segs = append(segs, cur)
	p.segments = segs
	if !p.hasUnder {
		switch {
		case len(segs) == 1:
			p.kind = likeExact
			p.needle = segs[0].lit
		case len(segs) == 2 && len(segs[0].lit) > 0 && len(segs[1].lit) == 0:
			p.kind = likePrefix
			p.needle = segs[0].lit
		case len(segs) == 2 && len(segs[0].lit) == 0 && len(segs[1].lit) > 0:
			p.kind = likeSuffix
			p.needle = segs[1].lit
		case len(segs) == 3 && len(segs[0].lit) == 0 && len(segs[2].lit) == 0:
			p.kind = likeContains
			p.needle = segs[1].lit
		default:
			p.kind = likeGeneric
		}
	}
	return p
}

// Match reports whether s matches the pattern.
func (p *LikePattern) Match(s []byte) bool {
	switch p.kind {
	case likeExact:
		return string(s) == string(p.needle)
	case likePrefix:
		return len(s) >= len(p.needle) && string(s[:len(p.needle)]) == string(p.needle)
	case likeSuffix:
		return len(s) >= len(p.needle) && string(s[len(s)-len(p.needle):]) == string(p.needle)
	case likeContains:
		return bytes.Contains(s, p.needle)
	}
	return p.matchGeneric(s)
}

// matchGeneric anchors the first segment at the start and the last at the
// end, and takes each middle segment at its first match: a segment matched
// earlier ends no later, which leaves the rest of the pattern the most room.
func (p *LikePattern) matchGeneric(s []byte) bool {
	segs := p.segments
	pos := segs[0].matchAt(s, 0)
	if pos < 0 {
		return false
	}
	if len(segs) == 1 {
		return pos == len(s)
	}
	for k := 1; k < len(segs)-1; k++ {
		if pos = segs[k].find(s, pos); pos < 0 {
			return false
		}
	}
	last := &segs[len(segs)-1]
	if len(last.under) == 0 {
		return len(s)-pos >= len(last.lit) && bytes.HasSuffix(s, last.lit)
	}
	for i := pos; ; i += charLen(s, i) {
		if last.matchAt(s, i) == len(s) {
			return true
		}
		if i == len(s) {
			return false
		}
	}
}

// matchAt matches the segment at s[i:], each _ taking one character, and
// returns where the match ends, or -1.
func (g *likeSeg) matchAt(s []byte, i int) int {
	k := 0 // literal bytes matched
	for _, u := range g.under {
		if !bytes.HasPrefix(s[i:], g.lit[k:u]) || i+u-k == len(s) {
			return -1
		}
		i += u - k
		i += charLen(s, i)
		k = u
	}
	if !bytes.HasPrefix(s[i:], g.lit[k:]) {
		return -1
	}
	return i + len(g.lit) - k
}

// find returns where the segment's first match at or after pos ends, or -1.
func (g *likeSeg) find(s []byte, pos int) int {
	if len(g.under) == 0 {
		if j := bytes.Index(s[pos:], g.lit); j >= 0 {
			return pos + j + len(g.lit)
		}
		return -1
	}
	for i := pos; i < len(s); i += charLen(s, i) {
		if end := g.matchAt(s, i); end >= 0 {
			return end
		}
	}
	return -1
}

// charLen is the byte length of the character at s[i]: its UTF-8 sequence,
// or 1 for a byte that starts none.
func charLen(s []byte, i int) int {
	if s[i] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRune(s[i:])
	return n
}

// SelLike appends active rows matching the LIKE pattern.
func SelLike(p *LikePattern, vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, out []int32) []int32 {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			return
		}
		if p.Match(vals[i]) {
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

// UpperRuneSlow is a deliberately rune-at-a-time reference implementation
// used by tests to validate the SWAR kernels.
func UpperRuneSlow(s []byte) []byte {
	out := make([]rune, 0, len(s))
	for _, r := range string(s) {
		out = append(out, unicode.ToUpper(r))
	}
	return []byte(string(out))
}
