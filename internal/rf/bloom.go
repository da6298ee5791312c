// Package rf implements runtime filters: per-join-key filters derived from
// a hash join's build side and pushed to the probe side before it is
// scanned, shuffled, or probed. A filter over integer keys is an exact set —
// a bitset over its keys' [min, max] — while that takes no more bits than a
// Bloom filter sized for the build; otherwise, and for every other key type,
// it is a register-blocked split-block Bloom filter over key hashes, behind a
// min/max range for fixed-width orderable keys. Filters are strictly
// best-effort — a Bloom filter may pass rows that do not join (false
// positives, range slack) — but never drop a row that would join, so
// discarding a filter can only cost speed, never correctness.
package rf

import "photon/internal/kernels"

// Split-block Bloom filter (the Parquet/Impala design): the filter is an
// array of 256-bit blocks (8 x 32-bit words). A key sets exactly one bit in
// each word of one block, so an insert or probe touches a single cache line
// and the per-word bit positions are computed with independent odd
// multipliers — a SWAR-friendly, branch-free loop.

const (
	blockWords = 8
	// BitsPerKey is the design density: ~16 bits per expected build key
	// gives a theoretical false-positive rate well under 0.1%.
	BitsPerKey = 16
	// minBlocks/maxBlocks clamp the filter between 512 bytes and 1 MiB so
	// tiny build sides still get a useful filter and misestimated giant
	// ones cannot exhaust memory (an oversized build side only degrades
	// the false-positive rate, never correctness).
	minBlocks = 16
	maxBlocks = 1 << 15
)

// salt holds the per-word odd multipliers of the split-block design.
var salt = [blockWords]uint32{
	0x47b6137b, 0x44974d91, 0x8824ad5b, 0xa2b7289d,
	0x705495c7, 0x2df1424b, 0x9efc4947, 0x5c6bfb31,
}

// Bloom is a split-block Bloom filter over 64-bit key hashes.
type Bloom struct {
	words []uint32
	mask  uint64 // numBlocks - 1 (numBlocks is a power of two)
}

// NewBloom sizes a filter for the expected number of distinct keys at
// BitsPerKey density. All tasks of a producer stage must size from the same
// estimate so their partial filters can be unioned word-for-word.
func NewBloom(expectedKeys int64) *Bloom { return newBloom(bloomBits(expectedKeys)) }

// bloomBits is the size in bits of the filter NewBloom sizes for
// expectedKeys.
func bloomBits(expectedKeys int64) int64 {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	blocks := kernels.NextPow2(uint64(expectedKeys*BitsPerKey) / (blockWords * 32))
	if blocks < minBlocks {
		blocks = minBlocks
	}
	if blocks > maxBlocks {
		blocks = maxBlocks
	}
	return int64(blocks) * blockWords * 32
}

// newBloom makes an empty filter of bits bits, a size bloomBits returned.
func newBloom(bits int64) *Bloom {
	blocks := uint64(bits) / (blockWords * 32)
	return &Bloom{words: make([]uint32, blocks*blockWords), mask: blocks - 1}
}

// NumBits returns the filter's size in bits.
func (b *Bloom) NumBits() int64 { return int64(len(b.words)) * 32 }

// block returns the 8-word block for hash h. The block index consumes the
// high hash bits; the low 32 bits drive the in-block bit positions, so the
// two are independent.
func (b *Bloom) block(h uint64) []uint32 {
	i := ((h >> 32) & b.mask) * blockWords
	return b.words[i : i+blockWords : i+blockWords]
}

// Add inserts a key hash.
func (b *Bloom) Add(h uint64) {
	w := b.block(h)
	x := uint32(h)
	w[0] |= 1 << (x * salt[0] >> 27)
	w[1] |= 1 << (x * salt[1] >> 27)
	w[2] |= 1 << (x * salt[2] >> 27)
	w[3] |= 1 << (x * salt[3] >> 27)
	w[4] |= 1 << (x * salt[4] >> 27)
	w[5] |= 1 << (x * salt[5] >> 27)
	w[6] |= 1 << (x * salt[6] >> 27)
	w[7] |= 1 << (x * salt[7] >> 27)
}

// MayContain reports whether h may have been added. No false negatives;
// false positives at roughly the design rate. The check accumulates the
// missing bits of all eight words without branching (SWAR-style) so probe
// loops stay tight.
func (b *Bloom) MayContain(h uint64) bool {
	w := b.block(h)
	x := uint32(h)
	miss := ^w[0] & (1 << (x * salt[0] >> 27))
	miss |= ^w[1] & (1 << (x * salt[1] >> 27))
	miss |= ^w[2] & (1 << (x * salt[2] >> 27))
	miss |= ^w[3] & (1 << (x * salt[3] >> 27))
	miss |= ^w[4] & (1 << (x * salt[4] >> 27))
	miss |= ^w[5] & (1 << (x * salt[5] >> 27))
	miss |= ^w[6] & (1 << (x * salt[6] >> 27))
	miss |= ^w[7] & (1 << (x * salt[7] >> 27))
	return miss == 0
}

// Union ORs o into b. Both filters must have been sized from the same
// estimate (equal word counts); mismatched sizes report false and leave b
// unchanged, and the caller should drop the filter (best-effort semantics).
func (b *Bloom) Union(o *Bloom) bool {
	if o == nil || len(b.words) != len(o.words) {
		return false
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
	return true
}
