// Package shuffle implements the data-exchange layer (§5.2, §6.4): hash
// partitioning, the engine's one columnar block format with runtime-
// adaptive encodings, and the baseline row-oriented serialization.
//
// This package owns the block: its layout, encodings, header and checksum
// (this file). A block is [u32 checksum][u32 length][encoded rows], and
// exactly one function, BlockDecoder.Decode, verifies one and decodes it.
// Exchange files are sequences of blocks, stored uncompressed; spill
// streams (package serde) are too. The format is engine-private (§5.2): a
// block is read back by the engine build that wrote it.
//
// The adaptive encoder reproduces §4.6/Table 1: string columns whose values
// are canonical 36-character UUIDs are detected per batch and re-encoded as
// 128-bit integers (2.25x smaller); low-cardinality string columns
// dictionary-encode. Both adaptations shrink the bytes written and read.
package shuffle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"photon/internal/kernels"
	"photon/internal/lebytes"
	"photon/internal/types"
	"photon/internal/vector"
)

// A block is [u32 checksum][u32 length][length encoded bytes], the checksum
// taken over the length and the encoded bytes.
const (
	checksumLen = 4
	// BlockHeader is the size of a block's header.
	BlockHeader = checksumLen + 4
)

// blockChecksum is the per-block integrity checksum written ahead of every
// block's length and bytes: the engine's bytes hash folded to 32 bits. It
// catches truncations, bit flips, and torn writes.
func blockChecksum(b []byte) uint32 {
	h := kernels.HashBytesOne(b)
	return uint32(h) ^ uint32(h>>32)
}

// sealBlock fills in the header of a block laid out after BlockHeader bytes.
func sealBlock(frame []byte) {
	binary.LittleEndian.PutUint32(frame[checksumLen:], uint32(len(frame)-BlockHeader))
	binary.LittleEndian.PutUint32(frame, blockChecksum(frame[checksumLen:]))
}

// BlockSize returns the size of the block whose header h is: the header and
// the length it states. Nothing else in a header is trusted before Decode.
func BlockSize(h []byte) int {
	return BlockHeader + int(binary.LittleEndian.Uint32(h[checksumLen:]))
}

// ColEncoding is the per-column, per-block encoding choice.
type ColEncoding uint8

// Column encodings.
const (
	EncPlain ColEncoding = iota
	EncUUID              // canonical UUID strings as 16-byte values
	EncDict              // dictionary + bit-packed indices
)

// EncoderOptions control adaptivity (Table 1's three configurations).
type EncoderOptions struct {
	// Adaptive enables runtime encoding detection (UUID, dictionary).
	Adaptive bool
}

// Block wire layout (after the block header, see BlockHeader):
//
//	u32 rows
//	per column: u8 encoding, u8 hasNulls, [rows NULL bytes],
//	  PLAIN fixed width: rows values, NULL slots included
//	  PLAIN string:      u32 len + bytes per valid row
//	  UUID:              16 bytes per valid row
//	  DICT:              u32 count, PLAIN string entries, u8 width, u32 n,
//	                     n bit-packed indices, one per valid row

// BlockEncoder serializes dense batches. Its dictionary state is reused from
// block to block, so encoding allocates nothing once warm. The zero value
// writes every column PLAIN.
type BlockEncoder struct {
	opts EncoderOptions
	// counts, when non-nil, tallies the per-column encoding decisions
	// (indexed by ColEncoding) — the §4.6 adaptivity statistic surfaced in
	// profiles.
	counts *[3]int64

	// Dictionary under construction: an open-addressed table of value
	// index + 1 (0 = empty), the distinct values, one index per valid row.
	slots   []uint32
	values  [][]byte
	indices []uint32
}

// AppendBlock appends one sealed block holding b's rows to dst. b is dense
// (no selection vector). A nil b appends an empty block, which Decode
// reports as io.EOF: the end marker of a stream.
func (e *BlockEncoder) AppendBlock(dst []byte, b *vector.Batch) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, BlockHeader)...)
	if b != nil {
		dst = e.encodeBlock(dst, b)
	}
	sealBlock(dst[at:])
	return dst
}

// encodeBlock appends the encoded rows of dense b.
func (e *BlockEncoder) encodeBlock(dst []byte, b *vector.Batch) []byte {
	n := b.NumRows
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, v := range b.Vecs {
		dst = e.encodeColumn(dst, v, n)
	}
	return dst
}

func (e *BlockEncoder) encodeColumn(dst []byte, v *vector.Vector, n int) []byte {
	hasNulls := v.HasNulls()
	nulls := v.Nulls[:n]
	valid := n
	if hasNulls {
		for _, nb := range nulls {
			if nb != 0 {
				valid--
			}
		}
	}
	enc := EncPlain
	if e.opts.Adaptive && v.Type.ID == types.String && valid > 0 {
		if allUUIDs(v.Str[:n], nulls, hasNulls) {
			enc = EncUUID
		} else if e.buildDict(v.Str[:n], nulls, hasNulls, valid) {
			enc = EncDict
		}
	}
	if e.counts != nil {
		e.counts[enc]++
	}
	dst = append(dst, byte(enc), 0)
	if hasNulls {
		dst[len(dst)-1] = 1
		dst = append(dst, nulls...)
	}
	switch enc {
	case EncDict:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.values)))
		for _, s := range e.values {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
		width := bitWidthFor(len(e.values))
		dst = append(dst, byte(width))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.indices)))
		return lebytes.BitPack(dst, e.indices, width)
	case EncUUID:
		var u [16]byte
		for i, s := range v.Str[:n] {
			if hasNulls && nulls[i] != 0 {
				continue
			}
			types.ParseUUID(s, &u)
			dst = append(dst, u[:]...)
		}
		return dst
	}
	switch v.Type.ID {
	case types.Bool:
		dst = append(dst, v.Bool[:n]...)
	case types.Int32, types.Date:
		dst = lebytes.Append4(dst, v.I32[:n])
	case types.Int64, types.Timestamp:
		dst = lebytes.Append8(dst, v.I64[:n])
	case types.Float64:
		dst = lebytes.Append8(dst, v.F64[:n])
	case types.Decimal:
		dst = lebytes.Append16(dst, v.Dec[:n])
	case types.String:
		for i, s := range v.Str[:n] {
			if hasNulls && nulls[i] != 0 {
				continue
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// allUUIDs detects the canonical-UUID pattern over the block (§4.6: Photon
// detects string columns with UUIDs before writing a shuffle file).
func allUUIDs(strs [][]byte, nulls []byte, hasNulls bool) bool {
	for i, s := range strs {
		if hasNulls && nulls[i] != 0 {
			continue
		}
		if !types.IsCanonicalUUID(s) {
			return false
		}
	}
	return true
}

const (
	dictMaxValues = 4096
	dictMaxRatio  = 0.5
)

// buildDict dictionary-encodes the block's valid strings into e.values and
// e.indices. It gives up — returns false — at the first value that takes
// the dictionary past dictMaxValues or past dictMaxRatio of the valid rows,
// since neither bound can be met again once missed.
func (e *BlockEncoder) buildDict(strs [][]byte, nulls []byte, hasNulls bool, valid int) bool {
	limit := min(dictMaxValues, int(dictMaxRatio*float64(valid)))
	size := 1 << bits.Len(uint(2*limit)) // a power of two, at most half full
	e.slots = slices.Grow(e.slots[:0], size)[:size]
	clear(e.slots)
	e.values, e.indices = e.values[:0], e.indices[:0]
	mask := uint64(size - 1)
	for i, s := range strs {
		if hasNulls && nulls[i] != 0 {
			continue
		}
		p := kernels.HashBytesOne(s) & mask
		for e.slots[p] != 0 && !bytes.Equal(e.values[e.slots[p]-1], s) {
			p = (p + 1) & mask
		}
		if e.slots[p] == 0 {
			if len(e.values) == limit {
				return false
			}
			e.values = append(e.values, s)
			e.slots[p] = uint32(len(e.values))
		}
		e.indices = append(e.indices, e.slots[p]-1)
	}
	return true
}

func bitWidthFor(n int) int {
	if n <= 1 {
		return 1
	}
	w := 0
	for 1<<w < n {
		w++
	}
	return w
}

// BlockDecoder reads blocks into batches. Decoded strings alias the block's
// bytes (PLAIN and dictionary columns) or the decoder's own scratch (UUID
// columns), which the next decode overwrites.
type BlockDecoder struct {
	uuids []byte   // formatted UUID strings of the block being decoded
	dict  [][]byte // dictionary of the column being decoded
	idx   []uint32 // its indices
}

// Decode verifies one sealed block — the length its header states, then its
// checksum — and only then decodes its rows into dst (sized to hold them).
// An empty block is io.EOF. Every exchange and spill read comes through here.
func (d *BlockDecoder) Decode(block []byte, dst *vector.Batch) error {
	if len(block) < BlockHeader || BlockSize(block) != len(block) {
		return fmt.Errorf("shuffle: a block of %d bytes with a wrong length in its header", len(block))
	}
	if want, got := binary.LittleEndian.Uint32(block), blockChecksum(block[checksumLen:]); got != want {
		return fmt.Errorf("checksum mismatch: stored %08x computed %08x", want, got)
	}
	if len(block) == BlockHeader {
		return io.EOF
	}
	return d.decodeBlock(block[BlockHeader:], dst)
}

// decodeBlock reads one block's encoded rows into dst (sized to hold them).
func (d *BlockDecoder) decodeBlock(src []byte, dst *vector.Batch) error {
	if len(src) < 4 {
		return fmt.Errorf("shuffle: truncated block header")
	}
	n := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	if n > dst.Capacity() {
		return fmt.Errorf("shuffle: block of %d rows exceeds capacity %d", n, dst.Capacity())
	}
	dst.Reset()
	dst.NumRows = n
	d.uuids = d.uuids[:0]
	for _, v := range dst.Vecs {
		var err error
		if src, err = d.decodeColumn(src, v, n); err != nil {
			return err
		}
	}
	return nil
}

var errTruncated = errors.New("shuffle: truncated values")

// take splits the first w bytes off src.
func take(src []byte, w int) (head, rest []byte, err error) {
	if w < 0 || len(src) < w {
		return nil, nil, errTruncated
	}
	return src[:w:w], src[w:], nil
}

// takeString splits a u32-length-prefixed string off src.
func takeString(src []byte) (s, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, errTruncated
	}
	return take(src[4:], int(binary.LittleEndian.Uint32(src)))
}

func (d *BlockDecoder) decodeColumn(src []byte, v *vector.Vector, n int) ([]byte, error) {
	if len(src) < 2 {
		return nil, fmt.Errorf("shuffle: truncated column header")
	}
	enc := ColEncoding(src[0])
	hasNulls := src[1] == 1
	src = src[2:]
	valid := n
	if hasNulls {
		nulls, rest, err := take(src, n)
		if err != nil {
			return nil, fmt.Errorf("shuffle: truncated nulls")
		}
		src = rest
		copy(v.Nulls, nulls)
		for _, nb := range nulls {
			if nb != 0 {
				valid--
			}
		}
		v.SetHasNulls(valid < n)
	}
	if enc != EncPlain && v.Type.ID != types.String {
		return nil, fmt.Errorf("shuffle: encoding %d on a %v column", enc, v.Type)
	}
	var b []byte
	var err error
	switch enc {
	case EncUUID:
		if b, src, err = take(src, valid*16); err != nil {
			return nil, err
		}
		d.uuids = slices.Grow(d.uuids, valid*types.UUIDStringLen)
		for i := 0; i < n; i++ {
			if hasNulls && v.Nulls[i] != 0 {
				continue
			}
			start := len(d.uuids)
			d.uuids = d.uuids[:start+types.UUIDStringLen]
			types.FormatUUID([16]byte(b), d.uuids[start:])
			v.Str[i] = d.uuids[start:len(d.uuids):len(d.uuids)]
			b = b[16:]
		}
		return src, nil
	case EncDict:
		if b, src, err = take(src, 4); err != nil {
			return nil, err
		}
		dictN := int(binary.LittleEndian.Uint32(b))
		if dictN > len(src)/4 {
			return nil, fmt.Errorf("shuffle: dictionary of %d values in %d bytes", dictN, len(src))
		}
		d.dict = slices.Grow(d.dict[:0], dictN)[:dictN]
		for k := range d.dict {
			if d.dict[k], src, err = takeString(src); err != nil {
				return nil, err
			}
		}
		if b, src, err = take(src, 5); err != nil {
			return nil, err
		}
		width := int(b[0])
		cnt := int(binary.LittleEndian.Uint32(b[1:]))
		if width > 32 || cnt < valid {
			return nil, fmt.Errorf("shuffle: %d indices of %d bits for %d values", cnt, width, valid)
		}
		if b, src, err = take(src, (cnt*width+7)/8); err != nil {
			return nil, err
		}
		d.idx = slices.Grow(d.idx[:0], valid)[:valid]
		if err := lebytes.BitUnpack(d.idx, b, width, 0); err != nil {
			return nil, fmt.Errorf("shuffle: dict indices: %w", err)
		}
		idx := d.idx
		for i := 0; i < n; i++ {
			if hasNulls && v.Nulls[i] != 0 {
				continue
			}
			if int(idx[0]) >= dictN {
				return nil, fmt.Errorf("shuffle: dict id out of range")
			}
			v.Str[i] = d.dict[idx[0]]
			idx = idx[1:]
		}
		return src, nil
	case EncPlain:
		if v.Type.ID == types.String {
			for i := 0; i < n; i++ {
				if hasNulls && v.Nulls[i] != 0 {
					continue
				}
				if v.Str[i], src, err = takeString(src); err != nil {
					return nil, err
				}
			}
			return src, nil
		}
		if b, src, err = take(src, n*v.Type.FixedWidth()); err != nil {
			return nil, err
		}
		switch v.Type.ID {
		case types.Bool:
			copy(v.Bool[:n], b)
		case types.Int32, types.Date:
			lebytes.Get4(v.I32[:n], b)
		case types.Int64, types.Timestamp:
			lebytes.Get8(v.I64[:n], b)
		case types.Float64:
			lebytes.Get8(v.F64[:n], b)
		case types.Decimal:
			lebytes.Get16(v.Dec[:n], b)
		}
		return src, nil
	}
	return nil, fmt.Errorf("shuffle: unknown encoding %d", enc)
}
