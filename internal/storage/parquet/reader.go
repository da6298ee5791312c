package parquet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"

	"photon/internal/lebytes"
	"photon/internal/storage/lz4"
	"photon/internal/types"
	"photon/internal/vector"
)

// Reader decodes a file into column batches (the vectorized scan path:
// columnar pages decode straight into column vectors, no row pivot). It
// reads the footer, then only the projected chunks of the row group being
// decoded, and it allocates per row group at most: every batch it returns
// is the same batch refilled, and string vectors in it alias the reader's
// chunk buffers, which the next row group overwrites. A consumer that keeps
// anything past the next NextBatch copies it out.
type Reader struct {
	src    io.ReaderAt
	closer io.Closer // the file OpenFile opened; nil for images and once closed
	meta   *FileMeta
	schema *types.Schema
	// projection: output column -> file column.
	proj []int

	group int           // next row group to open
	cols  []chunkCursor // one per projected column, buffers kept across groups
	left  int           // rows left in the open group
	out   *vector.Batch
	comp  []byte   // a compressed chunk as read, before it expands into its cursor
	idx   []uint32 // one batch of dictionary indices

	bytesRead, bytesDecoded int64
}

// openFiles counts the files OpenFile has opened and no Close has released —
// unlike the descriptors themselves, which a finalizer eventually closes, a
// reader that was dropped without Close stays counted.
var openFiles atomic.Int64

// OpenFiles returns the number of readers from OpenFile not yet closed.
func OpenFiles() int64 { return openFiles.Load() }

// OpenFile opens a file and reads its footer. The descriptor is released by
// Close, and by NextBatch when it reaches the end of the file or fails.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := newReader(f, info.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.closer = f
	openFiles.Add(1)
	return r, nil
}

// NewReader reads a file image held in memory.
func NewReader(data []byte) (*Reader, error) {
	return newReader(bytes.NewReader(data), int64(len(data)))
}

func newReader(src io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{src: src}
	var err error
	if r.meta, err = ReadFooter(src, size); err != nil {
		return nil, err
	}
	r.bytesRead = size - r.meta.dataEnd + int64(len(Magic))
	r.schema = r.meta.SchemaOf()
	r.proj = make([]int, r.schema.Len())
	for i := range r.proj {
		r.proj[i] = i
	}
	return r, nil
}

// Close releases the file. It is safe to call more than once and at any
// point; a closed reader's NextBatch fails on the next chunk it would read.
func (r *Reader) Close() error {
	c := r.closer
	r.closer = nil
	if c == nil {
		return nil
	}
	openFiles.Add(-1)
	return c.Close()
}

// IO reports the bytes read from the file so far (footer and chunks) and
// the bytes those chunks held once decompressed.
func (r *Reader) IO() (read, decoded int64) { return r.bytesRead, r.bytesDecoded }

// Meta exposes the footer (for stats-based skipping).
func (r *Reader) Meta() *FileMeta { return r.meta }

// Schema returns the (projected) schema.
func (r *Reader) Schema() *types.Schema { return r.schema }

// NumRows returns the file's row count.
func (r *Reader) NumRows() int64 { return r.meta.NumRows }

// Project restricts reads to the named columns, in order. Call it before
// the first NextBatch.
func (r *Reader) Project(names []string) error {
	full := r.meta.SchemaOf()
	proj := make([]int, len(names))
	for i, n := range names {
		idx := full.IndexOf(n)
		if idx < 0 {
			return fmt.Errorf("parquet: no column %q", n)
		}
		proj[i] = idx
	}
	r.proj = proj
	r.schema = full.Project(proj)
	r.cols, r.out = nil, nil
	return nil
}

// Reuse gives r the chunk, compressed-chunk and index buffers of prev, a
// reader its caller is done with (prev's last batch included), and its output
// batch when both project the same schema, so a scan of many files allocates
// them once. Call it after Project, before r's first NextBatch.
func (r *Reader) Reuse(prev *Reader) {
	if prev == nil {
		return
	}
	r.comp, r.idx = prev.comp, prev.idx
	if prev.schema.Equal(r.schema) {
		r.cols, r.out = prev.cols, prev.out
	}
	prev.cols, prev.out, prev.comp, prev.idx = nil, nil, nil, nil
}

// chunkCursor streams one column chunk's values, batch by batch. Its slices
// point into buf, which the next chunk of the same column reuses.
type chunkCursor struct {
	buf      []byte   // the chunk, decompressed
	validity []byte   // validity bitmap, 1 bit per row (nil = no NULLs)
	body     []byte   // PLAIN values not yet consumed
	enc      Encoding // EncDict and EncFOR set packed, width and count
	dict     [][]byte // dictionary entries
	base     int64    // the FOR base
	packed   []byte   // bit-packed dictionary indices or FOR offsets, one per valid row
	width    int      // bits per packed entry
	count    int      // entries in packed
	pos      int      // rows consumed
	used     int      // valid values consumed (= entries consumed)

	// staleNulls: the output vector holds NULL bytes this chunk did not
	// write (from a batch of an earlier row group, or of an earlier file).
	staleNulls bool

	// narrow marks a decimal chunk whose values all fit int64 — a FOR chunk,
	// whose values are decoded as int64, or one whose min/max stats both fit
	// int64 — so scan batches carry Dec64All metadata for free (adaptive
	// tier of the narrow-decimal fast path).
	narrow bool
}

// readAt fills b from the file and counts the bytes.
func (r *Reader) readAt(b []byte, off int64) error {
	r.bytesRead += int64(len(b))
	return readFull(r.src, b, off)
}

// openChunk reads and decompresses one column chunk of a rows-row group
// into cc. The footer has vouched for the chunk's place in the file; every
// length inside it is checked against the bytes actually there.
func (r *Reader) openChunk(cc *chunkCursor, cm *ColumnChunkMeta, t types.DataType, rows int) error {
	size := int(cm.Size)
	var payload []byte
	if cm.Compress == CompNone {
		cc.buf = slices.Grow(cc.buf[:0], size)[:size]
		if err := r.readAt(cc.buf, cm.Offset); err != nil {
			return err
		}
		payload = cc.buf[4:]
	} else {
		r.comp = slices.Grow(r.comp[:0], size)[:size]
		if err := r.readAt(r.comp, cm.Offset); err != nil {
			return err
		}
		rawLen := int64(binary.LittleEndian.Uint32(r.comp))
		if rawLen > lz4.MaxExpansion*int64(size-4) {
			return fmt.Errorf("parquet: chunk claims %d bytes from a %d-byte LZ4 block", rawLen, size-4)
		}
		cc.buf = slices.Grow(cc.buf[:0], int(rawLen))[:rawLen]
		n, err := lz4.Decompress(cc.buf, r.comp[4:])
		if err != nil {
			return err
		}
		payload = cc.buf[:n]
	}
	r.bytesDecoded += int64(len(payload))
	if len(payload) < 5 {
		return fmt.Errorf("parquet: chunk header truncated")
	}
	if n := binary.LittleEndian.Uint32(payload); int64(n) != int64(rows) {
		return fmt.Errorf("parquet: chunk holds %d values, its row group %d rows", n, rows)
	}
	hasNulls := payload[4] == 1
	body := payload[5:]

	*cc = chunkCursor{buf: cc.buf, dict: cc.dict[:0], enc: cm.Encoding, staleNulls: cc.staleNulls}
	if t.ID == types.Decimal {
		lo, okLo := DecodeStatValue(cm.Min, t).(types.Decimal128)
		hi, okHi := DecodeStatValue(cm.Max, t).(types.Decimal128)
		cc.narrow = cm.Encoding == EncFOR || (okLo && okHi && types.Fits64(lo) && types.Fits64(hi))
	}
	if hasNulls {
		need := (rows + 7) / 8
		if len(body) < need {
			return fmt.Errorf("parquet: validity bitmap truncated")
		}
		cc.validity, body = body[:need], body[need:]
	}
	switch cm.Encoding {
	case EncPlain:
		cc.body = body
		return nil
	case EncFOR:
		if len(body) < 8 {
			return fmt.Errorf("parquet: FOR header truncated")
		}
		cc.base = int64(binary.LittleEndian.Uint64(body))
		body = body[8:]
	case EncDict:
		if len(body) < 4 {
			return fmt.Errorf("parquet: dict header truncated")
		}
		dictN := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if dictN > len(body)/4 {
			return fmt.Errorf("parquet: dictionary larger than its chunk")
		}
		cc.dict = slices.Grow(cc.dict, dictN)[:dictN]
		for i := range cc.dict {
			if len(body) < 4 {
				return fmt.Errorf("parquet: dict value truncated")
			}
			l := int(binary.LittleEndian.Uint32(body))
			if len(body)-4 < l {
				return fmt.Errorf("parquet: dict payload truncated")
			}
			cc.dict[i] = body[4 : 4+l : 4+l]
			body = body[4+l:]
		}
	}
	if len(body) < 5 {
		return fmt.Errorf("parquet: bit-packed run header truncated")
	}
	cc.width = int(body[0])
	cc.count = int(binary.LittleEndian.Uint32(body[1:]))
	cc.packed = body[5:]
	if cc.width > 32 || cc.count > rows || len(cc.packed) < (cc.count*cc.width+7)/8 {
		return fmt.Errorf("parquet: bit-packed run out of range")
	}
	return nil
}

// readInto decodes the cursor's next k rows into v at [0, k).
func (r *Reader) readInto(cc *chunkCursor, v *vector.Vector, k int) error {
	nv := k
	switch {
	case cc.validity != nil:
		nulls := unpackValidity(v.Nulls[:k], cc.validity, cc.pos)
		v.SetHasNulls(nulls > 0)
		cc.staleNulls = cc.staleNulls || nulls > 0
		nv -= nulls
	case cc.staleNulls:
		v.ClearNulls()
		cc.staleNulls = false
	}
	v.Ascii = vector.AsciiUnknown
	v.Dec64 = vector.Dec64Unknown
	if cc.narrow {
		// NULL slots are zeroed, so the chunk-level narrowness verdict
		// transfers directly to the vector.
		v.Dec64 = vector.Dec64All
	}
	cc.pos += k
	if cc.enc == EncPlain {
		var err error
		cc.body, err = readPlain(cc.body, v, k, nv)
		return err
	}
	// Packed entries cover valid rows in order.
	if cc.used+nv > cc.count {
		return fmt.Errorf("parquet: bit-packed run overrun")
	}
	r.idx = slices.Grow(r.idx[:0], nv)[:nv]
	if err := lebytes.BitUnpack(r.idx, cc.packed, cc.width, cc.used); err != nil {
		return fmt.Errorf("parquet: bit-packed run: %w", err)
	}
	cc.used += nv
	idx := r.idx
	if cc.enc == EncFOR {
		nulls := v.Nulls[:k]
		switch v.Type.ID {
		case types.Int32, types.Date:
			widen(v.I32[:nv], idx, cc.base)
			spread(v.I32[:k], nulls, nv)
		case types.Int64, types.Timestamp:
			widen(v.I64[:nv], idx, cc.base)
			spread(v.I64[:k], nulls, nv)
		case types.Decimal:
			for i, o := range idx {
				v.Dec[i] = types.SignExtend64(cc.base + int64(o))
			}
			spread(v.Dec[:k], nulls, nv)
		}
		return nil
	}
	for i := range v.Str[:k] {
		if v.Nulls[i] != 0 {
			v.Str[i] = nil
			continue
		}
		id := idx[0]
		idx = idx[1:]
		if int(id) >= len(cc.dict) {
			return fmt.Errorf("parquet: dictionary index out of range")
		}
		v.Str[i] = cc.dict[id]
	}
	return nil
}

// NextBatch decodes up to batchSize rows and returns them in the reader's
// one output batch, valid until the next call; it returns nil at end of
// file. Reaching the end, or failing, closes the file.
func (r *Reader) NextBatch(batchSize int) (*vector.Batch, error) {
	b, err := r.nextBatch(batchSize)
	if err != nil {
		r.left, r.group = 0, len(r.meta.RowGroups)
	}
	if b == nil {
		r.Close()
	}
	return b, err
}

func (r *Reader) nextBatch(batchSize int) (*vector.Batch, error) {
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	for r.left == 0 {
		if r.group >= len(r.meta.RowGroups) {
			return nil, nil
		}
		rg := &r.meta.RowGroups[r.group]
		r.group++
		if r.cols == nil {
			r.cols = make([]chunkCursor, len(r.proj))
		}
		for oi, fi := range r.proj {
			if err := r.openChunk(&r.cols[oi], &rg.Columns[fi], r.schema.Field(oi).Type, int(rg.NumRows)); err != nil {
				return nil, fmt.Errorf("parquet: row group %d column %d: %w", r.group-1, fi, err)
			}
		}
		r.left = int(rg.NumRows)
	}
	k := min(batchSize, r.left)
	if r.out == nil || r.out.Capacity() < k {
		r.out = vector.NewBatch(r.schema, int(min(int64(batchSize), r.meta.NumRows)))
		for i := range r.cols {
			r.cols[i].staleNulls = false
		}
	}
	for oi := range r.cols {
		if err := r.readInto(&r.cols[oi], r.out.Vecs[oi], k); err != nil {
			return nil, err
		}
	}
	r.out.NumRows, r.out.Sel = k, nil // a consumer may have filtered the last fill
	r.left -= k
	return r.out, nil
}

// ReadAll decodes the whole file into batches of its own (kept copies of
// the reader's output batch).
func (r *Reader) ReadAll(batchSize int) ([]*vector.Batch, error) {
	var out []*vector.Batch
	for {
		b, err := r.NextBatch(batchSize)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Keep())
	}
}
