package parquet

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"photon/internal/expr"
	"photon/internal/lebytes"
	"photon/internal/storage/lz4"
	"photon/internal/types"
	"photon/internal/vector"
)

// Options configure a writer.
type Options struct {
	// RowGroupRows flushes a row group after this many rows (default 65536).
	RowGroupRows int
	// Compression applies per column chunk (default LZ4).
	Compression Compression
	// DisableDict forces PLAIN for string columns (encoding ablation).
	DisableDict bool
}

func (o Options) withDefaults() Options {
	if o.RowGroupRows <= 0 {
		o.RowGroupRows = 65536
	}
	return o
}

// Metrics is the write-path time breakdown Fig. 7 reports.
type Metrics struct {
	EncodeTime   time.Duration
	CompressTime time.Duration
	WriteTime    time.Duration
	BytesWritten int64
}

// Writer is the vectorized (Photon) writer: batches accumulate per column
// and encode in tight array loops — dictionary lookups via a fast string
// hash map over whole columns, bit-packing over whole index arrays, and
// statistics in one pass per vector (§6.1 Parquet writes).
type Writer struct {
	w       io.Writer
	schema  *types.Schema
	opts    Options
	offset  int64
	meta    FileMeta
	metrics Metrics

	groupCols []colBuffer
	groupRows int
	lz        *lz4.Compressor // kept from chunk to chunk, dropped at Close
	offs      []uint32        // a FOR chunk's offsets, kept from chunk to chunk
	closed    bool
}

// colBuffer accumulates one column's values for the current row group, one
// dense vector per batch written, each exactly as long as its rows.
type colBuffer struct {
	vecs []*vector.Vector
}

// NewWriter starts a file: writes the head magic immediately.
func NewWriter(w io.Writer, schema *types.Schema, opts Options) (*Writer, error) {
	pw := &Writer{w: w, schema: schema, opts: opts.withDefaults()}
	pw.meta.Schema = metaOfSchema(schema)
	pw.groupCols = make([]colBuffer, schema.Len())
	if pw.opts.Compression == CompLZ4 {
		pw.lz = new(lz4.Compressor)
	}
	start := time.Now()
	n, err := w.Write(Magic)
	pw.metrics.WriteTime += time.Since(start)
	pw.offset = int64(n)
	pw.metrics.BytesWritten += int64(n)
	return pw, err
}

// Metrics returns the accumulated breakdown.
func (pw *Writer) Metrics() Metrics { return pw.metrics }

// WriteBatch appends a batch's active rows.
func (pw *Writer) WriteBatch(b *vector.Batch) error {
	if pw.closed {
		return fmt.Errorf("parquet: writer closed")
	}
	// Gather active rows densely (copies, so callers can reuse b).
	n := b.NumActive()
	if n == 0 {
		return nil
	}
	dense := vector.NewBatch(pw.schema, n)
	b.GatherInto(dense)
	for c, v := range dense.Vecs {
		pw.groupCols[c].vecs = append(pw.groupCols[c].vecs, v)
	}
	pw.groupRows += n
	if pw.groupRows >= pw.opts.RowGroupRows {
		return pw.flushGroup()
	}
	return nil
}

// flushGroup encodes and writes the buffered row group.
func (pw *Writer) flushGroup() error {
	if pw.groupRows == 0 {
		return nil
	}
	rg := RowGroupMeta{NumRows: int64(pw.groupRows)}
	for c := range pw.groupCols {
		cb := &pw.groupCols[c]
		meta, err := pw.writeChunk(pw.schema.Field(c).Type, cb)
		if err != nil {
			return err
		}
		rg.Columns = append(rg.Columns, meta)
		*cb = colBuffer{}
	}
	pw.meta.RowGroups = append(pw.meta.RowGroups, rg)
	pw.meta.NumRows += int64(pw.groupRows)
	pw.groupRows = 0
	return nil
}

// writeChunk encodes one column chunk: nulls bitmap, encoding choice,
// payload, compression, stats.
func (pw *Writer) writeChunk(t types.DataType, cb *colBuffer) (ColumnChunkMeta, error) {
	encStart := time.Now()
	total := 0
	hasNulls := false
	for _, v := range cb.vecs {
		total += v.Capacity()
		if v.HasNulls() {
			hasNulls = true
		}
	}

	var body []byte
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(total))
	if hasNulls {
		hdr[4] = 1
	}
	body = append(body, hdr[:]...)
	if hasNulls {
		bit := 0
		for _, v := range cb.vecs {
			body, bit = packValidity(body, bit, v.Nulls)
		}
	}

	// Statistics: one tight fold per segment, merged.
	var env expr.Envelope
	for _, v := range cb.vecs {
		env = env.Merge(expr.EnvelopeOf(v, v.Capacity()), t.ID)
	}
	meta := ColumnChunkMeta{NumValues: int64(total), NullCount: env.Nulls, Min: encodeStat(env.Min, t), Max: encodeStat(env.Max, t)}

	// Encoding choice: FOR whenever the values allow it, dictionary for
	// strings when profitable.
	enc := EncPlain
	var dict *stringDict
	base, width, isFOR := frame(env.Min, env.Max)
	switch {
	case isFOR:
		enc = EncFOR
	case t.ID == types.String && !pw.opts.DisableDict:
		dict = buildStringDict(cb, total-int(env.Nulls))
		if dict != nil {
			enc = EncDict
		}
	}
	meta.Encoding = enc

	switch enc {
	case EncDict:
		body = dict.encodeInto(body)
		meta.DictValues = len(dict.values)
	case EncFOR:
		body, pw.offs = appendFOR(body, cb.vecs, base, width, pw.offs)
	default:
		for _, v := range cb.vecs {
			body = appendPlain(body, v, v.Capacity())
		}
	}
	pw.metrics.EncodeTime += time.Since(encStart)

	// Compression.
	out := body
	comp := pw.opts.Compression
	if comp == CompLZ4 {
		cStart := time.Now()
		out = pw.lz.Compress(make([]byte, 0, lz4.CompressBound(len(body))), body)
		pw.metrics.CompressTime += time.Since(cStart)
		if len(out) >= len(body) {
			out = body
			comp = CompNone
		}
	}
	meta.Compress = comp

	wStart := time.Now()
	// Chunk header on disk: u32 rawLen then payload.
	var raw [4]byte
	binary.LittleEndian.PutUint32(raw[:], uint32(len(body)))
	if _, err := pw.w.Write(raw[:]); err != nil {
		return meta, err
	}
	n, err := pw.w.Write(out)
	pw.metrics.WriteTime += time.Since(wStart)
	if err != nil {
		return meta, err
	}
	meta.Offset = pw.offset
	meta.Size = int64(n) + 4
	pw.offset += meta.Size
	pw.metrics.BytesWritten += meta.Size
	return meta, nil
}

// Close flushes the final row group and footer.
func (pw *Writer) Close() error {
	if pw.closed {
		return nil
	}
	pw.closed = true
	if err := pw.flushGroup(); err != nil {
		return err
	}
	pw.lz, pw.offs = nil, nil
	wStart := time.Now()
	n, err := writeFooter(pw.w, &pw.meta)
	pw.metrics.WriteTime += time.Since(wStart)
	pw.metrics.BytesWritten += n
	pw.offset += n
	return err
}

// Meta exposes the footer after Close (for Delta stats collection).
func (pw *Writer) Meta() *FileMeta { return &pw.meta }

// stringDict is the vectorized dictionary builder: a single map pass over
// all segments; falls back (returns nil) when the dictionary would not pay
// for itself.
type stringDict struct {
	values  [][]byte
	indices []uint32
}

const (
	dictMaxValues = 1 << 16
	dictMaxRatio  = 0.5 // at most this many entries per non-NULL value
)

// buildStringDict dictionary-encodes a chunk of nonNull non-NULL strings, or
// returns nil at the first entry past dictMaxRatio × nonNull or dictMaxValues
// (neither bound can be met again), rather than building the whole map and
// then rejecting it. An all-NULL chunk keeps its empty dictionary.
func buildStringDict(cb *colBuffer, nonNull int) *stringDict {
	limit := min(int(dictMaxRatio*float64(nonNull)), dictMaxValues)
	d := &stringDict{indices: make([]uint32, 0, nonNull)}
	idx := make(map[string]uint32)
	for _, v := range cb.vecs {
		hn := v.HasNulls()
		for k, s := range v.Str {
			if hn && v.Nulls[k] != 0 {
				continue
			}
			id, ok := idx[string(s)]
			if !ok {
				if len(d.values) == limit {
					return nil
				}
				id = uint32(len(d.values))
				idx[string(s)] = id
				d.values = append(d.values, s)
			}
			d.indices = append(d.indices, id)
		}
	}
	return d
}

// encodeInto appends the dictionary page and bit-packed indices.
func (d *stringDict) encodeInto(body []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(d.values)))
	body = append(body, hdr[:]...)
	for _, s := range d.values {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
		body = append(body, l[:]...)
		body = append(body, s...)
	}
	width := bitWidthFor(len(d.values))
	body = append(body, byte(width))
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(d.indices)))
	body = append(body, cnt[:]...)
	return lebytes.BitPack(body, d.indices, width)
}
