package parquet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"photon/internal/expr"
	"photon/internal/storage/lz4"
	"photon/internal/types"
)

// RowWriter is the baseline write path standing in for the Java Parquet-MR
// library (§6.1, Fig. 7). It produces the same file format as the
// vectorized Writer but encodes value-at-a-time over boxed values, the way
// a row-oriented writer does: per-value dynamic dispatch for PLAIN
// encoding, a per-value boxed-string dictionary hash map, per-value
// statistics comparisons, and per-value validity and bit-pack state
// machines. The gap between this writer and the vectorized one is the
// column-encoding speedup the paper measures.
type RowWriter struct {
	w       io.Writer
	schema  *types.Schema
	opts    Options
	offset  int64
	meta    FileMeta
	metrics Metrics

	cols      []rowColState
	groupRows int
	closed    bool
}

// rowColState is one column's per-row accumulation state.
type rowColState struct {
	t         types.DataType
	plain     []byte
	validity  []byte
	validBit  int
	hasNulls  bool
	nullCount int64
	// Boxed stats.
	statMin any
	statMax any
	// Boxed dictionary state (strings only).
	dictIdx  map[string]uint32
	dictVals [][]byte
	indices  []uint32
	dictDead bool
}

// NewRowWriter starts a row-oriented writer.
func NewRowWriter(w io.Writer, schema *types.Schema, opts Options) (*RowWriter, error) {
	rw := &RowWriter{w: w, schema: schema, opts: opts.withDefaults()}
	rw.meta.Schema = metaOfSchema(schema)
	rw.resetGroup()
	start := time.Now()
	n, err := w.Write(Magic)
	rw.metrics.WriteTime += time.Since(start)
	rw.offset = int64(n)
	rw.metrics.BytesWritten += int64(n)
	return rw, err
}

func (rw *RowWriter) resetGroup() {
	rw.cols = make([]rowColState, rw.schema.Len())
	for c := range rw.cols {
		st := &rw.cols[c]
		st.t = rw.schema.Field(c).Type
		if st.t.ID == types.String && !rw.opts.DisableDict {
			st.dictIdx = make(map[string]uint32)
		} else {
			st.dictDead = true
		}
	}
	rw.groupRows = 0
}

// Metrics exposes the time breakdown.
func (rw *RowWriter) Metrics() Metrics { return rw.metrics }

// WriteRow appends one boxed row (nil = NULL), value by value.
func (rw *RowWriter) WriteRow(row []any) error {
	if rw.closed {
		return fmt.Errorf("parquet: writer closed")
	}
	if len(row) != len(rw.cols) {
		return fmt.Errorf("parquet: row arity %d != %d", len(row), len(rw.cols))
	}
	encStart := time.Now()
	for c, val := range row {
		st := &rw.cols[c]
		st.pushValidity(val != nil)
		if val == nil {
			st.hasNulls = true
			st.nullCount++
			continue
		}
		// Per-value boxed stats comparison.
		st.updateStats(val)
		// Per-value dictionary update or PLAIN append.
		if !st.dictDead {
			s := val.(string)
			id, ok := st.dictIdx[s]
			if !ok {
				id = uint32(len(st.dictVals))
				if int(id) >= dictMaxValues {
					st.abandonDict()
					st.appendPlainBoxed(val)
					rw.groupRowsInc(c)
					continue
				}
				st.dictIdx[s] = id
				st.dictVals = append(st.dictVals, []byte(s))
			}
			st.indices = append(st.indices, id)
		} else {
			st.appendPlainBoxed(val)
		}
		rw.groupRowsInc(c)
	}
	rw.metrics.EncodeTime += time.Since(encStart)
	rw.groupRows++
	if rw.groupRows >= rw.opts.RowGroupRows {
		return rw.flushGroup()
	}
	return nil
}

// groupRowsInc exists to mirror Parquet-MR's per-column writers; it is a
// deliberate per-value call in the hot loop.
func (rw *RowWriter) groupRowsInc(int) {}

func (st *rowColState) pushValidity(valid bool) {
	if st.validBit%8 == 0 {
		st.validity = append(st.validity, 0)
	}
	if valid {
		st.validity[len(st.validity)-1] |= 1 << (st.validBit & 7)
	}
	st.validBit++
}

func (st *rowColState) abandonDict() {
	// Re-encode the values seen so far as PLAIN (like Parquet-MR's
	// dictionary fallback).
	for _, id := range st.indices {
		s := st.dictVals[id]
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
		st.plain = append(st.plain, b[:]...)
		st.plain = append(st.plain, s...)
	}
	st.dictDead = true
	st.dictIdx = nil
	st.dictVals = nil
	st.indices = nil
}

// appendPlainBoxed appends one boxed value in PLAIN encoding.
func (st *rowColState) appendPlainBoxed(val any) {
	switch st.t.ID {
	case types.Bool:
		b := byte(0)
		if val.(bool) {
			b = 1
		}
		st.plain = append(st.plain, b)
	case types.Int32, types.Date:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(val.(int32)))
		st.plain = append(st.plain, b[:]...)
	case types.Int64, types.Timestamp:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(val.(int64)))
		st.plain = append(st.plain, b[:]...)
	case types.Float64:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(val.(float64)))
		st.plain = append(st.plain, b[:]...)
	case types.Decimal:
		d := val.(types.Decimal128)
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], d.Lo)
		binary.LittleEndian.PutUint64(b[8:], uint64(d.Hi))
		st.plain = append(st.plain, b[:]...)
	case types.String:
		s := val.(string)
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
		st.plain = append(st.plain, b[:]...)
		st.plain = append(st.plain, s...)
	}
}

// updateStats compares boxed values one at a time (the Java-object-comparison
// analogue), leaving NaN out as expr.EnvelopeOf does.
func (st *rowColState) updateStats(val any) {
	if f, ok := val.(float64); ok && math.IsNaN(f) {
		return
	}
	if st.statMin == nil {
		st.statMin, st.statMax = val, val
		return
	}
	if expr.CompareBoxed(val, st.statMin, st.t.ID) < 0 {
		st.statMin = val
	}
	if expr.CompareBoxed(st.statMax, val, st.t.ID) < 0 {
		st.statMax = val
	}
}

// packPerValue appends u8 width, u32 count and vals bit-packed width bits
// each, one value at a time (the value-at-a-time path).
func packPerValue(body []byte, vals []uint32, width int) []byte {
	body = append(body, byte(width))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(vals)))
	var acc uint64
	accBits := 0
	for _, v := range vals {
		acc |= uint64(v) << accBits
		accBits += width
		for accBits >= 8 {
			body = append(body, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		body = append(body, byte(acc))
	}
	return body
}

// flushGroup writes the buffered row group in the shared format.
func (rw *RowWriter) flushGroup() error {
	if rw.groupRows == 0 {
		return nil
	}
	rg := RowGroupMeta{NumRows: int64(rw.groupRows)}
	for c := range rw.cols {
		st := &rw.cols[c]
		meta, err := rw.writeChunk(st)
		if err != nil {
			return err
		}
		rg.Columns = append(rg.Columns, meta)
	}
	rw.meta.RowGroups = append(rw.meta.RowGroups, rg)
	rw.meta.NumRows += int64(rw.groupRows)
	rw.resetGroup()
	return nil
}

func (rw *RowWriter) writeChunk(st *rowColState) (ColumnChunkMeta, error) {
	encStart := time.Now()
	var body []byte
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(rw.groupRows))
	if st.hasNulls {
		hdr[4] = 1
	}
	body = append(body, hdr[:]...)
	if st.hasNulls {
		body = append(body, st.validity...)
	}

	meta := ColumnChunkMeta{NumValues: int64(rw.groupRows), NullCount: st.nullCount, Min: encodeStat(st.statMin, st.t), Max: encodeStat(st.statMax, st.t)}

	useDict := !st.dictDead && float64(len(st.dictVals)) <= dictMaxRatio*float64(len(st.indices))
	if !useDict && !st.dictDead {
		st.abandonDict() // materialize PLAIN from the dictionary state
	}
	if useDict {
		meta.Encoding = EncDict
		meta.DictValues = len(st.dictVals)
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], uint32(len(st.dictVals)))
		body = append(body, cnt[:]...)
		for _, s := range st.dictVals {
			var l [4]byte
			binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
			body = append(body, l[:]...)
			body = append(body, s...)
		}
		body = packPerValue(body, st.indices, bitWidthFor(len(st.dictVals)))
	} else if base, width, ok := frame(st.statMin, st.statMax); ok {
		// The same FOR rule as the vectorized writer, the offsets read back
		// value by value from the PLAIN buffer. The span is below 2^32, so
		// an offset is the difference of the low 32 bits of value and base.
		meta.Encoding = EncFOR
		size := len(st.plain) / int(int64(rw.groupRows)-st.nullCount)
		var offs []uint32
		for p := 0; p < len(st.plain); p += size {
			offs = append(offs, binary.LittleEndian.Uint32(st.plain[p:])-uint32(base))
		}
		body = binary.LittleEndian.AppendUint64(body, uint64(base))
		body = packPerValue(body, offs, width)
	} else {
		meta.Encoding = EncPlain
		body = append(body, st.plain...)
	}
	rw.metrics.EncodeTime += time.Since(encStart)

	out := body
	comp := rw.opts.Compression
	if comp == CompLZ4 {
		cStart := time.Now()
		out = lz4.Compress(make([]byte, 0, lz4.CompressBound(len(body))), body)
		rw.metrics.CompressTime += time.Since(cStart)
		if len(out) >= len(body) {
			out = body
			comp = CompNone
		}
	}
	meta.Compress = comp

	wStart := time.Now()
	var raw [4]byte
	binary.LittleEndian.PutUint32(raw[:], uint32(len(body)))
	if _, err := rw.w.Write(raw[:]); err != nil {
		return meta, err
	}
	n, err := rw.w.Write(out)
	rw.metrics.WriteTime += time.Since(wStart)
	if err != nil {
		return meta, err
	}
	meta.Offset = rw.offset
	meta.Size = int64(n) + 4
	rw.offset += meta.Size
	rw.metrics.BytesWritten += meta.Size
	return meta, nil
}

// Close flushes the final group and footer.
func (rw *RowWriter) Close() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	if err := rw.flushGroup(); err != nil {
		return err
	}
	wStart := time.Now()
	n, err := writeFooter(rw.w, &rw.meta)
	rw.metrics.WriteTime += time.Since(wStart)
	rw.metrics.BytesWritten += n
	rw.offset += n
	return err
}

// Meta exposes the footer after Close.
func (rw *RowWriter) Meta() *FileMeta { return &rw.meta }
