// Package parquet implements the columnar file format used by the storage
// layer — an Apache-Parquet-like design with row groups and column chunks
// (no pages within a chunk), PLAIN, DICTIONARY (bit-packed indices) and
// frame-of-reference (bit-packed offsets from the chunk minimum) encodings,
// per-chunk min/max statistics for data skipping, and optional LZ4 chunk
// compression. Both of the paper's write paths exist: a vectorized
// writer (Photon's, with fast dictionary hashing and bit-packing kernels,
// Fig. 7) and a deliberately row-at-a-time writer standing in for the
// Java Parquet-MR library the baseline uses.
package parquet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"photon/internal/types"
)

// Magic marks the head and tail of every file.
var Magic = []byte("PHN1")

// Encoding identifies how a page's values are stored.
type Encoding uint8

// Encodings.
const (
	EncPlain Encoding = iota
	EncDict           // dictionary page + bit-packed indices
	EncFOR            // frame of reference: a base + bit-packed offsets from it
)

// Compression identifies a page codec.
type Compression uint8

// Compression codecs.
const (
	CompNone Compression = iota
	CompLZ4
)

// FileMeta is the footer: schema plus row-group layout. Serialized as JSON
// (the paper's Parquet uses Thrift; JSON keeps this build stdlib-only while
// preserving the structure).
type FileMeta struct {
	Schema    []FieldMeta       `json:"schema"`
	RowGroups []RowGroupMeta    `json:"row_groups"`
	NumRows   int64             `json:"num_rows"`
	KV        map[string]string `json:"kv,omitempty"`

	// dataEnd is where chunk data ends and the footer begins (readers only).
	dataEnd int64
}

// FieldMeta describes one column.
type FieldMeta struct {
	Name      string `json:"name"`
	TypeID    uint8  `json:"type"`
	Precision int    `json:"precision,omitempty"`
	Scale     int    `json:"scale,omitempty"`
	Nullable  bool   `json:"nullable"`
}

// RowGroupMeta locates one row group.
type RowGroupMeta struct {
	NumRows int64             `json:"num_rows"`
	Columns []ColumnChunkMeta `json:"columns"`
}

// ColumnChunkMeta locates one column chunk and carries its statistics.
type ColumnChunkMeta struct {
	Offset     int64       `json:"offset"`
	Size       int64       `json:"size"`
	Encoding   Encoding    `json:"encoding"`
	Compress   Compression `json:"compress"`
	NumValues  int64       `json:"num_values"`
	NullCount  int64       `json:"null_count"`
	Min        []byte      `json:"min,omitempty"` // type-encoded, absent if all NULL
	Max        []byte      `json:"max,omitempty"`
	DictValues int         `json:"dict_values,omitempty"`
}

// SchemaOf converts file metadata back to an engine schema.
func (m *FileMeta) SchemaOf() *types.Schema {
	fields := make([]types.Field, len(m.Schema))
	for i, f := range m.Schema {
		fields[i] = types.Field{
			Name:     f.Name,
			Type:     types.DataType{ID: types.TypeID(f.TypeID), Precision: f.Precision, Scale: f.Scale},
			Nullable: f.Nullable,
		}
	}
	return &types.Schema{Fields: fields}
}

// metaOfSchema converts an engine schema to footer form.
func metaOfSchema(s *types.Schema) []FieldMeta {
	out := make([]FieldMeta, s.Len())
	for i, f := range s.Fields {
		out[i] = FieldMeta{
			Name:      f.Name,
			TypeID:    uint8(f.Type.ID),
			Precision: f.Type.Precision,
			Scale:     f.Type.Scale,
			Nullable:  f.Nullable,
		}
	}
	return out
}

// writeFooter appends the JSON footer, its length, and the tail magic.
func writeFooter(w io.Writer, meta *FileMeta) (int64, error) {
	body, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(body)
	if err != nil {
		return int64(n), err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(body)))
	copy(tail[4:], Magic)
	m, err := w.Write(tail[:])
	return int64(n + m), err
}

// readFull fills b from offset off; a source may report io.EOF on a read
// that ends exactly at its end, which is not an error here.
func readFull(src io.ReaderAt, b []byte, off int64) error {
	if n, err := src.ReadAt(b, off); n < len(b) {
		return fmt.Errorf("parquet: read %d bytes at %d: %w", len(b), off, err)
	}
	return nil
}

// ReadFooter reads and checks the footer of a size-byte file: both magics,
// the footer's own bounds, and then everything a reader will later take on
// trust — column types, each chunk's place in the file, row counts that
// agree between file, row groups and chunks, and the length of each chunk's
// min/max statistics.
func ReadFooter(src io.ReaderAt, size int64) (*FileMeta, error) {
	var head [4]byte
	var tail [8]byte
	if size < int64(len(head)+len(tail)) {
		return nil, fmt.Errorf("parquet: file of %d bytes", size)
	}
	if err := readFull(src, tail[:], size-8); err != nil {
		return nil, err
	}
	if err := readFull(src, head[:], 0); err != nil {
		return nil, err
	}
	if string(tail[4:]) != string(Magic) {
		return nil, fmt.Errorf("parquet: bad tail magic")
	}
	if string(head[:]) != string(Magic) {
		return nil, fmt.Errorf("parquet: bad head magic")
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	start := size - 8 - footLen
	if start < 4 {
		return nil, fmt.Errorf("parquet: footer length out of range")
	}
	body := make([]byte, footLen)
	if err := readFull(src, body, start); err != nil {
		return nil, err
	}
	meta := &FileMeta{dataEnd: start}
	if err := json.Unmarshal(body, meta); err != nil {
		return nil, fmt.Errorf("parquet: footer parse: %w", err)
	}
	if err := meta.validate(); err != nil {
		return nil, fmt.Errorf("parquet: footer: %w", err)
	}
	return meta, nil
}

func (m *FileMeta) validate() error {
	for _, f := range m.Schema {
		if t := types.TypeID(f.TypeID); t != types.String && (types.DataType{ID: t}).FixedWidth() == 0 {
			return fmt.Errorf("column %q has unknown type %d", f.Name, f.TypeID)
		}
	}
	var rows int64
	for gi := range m.RowGroups {
		rg := &m.RowGroups[gi]
		if rg.NumRows < 0 || rg.NumRows > math.MaxUint32 || len(rg.Columns) != len(m.Schema) {
			return fmt.Errorf("row group %d: %d rows, %d of %d columns", gi, rg.NumRows, len(rg.Columns), len(m.Schema))
		}
		rows += rg.NumRows
		for ci := range rg.Columns {
			cm := &rg.Columns[ci]
			t := types.TypeID(m.Schema[ci].TypeID)
			switch {
			case cm.Offset < int64(len(Magic)) || cm.Size < 4 || cm.Size > m.dataEnd || cm.Offset > m.dataEnd-cm.Size:
				return fmt.Errorf("row group %d column %d: bytes [%d, +%d) outside the file's data", gi, ci, cm.Offset, cm.Size)
			case cm.NumValues != rg.NumRows:
				return fmt.Errorf("row group %d column %d: %d values in a group of %d rows", gi, ci, cm.NumValues, rg.NumRows)
			case cm.Compress > CompLZ4 || cm.Encoding > EncFOR ||
				(cm.Encoding == EncDict && t != types.String) ||
				(cm.Encoding == EncFOR && !forType(t)):
				return fmt.Errorf("row group %d column %d: encoding %d, compression %d", gi, ci, cm.Encoding, cm.Compress)
			case !statFits(cm.Min, t) || !statFits(cm.Max, t):
				return fmt.Errorf("row group %d column %d: min/max of %d/%d bytes", gi, ci, len(cm.Min), len(cm.Max))
			}
		}
	}
	if rows != m.NumRows {
		return fmt.Errorf("%d rows in row groups, %d in the file", rows, m.NumRows)
	}
	return nil
}

// statFits reports whether b, a min or max statistic of a type-t column, is
// absent or as long as DecodeStatValue reads: 16 bytes for a decimal, 8 for
// the other fixed-width types; a string's may be any length.
func statFits(b []byte, t types.TypeID) bool {
	switch {
	case b == nil || t == types.String:
		return true
	case t == types.Decimal:
		return len(b) == 16
	}
	return len(b) == 8
}
