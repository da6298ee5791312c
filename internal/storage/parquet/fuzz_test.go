package parquet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"photon/internal/types"
)

// FuzzParquetReader feeds arbitrary bytes to the reader as a file image —
// footer and chunks — and, so that mutations also land behind a footer that
// still parses, the same image with patch written over it at off. It must
// return an error or valid batches: never panic, never hand back a batch
// that disagrees with its schema or its own row count, never size anything
// from a number the bytes do not back up (the reader allocates per batch and
// per chunk, and a chunk is bounded by what LZ4 can expand the file's own
// bytes to).
func FuzzParquetReader(f *testing.F) {
	pinned, err := os.ReadFile(filepath.Join("testdata", "pinned.parquet"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned, uint16(0), []byte(nil))
	var small bytes.Buffer
	for _, opts := range []Options{{Compression: CompLZ4}, {Compression: CompNone, RowGroupRows: 40}} {
		small.Reset()
		w, err := NewWriter(&small, testSchema(), opts)
		if err != nil {
			f.Fatal(err)
		}
		for _, b := range batchesOf(testSchema(), genRows(100, 9), 30) {
			if err := w.WriteBatch(b); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(small.Bytes()), uint16(9), []byte{0xff, 0xff, 0xff, 0x7f})
	}
	// A footer that lies: chunks past the data, row counts that disagree.
	lying := bytes.Clone(small.Bytes())
	footLen := int(binary.LittleEndian.Uint32(lying[len(lying)-8:]))
	var meta FileMeta
	if err := json.Unmarshal(lying[len(lying)-8-footLen:len(lying)-8], &meta); err != nil {
		f.Fatal(err)
	}
	meta.RowGroups[0].Columns[0].Size = 1 << 40
	meta.RowGroups[0].NumRows = 1 << 30
	body, _ := json.Marshal(&meta)
	lying = append(lying[:len(lying)-8-footLen], body...)
	lying = binary.LittleEndian.AppendUint32(lying, uint32(len(body)))
	f.Add(append(lying, Magic...), uint16(0), []byte(nil))

	f.Fuzz(func(t *testing.T, data []byte, off uint16, patch []byte) {
		if len(data) > 0 {
			copy(data[int(off)%len(data):], patch)
		}
		r, err := NewReader(data)
		if err != nil {
			return
		}
		schema := r.Schema()
		// A dictionary chunk can stand for any number of rows in a few
		// bytes, so bound the batches read, not the rows claimed.
		for batches := 0; batches < 64; batches++ {
			b, err := r.NextBatch(256)
			if err != nil || b == nil {
				return
			}
			if b.NumRows <= 0 || b.NumRows > 256 || b.Sel != nil || len(b.Vecs) != schema.Len() {
				t.Fatalf("batch of %d rows, %d columns", b.NumRows, len(b.Vecs))
			}
			for c, v := range b.Vecs {
				if !v.Type.Equal(schema.Field(c).Type) || v.Capacity() < b.NumRows {
					t.Fatalf("column %d: %v with capacity %d", c, v.Type, v.Capacity())
				}
				if v.Type.ID == types.String {
					for i := 0; i < b.NumRows; i++ {
						if v.Nulls[i] != 0 && v.Str[i] != nil {
							t.Fatalf("column %d row %d: NULL with a payload", c, i)
						}
					}
				}
			}
			_ = b.Rows() // every slot readable
		}
	})
}
