package parquet

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// brokenFORImages returns, by the rule each breaks, file images whose one
// column chunk — FOR, PLAIN-compressed, 100 rows with NULLs — has a header
// or packed run the reader must refuse.
func brokenFORImages(t testing.TB) map[string][]byte {
	t.Helper()
	schema := types.NewSchema(types.Field{Name: "v", Type: types.Int64Type, Nullable: true})
	b := vector.NewBatch(schema, 100)
	for i := 0; i < 100; i++ {
		if i%10 == 3 {
			b.AppendRow(nil)
		} else {
			b.AppendRow(int64(1000 + i))
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, Options{Compression: CompNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good, cm := buf.Bytes(), w.Meta().RowGroups[0].Columns[0]
	if cm.Encoding != EncFOR || cm.Compress != CompNone {
		t.Fatalf("chunk encoding %d, compression %d", cm.Encoding, cm.Compress)
	}
	// u32 rawLen, u32 rows, u8 hasNulls, 13-byte validity bitmap, i64 base,
	// then the run's u8 width and u32 count.
	run := int(cm.Offset) + 4 + 5 + 13 + 8
	patched := func(off int, b ...byte) []byte {
		img := bytes.Clone(good)
		copy(img[off:], b)
		return img
	}
	cut := func(size int64) []byte {
		return rewriteFooter(t, good, func(m *FileMeta) { m.RowGroups[0].Columns[0].Size = size })
	}
	return map[string][]byte{
		"width 33":              patched(run, 33),
		"count above rows":      patched(run+1, binary.LittleEndian.AppendUint32(nil, 101)...),
		"count below the valid": patched(run+1, binary.LittleEndian.AppendUint32(nil, 50)...),
		"packed run truncated":  cut(cm.Size - 5),
		"run header truncated":  cut(int64(run+3) - cm.Offset),
		"base truncated":        cut(int64(run-4) - cm.Offset),
	}
}

// TestPinnedFORRejectsBrokenRuns: every broken FOR chunk fails the read
// with an error.
func TestPinnedFORRejectsBrokenRuns(t *testing.T) {
	for name, img := range brokenFORImages(t) {
		r, err := NewReader(img)
		if err != nil {
			t.Errorf("%s: footer refused: %v", name, err)
			continue
		}
		for {
			b, err := r.NextBatch(30)
			if err != nil {
				t.Logf("%s: %v", name, err)
				break
			}
			if b == nil {
				t.Errorf("%s: read to the end without an error", name)
				break
			}
		}
	}
}

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
	lying := rewriteFooter(f, small.Bytes(), func(meta *FileMeta) {
		meta.RowGroups[0].Columns[0].Size = 1 << 40
		meta.RowGroups[0].NumRows = 1 << 30
	})
	f.Add(lying, uint16(0), []byte(nil))
	plain, err := os.ReadFile(filepath.Join("testdata", "pinned_plain.parquet"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain, uint16(0), []byte(nil))
	broken := brokenFORImages(f)
	for _, name := range slices.Sorted(maps.Keys(broken)) {
		f.Add(broken[name], uint16(0), []byte(nil))
	}

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
