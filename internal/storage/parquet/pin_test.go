package parquet

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned.parquet with this build's writer")

func pinSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "flag", Type: types.BoolType, Nullable: true},
		types.Field{Name: "qty", Type: types.Int32Type, Nullable: true},
		types.Field{Name: "day", Type: types.DateType, Nullable: true},
		types.Field{Name: "at", Type: types.TimestampType, Nullable: true},
		types.Field{Name: "ratio", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "price", Type: types.DecimalType(12, 2), Nullable: true},
		types.Field{Name: "big", Type: types.DecimalType(38, 4), Nullable: true},
		types.Field{Name: "city", Type: types.StringType, Nullable: true},    // dictionary chunk
		types.Field{Name: "comment", Type: types.StringType, Nullable: true}, // PLAIN chunk
		types.Field{Name: "late", Type: types.StringType, Nullable: true},    // all NULL in row group 0
	)
}

// pinRows are the rows of testdata/pinned.parquet: every column type, NULLs
// in every nullable column, a dictionary and a PLAIN string chunk, an
// all-NULL chunk, a decimal wider than 64 bits.
func pinRows() [][]any {
	const n = 1500
	wide, _ := types.ParseDecimal("12345678901234567890123456.7891", 4)
	rows := make([][]any, n)
	for i := range rows {
		row := []any{
			int64(i) * 1_000_003,
			i%3 == 0,
			int32(i%50 - 10),
			int32(9000 + i%2500),
			int64(1_600_000_000_000_000) + int64(i)*61_000_000,
			float64(i) / 7,
			types.DecimalFromInt64(int64(i*i) - 500_000),
			wide.MulInt64(int64(i%11 - 5)),
			fmt.Sprintf("city_%02d", i*i%23),
			fmt.Sprintf("comment %d: %x", i, i*2654435761),
			nil,
		}
		if i >= 1024 {
			row[10] = fmt.Sprintf("late_%d", i%4)
		}
		if i%7 == 3 {
			row[1+i%9] = nil
		}
		rows[i] = row
	}
	return rows
}

// pinFeed is one way of handing the pinned rows to a writer.
type pinFeed struct {
	name    string
	batches []*vector.Batch
}

// pinFeeds returns the rows as dense batches of 512 rows, dense batches of up
// to 2048 rows, and position-list views: 512 rows interleaved with decoy rows
// (other rows, reversed) that the selection vector leaves out. No batch spans
// a multiple of cut rows, the pinned file's row-group boundary.
func pinFeeds(schema *types.Schema, rows [][]any, cut int) []pinFeed {
	chunks := func(size int) [][][]any {
		var out [][][]any
		for lo := 0; lo < len(rows); {
			hi := min(lo+size, len(rows), (lo/cut+1)*cut)
			out = append(out, rows[lo:hi])
			lo = hi
		}
		return out
	}
	dense := func(size int) []*vector.Batch {
		var out []*vector.Batch
		for _, c := range chunks(size) {
			out = append(out, batchesOf(schema, c, size)...)
		}
		return out
	}
	var views []*vector.Batch
	decoy := len(rows) - 1
	for _, c := range chunks(512) {
		b := vector.NewBatch(schema, 2*len(c))
		var sel []int32
		for _, row := range c {
			sel = append(sel, int32(b.NumRows))
			b.AppendRow(row...)
			b.AppendRow(rows[decoy]...)
			decoy--
		}
		b.Sel = sel
		views = append(views, b)
	}
	return []pinFeed{{"dense512", dense(512)}, {"dense2048", dense(2048)}, {"views", views}}
}

// writeBatches writes batches as one file image.
func writeBatches(t *testing.T, schema *types.Schema, batches []*vector.Batch, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pinnedChunk is how one column chunk of a pinned file is stored.
type pinnedChunk struct {
	enc  Encoding
	comp Compression
}

// TestPinnedFile: testdata/pinned.parquet (two row groups of 1024 and 476
// rows; in the first, FOR chunks beside PLAIN ones of the same types whose
// values span 2^32 or more, every chunk LZ4-compressed but the FOR id chunk,
// which LZ4 does not shrink and is stored raw) decodes to the pinned rows,
// and this build's writer reproduces it byte for byte however the rows
// arrive.
func TestPinnedFile(t *testing.T) {
	path := filepath.Join("testdata", "pinned.parquet")
	rows := pinRows()
	opts := Options{Compression: CompLZ4, RowGroupRows: 1000}
	if *update {
		data := writeVectorized(t, pinSchema(), rows, opts)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data := checkPinnedDecode(t, path, map[int]pinnedChunk{
		0: {EncFOR, CompNone}, 1: {EncPlain, CompLZ4}, 2: {EncFOR, CompLZ4},
		3: {EncFOR, CompLZ4}, 4: {EncPlain, CompLZ4}, 5: {EncPlain, CompLZ4},
		6: {EncFOR, CompLZ4}, 7: {EncPlain, CompLZ4}, 8: {EncDict, CompLZ4},
		9: {EncPlain, CompLZ4},
	})
	for _, feed := range pinFeeds(pinSchema(), rows, 1024) {
		if got := writeBatches(t, pinSchema(), feed.batches, opts); !bytes.Equal(got, data) {
			t.Errorf("%s: writer produced %d bytes that differ from the pinned %d", feed.name, len(got), len(data))
		}
	}
}

// TestPinnedPlainFile: testdata/pinned_plain.parquet is pinned.parquet as
// first written, with every fixed-width chunk PLAIN and every chunk
// LZ4-compressed, and is never regenerated: a file written in that form
// stays readable, to the same rows, whatever the writer now chooses.
func TestPinnedPlainFile(t *testing.T) {
	chunks := map[int]pinnedChunk{8: {EncDict, CompLZ4}, 9: {EncPlain, CompLZ4}}
	for c, f := range pinSchema().Fields {
		if f.Type.ID != types.String {
			chunks[c] = pinnedChunk{EncPlain, CompLZ4}
		}
	}
	checkPinnedDecode(t, filepath.Join("testdata", "pinned_plain.parquet"), chunks)
}

// checkPinnedDecode checks that the file at path holds pinRows in two row
// groups of 1024 and 476 rows, column c of the first group stored as
// chunks[c], read whole and through OpenFile with a projection that reorders
// columns; it returns the file's bytes.
func checkPinnedDecode(t *testing.T, path string, chunks map[int]pinnedChunk) []byte {
	t.Helper()
	rows := pinRows()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Equal(pinSchema()) {
		t.Fatalf("schema = %v", r.Schema())
	}
	groups := r.Meta().RowGroups
	if len(groups) != 2 || groups[0].NumRows != 1024 || groups[1].NumRows != 476 {
		t.Fatalf("row groups = %+v", groups)
	}
	for c, want := range chunks {
		cm := groups[0].Columns[c]
		if got := (pinnedChunk{cm.Encoding, cm.Compress}); got != want {
			t.Errorf("column %d: encoding %d compress %d, want %d %d", c, got.enc, got.comp, want.enc, want.comp)
		}
	}
	got := readAllRows(t, data)
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !reflect.DeepEqual(got[i], rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], rows[i])
		}
	}

	// The same file through OpenFile with a projection that reorders columns.
	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Project([]string{"comment", "price", "id"}); err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		b, err := fr.NextBatch(300)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, row := range b.Rows() {
			want := []any{rows[i][9], rows[i][6], rows[i][0]}
			if !reflect.DeepEqual(row, want) {
				t.Fatalf("projected row %d = %v, want %v", i, row, want)
			}
			i++
		}
	}
	if i != len(rows) {
		t.Fatalf("projected scan returned %d rows", i)
	}
	return data
}

// referenceStringDict is the writer's dictionary rule as it stood when
// TestPinnedDictDecision was written: build the whole map, then judge it —
// no more than 65,536 entries, and no more than half as many entries as
// non-NULL values.
func referenceStringDict(v *vector.Vector, n int) *stringDict {
	d := &stringDict{}
	idx := make(map[string]uint32)
	hn := v.HasNulls()
	for k := 0; k < n; k++ {
		if hn && v.Nulls[k] != 0 {
			continue
		}
		s := v.Str[k]
		id, ok := idx[string(s)]
		if !ok {
			id = uint32(len(d.values))
			if id >= 1<<16 {
				return nil
			}
			idx[string(s)] = id
			d.values = append(d.values, s)
		}
		d.indices = append(d.indices, id)
	}
	if n == 0 || float64(len(d.values)) > 0.5*float64(len(d.indices)) {
		return nil
	}
	return d
}

// TestPinnedDictDecision: at each edge of the dictionary rule the writer
// chooses the encoding the reference builder chooses and writes the chunk
// bytes the reference implies.
func TestPinnedDictDecision(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "s", Type: types.StringType, Nullable: true})
	// column holds n rows, row i NULL when null(i); the non-NULL rows cycle
	// through distinct(nonNull) values, in order of first occurrence.
	column := func(n int, null func(i int) bool, distinct func(nonNull int) int) *vector.Batch {
		nonNull := 0
		for i := 0; i < n; i++ {
			if !null(i) {
				nonNull++
			}
		}
		d, j := max(distinct(nonNull), 1), 0
		b := vector.NewBatch(schema, n)
		for i := 0; i < n; i++ {
			if null(i) {
				b.AppendRow(nil)
				continue
			}
			b.AppendRow(fmt.Sprintf("v%d", j%d))
			j++
		}
		return b
	}
	everyThird := func(i int) bool { return i%3 == 1 }
	none := func(int) bool { return false }
	half := func(nonNull int) int { return nonNull / 2 }
	halfPlusOne := func(nonNull int) int { return nonNull/2 + 1 }
	cases := []struct {
		name string
		b    *vector.Batch
		want Encoding
	}{
		{"half_distinct_odd", column(1501, everyThird, half), EncDict},
		{"half_plus_one_distinct_odd", column(1501, everyThird, halfPlusOne), EncPlain},
		{"half_distinct_even", column(1500, everyThird, half), EncDict},
		{"half_plus_one_distinct_even", column(1500, everyThird, halfPlusOne), EncPlain},
		{"all_null", column(700, func(int) bool { return true }, half), EncDict},
		{"max_entries", column(1<<17, none, func(int) int { return 1 << 16 }), EncDict},
		{"max_entries_plus_one", column(1<<17+2, none, func(int) int { return 1<<16 + 1 }), EncPlain},
	}
	for _, c := range cases {
		v, n := c.b.Vecs[0], c.b.NumRows
		ref := referenceStringDict(v, n)
		if (ref != nil) != (c.want == EncDict) {
			t.Fatalf("%s: reference builder chose dictionary=%v", c.name, ref != nil)
		}
		data := writeBatches(t, schema, []*vector.Batch{c.b}, Options{Compression: CompNone, RowGroupRows: 1 << 20})
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		cm := r.Meta().RowGroups[0].Columns[0]
		body := binary.LittleEndian.AppendUint32(nil, uint32(n))
		if v.HasNulls() {
			body = append(body, 1)
			body, _ = packValidity(body, 0, v.Nulls[:n])
		} else {
			body = append(body, 0)
		}
		if ref != nil {
			body = ref.encodeInto(body)
			if cm.DictValues != len(ref.values) {
				t.Errorf("%s: %d dictionary entries, reference %d", c.name, cm.DictValues, len(ref.values))
			}
		} else {
			body = appendPlain(body, v, n)
		}
		want := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
		if cm.Encoding != c.want {
			t.Errorf("%s: encoding %d, want %d", c.name, cm.Encoding, c.want)
		}
		if got := data[cm.Offset : cm.Offset+cm.Size]; !bytes.Equal(got, want) {
			t.Errorf("%s: chunk of %d bytes differs from the reference's %d", c.name, len(got), len(want))
		}
	}
}

// TestPinnedFORDecision: at each edge of the FOR rule the writer chooses what
// the rule implies — FOR, based at the chunk minimum with the bits of the
// span as width, exactly when a chunk of an integer-valued type (a decimal's
// values fitting int64) has a non-NULL value and spans less than 2^32 — and
// the rows, and decimal vectors' Dec64 metadata, read back exactly, with
// the footer's statistics and without them.
func TestPinnedFORDecision(t *testing.T) {
	const n = 700
	wide, _ := types.ParseDecimal("18446744073709551617", 0) // 2^64+1: its low limb alone looks narrow
	cases := []struct {
		name  string
		typ   types.DataType
		val   func(i int) any // nil: NULL
		enc   Encoding
		base  int64
		width int
		dec64 vector.Dec64Info
	}{
		{"span_2^32-1", types.Int64Type, func(i int) any {
			if i == n/2 {
				return int64(1<<32 - 1)
			}
			return int64(i)
		}, EncFOR, 0, 32, 0},
		{"span_2^32", types.Int64Type, func(i int) any {
			if i == n/2 {
				return int64(1 << 32)
			}
			return int64(i)
		}, EncPlain, 0, 0, 0},
		{"int32_extremes", types.Int32Type, func(i int) any {
			return []int32{math.MinInt32, math.MaxInt32, int32(i)}[i%3]
		}, EncFOR, math.MinInt32, 32, 0},
		{"int64_extremes", types.Int64Type, func(i int) any {
			return []int64{math.MinInt64, math.MaxInt64}[i%2]
		}, EncPlain, 0, 0, 0},
		{"all_equal", types.Int64Type, func(int) any { return int64(42) }, EncFOR, 42, 0, 0},
		{"negative_base", types.Int64Type, func(i int) any { return -5_000_000_000 + int64(i*i) }, EncFOR, -5_000_000_000, 19, 0},
		{"nulls_interleaved", types.DateType, func(i int) any {
			if i%3 == 1 {
				return nil
			}
			return int32(9000 + i)
		}, EncFOR, 9000, 10, 0},
		{"all_null", types.Int64Type, func(int) any { return nil }, EncPlain, 0, 0, 0},
		{"decimal_narrow", types.DecimalType(18, 2), func(i int) any {
			if i%4 == 3 {
				return nil
			}
			return types.DecimalFromInt64(int64(i)*1000 - 7)
		}, EncFOR, -7, 20, vector.Dec64All},
		{"decimal_at_int64_max", types.DecimalType(38, 0), func(i int) any {
			return types.DecimalFromInt64(math.MaxInt64 - int64(i))
		}, EncFOR, math.MaxInt64 - (n - 1), 10, vector.Dec64All},
		{"decimal_one_wide", types.DecimalType(38, 0), func(i int) any {
			if i == n/2 {
				return wide
			}
			return types.DecimalFromInt64(int64(i))
		}, EncPlain, 0, 0, vector.Dec64Unknown},
		{"timestamp_wide", types.TimestampType, func(i int) any { return int64(i) * 10_000_000 }, EncPlain, 0, 0, 0},
		{"float", types.Float64Type, func(i int) any { return float64(i) }, EncPlain, 0, 0, 0},
		{"bool", types.BoolType, func(i int) any { return i%2 == 0 }, EncPlain, 0, 0, 0},
	}
	for _, c := range cases {
		schema := types.NewSchema(types.Field{Name: "v", Type: c.typ, Nullable: true})
		rows := make([][]any, n)
		b := vector.NewBatch(schema, n)
		for i := range rows {
			rows[i] = []any{c.val(i)}
			b.AppendRow(rows[i]...)
		}
		data := writeBatches(t, schema, []*vector.Batch{b}, Options{Compression: CompNone, RowGroupRows: n})
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		cm := r.Meta().RowGroups[0].Columns[0]
		if cm.Encoding != c.enc {
			t.Errorf("%s: encoding %d, want %d", c.name, cm.Encoding, c.enc)
			continue
		}
		if c.enc == EncFOR {
			// u32 rawLen, u32 rows, u8 hasNulls, validity bitmap, FOR payload.
			p := data[cm.Offset+9 : cm.Offset+cm.Size]
			if data[cm.Offset+8] == 1 {
				p = p[(n+7)/8:]
			}
			base, width, count := int64(binary.LittleEndian.Uint64(p)), int(p[8]), int(binary.LittleEndian.Uint32(p[9:]))
			if base != c.base || width != c.width || int64(count) != n-cm.NullCount || len(p)-13 != (count*width+7)/8 {
				t.Errorf("%s: base %d width %d, %d offsets in %d bytes; want base %d width %d", c.name, base, width, count, len(p)-13, c.base, c.width)
			}
		}
		// A FOR decimal is narrow by its encoding: the same verdict without
		// footer statistics.
		noStats := rewriteFooter(t, data, func(m *FileMeta) {
			m.RowGroups[0].Columns[0].Min, m.RowGroups[0].Columns[0].Max = nil, nil
		})
		for _, img := range [][]byte{data, noStats} {
			r, err := NewReader(img)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]any
			for {
				b, err := r.NextBatch(256)
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				if c.typ.ID == types.Decimal && b.Vecs[0].Dec64 != c.dec64 {
					t.Errorf("%s: Dec64 %d, want %d", c.name, b.Vecs[0].Dec64, c.dec64)
				}
				got = append(got, b.Rows()...)
			}
			if !reflect.DeepEqual(got, rows) {
				t.Errorf("%s: read back %d rows that differ from the %d written", c.name, len(got), len(rows))
			}
		}
	}
}
