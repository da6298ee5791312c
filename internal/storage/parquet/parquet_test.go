package parquet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "i", Type: types.Int32Type, Nullable: true},
		types.Field{Name: "l", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "ts", Type: types.TimestampType, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "b", Type: types.BoolType, Nullable: true},
	)
}

// genRows builds the Fig. 7 shaped six-column data.
func genRows(n int, seed int64) [][]any {
	rng := rand.New(rand.NewSource(seed))
	var rows [][]any
	for i := 0; i < n; i++ {
		row := []any{
			int32(rng.Intn(100000)),
			rng.Int63(),
			int32(18000 + rng.Intn(1000)),
			int64(1.6e15) + rng.Int63n(1e12),
			fmt.Sprintf("city_%03d", rng.Intn(200)), // dictionary-friendly
			rng.Intn(2) == 0,
		}
		if rng.Intn(17) == 0 {
			row[rng.Intn(6)] = nil
		}
		rows = append(rows, row)
	}
	return rows
}

func batchesOf(schema *types.Schema, rows [][]any, size int) []*vector.Batch {
	var out []*vector.Batch
	for start := 0; start < len(rows); start += size {
		end := min(start+size, len(rows))
		b := vector.NewBatch(schema, size)
		for _, r := range rows[start:end] {
			b.AppendRow(r...)
		}
		out = append(out, b)
	}
	return out
}

func writeVectorized(t *testing.T, schema *types.Schema, rows [][]any, opts Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batchesOf(schema, rows, 512) {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAllRows(t *testing.T, data []byte) [][]any {
	t.Helper()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := r.ReadAll(512)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, b := range batches {
		rows = append(rows, b.Rows()...)
	}
	return rows
}

func TestVectorizedRoundTrip(t *testing.T) {
	schema := testSchema()
	rows := genRows(3000, 1)
	for _, opts := range []Options{
		{Compression: CompLZ4},
		{Compression: CompNone},
		{Compression: CompLZ4, DisableDict: true},
		{Compression: CompLZ4, RowGroupRows: 700},
	} {
		data := writeVectorized(t, schema, rows, opts)
		got := readAllRows(t, data)
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("round trip mismatch with opts %+v (%d vs %d rows)", opts, len(got), len(rows))
		}
	}
}

func TestRowWriterRoundTripAndEquivalence(t *testing.T) {
	schema := testSchema()
	rows := genRows(2500, 2)
	var buf bytes.Buffer
	rw, err := NewRowWriter(&buf, schema, Options{Compression: CompLZ4, RowGroupRows: 600})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := rw.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAllRows(t, buf.Bytes())
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("row-writer round trip mismatch")
	}
	// The two writers must agree on decoded contents.
	vec := writeVectorized(t, schema, rows, Options{Compression: CompLZ4, RowGroupRows: 600})
	if !reflect.DeepEqual(readAllRows(t, vec), got) {
		t.Fatal("vectorized and row writers decode differently")
	}
}

// edgeSchema and edgeRows hold statistics at their edges, one 1024-row
// group each: DOUBLE with a leading NaN and ±Inf, then −0.0 before +0.0 as
// the least value, then +0.0 before −0.0 as the greatest (the group's
// second 512-row batch opens with the other zero, so the first of equal
// bounds must win across batches too); STRING with the
// empty string first and values of 32, 33 and 40 bytes about the stats cap,
// then only empty strings, then only values longer than the cap; BOOLEAN
// mixed, all false, all true. NULLs fall in every column.
func edgeSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "b", Type: types.BoolType, Nullable: true},
	)
}

func edgeRows() [][]any {
	negZero := math.Copysign(0, -1)
	rows := make([][]any, 3*1024)
	for i := range rows {
		k := i % 1024
		var row []any
		switch i / 1024 {
		case 0:
			row = []any{
				[]float64{math.NaN(), 1.5, math.Inf(1), -2, math.Inf(-1), math.NaN()}[k%6],
				[]string{"", strings.Repeat("m", 32), strings.Repeat("z", 33), strings.Repeat("a", 40), "b"}[k%5],
				k%3 == 0,
			}
		case 1: // the second 512-row batch starts with +0.0
			row = []any{[]float64{negZero, 0, 3}[(k+2*(k/512))%3], "", false}
		case 2: // the second 512-row batch starts with −0.0
			row = []any{[]float64{0, negZero, -3, math.NaN()}[(k+k/512)%4], strings.Repeat("q", 33+k%8), true}
		}
		if k%11 == 5 {
			row[k/11%3] = nil
		}
		rows[i] = row
	}
	return rows
}

// TestRowWriterWritesSameFile: where both writers cut row groups at the same
// rows (a multiple of the 512-row batches), they write the same file, so
// Fig. 7 times two writers of one format. Checked on the Fig. 7 rows (FOR,
// PLAIN, dictionary and boolean chunks), the pinned rows (every type,
// decimals narrow and wide, an all-NULL chunk) and the edge rows (NaN, ±Inf,
// ±0, strings about the stats cap).
func TestRowWriterWritesSameFile(t *testing.T) {
	opts := Options{Compression: CompLZ4, RowGroupRows: 1024}
	for _, c := range []struct {
		name   string
		schema *types.Schema
		rows   [][]any
	}{{"fig7", testSchema(), genRows(2500, 2)}, {"pinned", pinSchema(), pinRows()}, {"edges", edgeSchema(), edgeRows()}} {
		var buf bytes.Buffer
		rw, err := NewRowWriter(&buf, c.schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.rows {
			if err := rw.WriteRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if vec := writeVectorized(t, c.schema, c.rows, opts); !bytes.Equal(vec, buf.Bytes()) {
			t.Errorf("%s: vectorized writer wrote %d bytes, row writer %d that differ", c.name, len(vec), buf.Len())
		}
	}
}

// TestStatsLeaveOutNaN: NaN is never a bound, whichever writer and wherever
// it falls in the chunk; a chunk of NaN alone records none.
func TestStatsLeaveOutNaN(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "f", Type: types.Float64Type})
	nan := math.NaN()
	for _, c := range []struct {
		vals   []float64
		lo, hi any
	}{
		{[]float64{nan, 1, 2}, 1.0, 2.0},
		{[]float64{1, nan, 2}, 1.0, 2.0},
		{[]float64{2, 1, nan}, 1.0, 2.0},
		{[]float64{nan, nan}, nil, nil},
	} {
		rows := make([][]any, len(c.vals))
		for i, v := range c.vals {
			rows[i] = []any{v}
		}
		var buf bytes.Buffer
		rw, err := NewRowWriter(&buf, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := rw.WriteRow(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{"row": buf.Bytes(), "vectorized": writeVectorized(t, schema, rows, Options{})} {
			r, err := NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			cm := r.Meta().RowGroups[0].Columns[0]
			lo, hi := DecodeStatValue(cm.Min, types.Float64Type), DecodeStatValue(cm.Max, types.Float64Type)
			if lo != c.lo || hi != c.hi {
				t.Errorf("%s writer: %v records [%v, %v], want [%v, %v]", name, c.vals, lo, hi, c.lo, c.hi)
			}
		}
	}
}

func TestDictionaryChosenForLowCardinality(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "s", Type: types.StringType})
	var rows [][]any
	for i := 0; i < 5000; i++ {
		rows = append(rows, []any{fmt.Sprintf("v%d", i%10)})
	}
	data := writeVectorized(t, schema, rows, Options{Compression: CompNone})
	r, _ := NewReader(data)
	cm := r.Meta().RowGroups[0].Columns[0]
	if cm.Encoding != EncDict {
		t.Error("low-cardinality strings should dictionary-encode")
	}
	if cm.DictValues != 10 {
		t.Errorf("dict size = %d", cm.DictValues)
	}
	// High-cardinality: PLAIN.
	rows = rows[:0]
	for i := 0; i < 5000; i++ {
		rows = append(rows, []any{fmt.Sprintf("unique_%06d", i)})
	}
	data = writeVectorized(t, schema, rows, Options{Compression: CompNone})
	r, _ = NewReader(data)
	if r.Meta().RowGroups[0].Columns[0].Encoding != EncPlain {
		t.Error("high-cardinality strings should stay PLAIN")
	}
}

func TestStatsAndSkipping(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "v", Type: types.Int64Type, Nullable: true})
	rows := [][]any{{int64(5)}, {int64(-3)}, {nil}, {int64(100)}}
	data := writeVectorized(t, schema, rows, Options{})
	r, _ := NewReader(data)
	cm := r.Meta().RowGroups[0].Columns[0]
	if cm.NullCount != 1 {
		t.Errorf("null count = %d", cm.NullCount)
	}
	if got := DecodeStatValue(cm.Min, types.Int64Type); got.(int64) != -3 {
		t.Errorf("min = %v", got)
	}
	if got := DecodeStatValue(cm.Max, types.Int64Type); got.(int64) != 100 {
		t.Errorf("max = %v", got)
	}
}

func TestAllNullColumnStats(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "v", Type: types.StringType, Nullable: true})
	rows := [][]any{{nil}, {nil}}
	data := writeVectorized(t, schema, rows, Options{})
	r, _ := NewReader(data)
	cm := r.Meta().RowGroups[0].Columns[0]
	if cm.Min != nil || cm.Max != nil {
		t.Error("all-NULL column should have no min/max")
	}
	got := readAllRows(t, data)
	if !reflect.DeepEqual(got, rows) {
		t.Error("all-NULL round trip failed")
	}
}

func TestProjection(t *testing.T) {
	schema := testSchema()
	rows := genRows(500, 3)
	data := writeVectorized(t, schema, rows, Options{})
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Project([]string{"s", "i"}); err != nil {
		t.Fatal(err)
	}
	batches, err := r.ReadAll(128)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]any
	for _, b := range batches {
		got = append(got, b.Rows()...)
	}
	if len(got) != len(rows) {
		t.Fatalf("projected rows = %d", len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i][0], rows[i][4]) || !reflect.DeepEqual(got[i][1], rows[i][0]) {
			t.Fatalf("projection row %d: %v vs source %v", i, got[i], rows[i])
		}
	}
	if err := r.Project([]string{"nope"}); err == nil {
		t.Error("projecting a missing column should fail")
	}
}

func TestValidityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nulls := make([]byte, 3000)
	for i := range nulls {
		switch {
		case i >= 1000 && i < 1500: // a stretch with no NULLs: whole words valid
		case rng.Intn(5) == 0:
			nulls[i] = 1
		}
	}
	// Pack in segments of any length, as WriteBatch receives them.
	var bitmap []byte
	bit := 0
	for lo := 0; lo < len(nulls); {
		hi := min(lo+1+rng.Intn(200), len(nulls))
		bitmap, bit = packValidity(bitmap, bit, nulls[lo:hi])
		lo = hi
	}
	if bit != len(nulls) || len(bitmap) != (len(nulls)+7)/8 {
		t.Fatalf("packed %d bits into %d bytes", bit, len(bitmap))
	}
	for start := 0; start < len(nulls); {
		k := min(1+rng.Intn(400), len(nulls)-start)
		got := bytes.Repeat([]byte{7}, k)
		want := 0
		for _, b := range nulls[start : start+k] {
			want += int(b)
		}
		if n := unpackValidity(got, bitmap, start); n != want || !bytes.Equal(got, nulls[start:start+k]) {
			t.Fatalf("rows [%d, %d): %d NULLs, want %d (or bytes differ)", start, start+k, n, want)
		}
		start += k
	}
}

// Batches of any length — not only multiples of eight rows — share one
// validity bitmap per chunk.
func TestOddSizedBatchesWithNulls(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "v", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	var rows [][]any
	for i := 0; i < 1000; i++ {
		row := []any{int64(i), fmt.Sprintf("s%d", i%5)}
		if i%3 == 0 {
			row[i%2] = nil
		}
		rows = append(rows, row)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, Options{Compression: CompLZ4})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batchesOf(schema, rows, 37) {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAllRows(t, buf.Bytes()); !reflect.DeepEqual(got, rows) {
		t.Fatal("round trip of 37-row batches with NULLs mismatch")
	}
}

func TestCorruptFooter(t *testing.T) {
	if _, err := NewReader([]byte("short")); err == nil {
		t.Error("short file accepted")
	}
	schema := types.NewSchema(types.Field{Name: "v", Type: types.Int64Type})
	data := writeVectorized(t, schema, [][]any{{int64(1)}}, Options{})
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] = 'X'
	if _, err := NewReader(bad); err == nil {
		t.Error("corrupt magic accepted")
	}

	// Statistics of a fixed-width column are decoded without a length check
	// (DecodeStatValue: Delta file statistics, a decimal chunk's width), so
	// the footer must vouch for their length, a string's being any length;
	// and for an encoding its column's type can carry.
	schema = types.NewSchema(
		types.Field{Name: "v", Type: types.Int64Type},
		types.Field{Name: "d", Type: types.DecimalType(12, 2)},
		types.Field{Name: "s", Type: types.StringType},
	)
	data = writeVectorized(t, schema, [][]any{{int64(1), types.DecimalFromInt64(5), "x"}}, Options{})
	for name, c := range map[string]struct {
		edit func(cm []ColumnChunkMeta)
		ok   bool
	}{
		"int min of 3 bytes":     {func(cm []ColumnChunkMeta) { cm[0].Min = cm[0].Min[:3] }, false},
		"int max of 16 bytes":    {func(cm []ColumnChunkMeta) { cm[0].Max = append(cm[0].Max, cm[0].Max...) }, false},
		"decimal min of 8 bytes": {func(cm []ColumnChunkMeta) { cm[1].Min = cm[1].Min[:8] }, false},
		"string max of 40 bytes": {func(cm []ColumnChunkMeta) { cm[2].Max = bytes.Repeat([]byte("y"), 40) }, true},
		"int stats absent":       {func(cm []ColumnChunkMeta) { cm[0].Min, cm[0].Max = nil, nil }, true},
		"as written":             {func(cm []ColumnChunkMeta) {}, true},
		"FOR on a string":        {func(cm []ColumnChunkMeta) { cm[2].Encoding = EncFOR }, false},
		"dictionary on an int":   {func(cm []ColumnChunkMeta) { cm[0].Encoding = EncDict }, false},
		"unknown encoding":       {func(cm []ColumnChunkMeta) { cm[0].Encoding = EncFOR + 1 }, false},
	} {
		bad := rewriteFooter(t, data, func(m *FileMeta) { c.edit(m.RowGroups[0].Columns) })
		if _, err := NewReader(bad); (err == nil) != c.ok {
			t.Errorf("%s: NewReader error %v", name, err)
		}
	}
}

// rewriteFooter returns a copy of the file image data whose footer is edit's
// changes to data's.
func rewriteFooter(t testing.TB, data []byte, edit func(*FileMeta)) []byte {
	t.Helper()
	footLen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	start := len(data) - 8 - footLen
	var meta FileMeta
	if err := json.Unmarshal(data[start:len(data)-8], &meta); err != nil {
		t.Fatal(err)
	}
	edit(&meta)
	body, err := json.Marshal(&meta)
	if err != nil {
		t.Fatal(err)
	}
	out := append(bytes.Clone(data[:start]), body...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, Magic...)
}

func TestDecimalColumn(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "d", Type: types.DecimalType(12, 2), Nullable: true})
	d1, _ := types.ParseDecimal("123.45", 2)
	d2, _ := types.ParseDecimal("-0.99", 2)
	rows := [][]any{{d1}, {nil}, {d2}}
	data := writeVectorized(t, schema, rows, Options{})
	got := readAllRows(t, data)
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("decimal round trip: %v", got)
	}
	r, _ := NewReader(data)
	cm := r.Meta().RowGroups[0].Columns[0]
	if got := DecodeStatValue(cm.Min, types.DecimalType(12, 2)); got.(types.Decimal128).Cmp(d2) != 0 {
		t.Errorf("decimal min = %v", got)
	}
}
