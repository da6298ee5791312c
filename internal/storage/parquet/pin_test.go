package parquet

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"photon/internal/types"
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

// TestPinnedFile: a file written by the commit that introduced this test
// (LZ4, two row groups of 1024 and 476 rows) decodes to the same rows.
func TestPinnedFile(t *testing.T) {
	path := filepath.Join("testdata", "pinned.parquet")
	rows := pinRows()
	if *update {
		data := writeVectorized(t, pinSchema(), rows, Options{Compression: CompLZ4, RowGroupRows: 1000})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	for c, want := range map[int]Encoding{8: EncDict, 9: EncPlain} {
		cm := groups[0].Columns[c]
		if cm.Encoding != want || cm.Compress != CompLZ4 {
			t.Errorf("column %d: encoding %d compress %d", c, cm.Encoding, cm.Compress)
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
}
