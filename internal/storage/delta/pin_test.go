package delta

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned_table with this build's writers")

func pinTableRows(file int) [][]any {
	rows := make([][]any, 700)
	for i := range rows {
		id := int64(file*len(rows) + i)
		var name any = fmt.Sprintf("name_%d", id%13)
		if id%10 == 7 {
			name = nil
		}
		rows[i] = []any{id, name, types.DecimalFromInt64(id*37 - 9_000), int32(9500 + id%300)}
	}
	return rows
}

// TestPinnedTable: a table written by the commit that introduced this test
// (create + two appends: log JSON, Parquet/LZ4 data files) still opens and
// scans to the same rows.
func TestPinnedTable(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "name", Type: types.StringType, Nullable: true},
		types.Field{Name: "amount", Type: types.DecimalType(12, 2)},
		types.Field{Name: "day", Type: types.DateType},
	)
	dir := filepath.Join("testdata", "pinned_table")
	if *update {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		tbl, err := Create(dir, schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		for file := 0; file < 2; file++ {
			if err := tbl.Append([]*vector.Batch{makeBatch(t, schema, pinTableRows(file))}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.Snapshot(-1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || len(snap.Files) != 2 || !snap.Schema.Equal(schema) {
		t.Fatalf("version=%d files=%d schema=%v", snap.Version, len(snap.Files), snap.Schema)
	}
	want := append(pinTableRows(0), pinTableRows(1)...)
	if got := readAll(t, tbl, snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned table scanned to %d rows, want %d (or contents differ)", len(got), len(want))
	}
}
