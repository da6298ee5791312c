package delta

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
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

// pinBatches hands rows to Append in batches of size rows; as views, each
// batch interleaves its rows with decoy rows (the same rows, reversed) that
// its selection vector leaves out.
func pinBatches(schema *types.Schema, rows [][]any, size int, views bool) []*vector.Batch {
	var out []*vector.Batch
	for lo := 0; lo < len(rows); lo += size {
		b := vector.NewBatch(schema, 2*size)
		var sel []int32
		for i, row := range rows[lo:min(lo+size, len(rows))] {
			if views {
				b.AppendRow(rows[len(rows)-1-lo-i]...)
				sel = append(sel, int32(b.NumRows))
			}
			b.AppendRow(row...)
		}
		b.Sel = sel
		out = append(out, b)
	}
	return out
}

// writePinTable creates the pinned table at dir: create, then one append per
// file of rows, each handed over as feed makes batches of it.
func writePinTable(t *testing.T, dir string, schema *types.Schema, feed func([][]any) []*vector.Batch) {
	t.Helper()
	tbl, err := Create(dir, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	for file := 0; file < 2; file++ {
		if err := tbl.Append(feed(pinTableRows(file)), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// dirFiles reads every regular file under dir, keyed by its relative path.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPinnedTable: a table written by the commit that introduced this test
// (create + two appends: log JSON, Parquet/LZ4 data files) still opens and
// scans to the same rows, and this build's writers reproduce it byte for
// byte, log included, however the rows arrive.
func TestPinnedTable(t *testing.T) {
	schema := pinTableSchema()
	dir := filepath.Join("testdata", "pinned_table")
	if *update {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		writePinTable(t, dir, schema, func(rows [][]any) []*vector.Batch { return []*vector.Batch{makeBatch(t, schema, rows)} })
	}
	pinned := dirFiles(t, dir)
	for _, feed := range []struct {
		name  string
		size  int
		views bool
	}{{"dense512", 512, false}, {"dense2048", 2048, false}, {"views", 512, true}} {
		out := filepath.Join(t.TempDir(), "pinned_table")
		writePinTable(t, out, schema, func(rows [][]any) []*vector.Batch {
			return pinBatches(schema, rows, feed.size, feed.views)
		})
		got := dirFiles(t, out)
		if len(got) != len(pinned) {
			t.Errorf("%s: wrote %d files, pinned table has %d", feed.name, len(got), len(pinned))
		}
		for name, want := range pinned {
			if !bytes.Equal(got[name], want) {
				t.Errorf("%s: %s: %d bytes differ from the pinned %d", feed.name, name, len(got[name]), len(want))
			}
		}
	}
	checkPinnedScan(t, dir)
}

// TestPinnedPlainTable: testdata/pinned_table_plain is pinned_table as first
// written, its data files' fixed-width chunks all PLAIN, and is never
// regenerated: a table written in that form still opens and scans to the
// pinned rows.
func TestPinnedPlainTable(t *testing.T) {
	checkPinnedScan(t, filepath.Join("testdata", "pinned_table_plain"))
}

func pinTableSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "name", Type: types.StringType, Nullable: true},
		types.Field{Name: "amount", Type: types.DecimalType(12, 2)},
		types.Field{Name: "day", Type: types.DateType},
	)
}

// checkPinnedScan checks that the table at dir is at version 2 with two data
// files and scans to the pinned rows.
func checkPinnedScan(t *testing.T, dir string) {
	t.Helper()
	tbl, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tbl.Snapshot(-1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || len(snap.Files) != 2 || !snap.Schema.Equal(pinTableSchema()) {
		t.Fatalf("version=%d files=%d schema=%v", snap.Version, len(snap.Files), snap.Schema)
	}
	want := append(pinTableRows(0), pinTableRows(1)...)
	if got := readAll(t, tbl, snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned table scanned to %d rows, want %d (or contents differ)", len(got), len(want))
	}
}
