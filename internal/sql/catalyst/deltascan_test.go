package catalyst

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"photon/internal/storage/delta"
	"photon/internal/storage/parquet"
	"photon/internal/types"
	"photon/internal/vector"
)

// scanned is what a consumer sees of one scan batch: its rows and the
// per-column metadata kernels branch on.
type scanned struct {
	rows     [][]any
	hasNulls []bool
	dec64    []vector.Dec64Info
}

func record(b *vector.Batch) scanned {
	s := scanned{rows: b.Rows()}
	for _, v := range b.Vecs {
		s.hasNulls = append(s.hasNulls, v.HasNulls())
		s.dec64 = append(s.dec64, v.Dec64)
	}
	return s
}

// TestScanReusesBuffersAcrossFiles: a deltaScan whose readers hand their
// buffers from file to file returns what a fresh reader per file returns,
// across files that differ in row-group size, NULL layout, string encoding,
// decimal width and fixed-width encoding (PLAIN or FOR); it leaves no file open, even when closed early; and
// after the first file it allocates no more per file than a fixed overhead.
func TestScanReusesBuffersAcrossFiles(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "d", Type: types.DecimalType(38, 2), Nullable: true},
	)
	dir := t.TempDir()
	tbl, err := delta.Create(dir, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide, _ := types.ParseDecimal("123456789012345678901234.56", 2)
	specs := []struct {
		rows, group       int
		nulls, dict, wide bool
	}{
		{3000, 1000, true, true, false},  // NULLs, dictionary, narrow decimals
		{5000, 4000, false, false, true}, // no NULLs (stale NULL bytes), PLAIN, wide
		{700, 700, true, false, false},
		{2500, 300, false, true, true},
	}
	var files []delta.AddFile
	for f, sp := range specs {
		rows := make([][]any, sp.rows)
		for i := range rows {
			s := fmt.Sprintf("unique-%d-%d", f, i)
			if sp.dict {
				s = fmt.Sprintf("k%d", i%7)
			}
			d := types.DecimalFromInt64(int64(i*31 - 900))
			if sp.wide {
				d = wide.MulInt64(int64(i%5 - 2))
			}
			rows[i] = []any{int64(i), s, d}
			if sp.nulls && i%4 == 1 {
				rows[i][1], rows[i][2] = nil, nil
			}
		}
		name := fmt.Sprintf("f%d.parquet", f)
		out, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := parquet.NewWriter(out, schema, parquet.Options{Compression: parquet.CompLZ4, RowGroupRows: sp.group})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(rows); lo += 100 {
			b := vector.NewBatch(schema, 100)
			for _, r := range rows[lo:min(lo+100, len(rows))] {
				b.AppendRow(r...)
			}
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		enc := w.Meta().RowGroups[0].Columns[1].Encoding
		if (enc == parquet.EncDict) != sp.dict {
			t.Fatalf("file %d: string encoding %d", f, enc)
		}
		files = append(files, delta.AddFile{Path: name})
	}
	names := []string{"d", "s", "id"}
	checkScanMatchesFreshReaders(t, tbl, files, names)

	// Buffers also pass between a file whose fixed-width chunks are all
	// PLAIN, as every file written before FOR was, and FOR ones: the pinned
	// table's first data file as first written, then as written now.
	pinned := filepath.Join("..", "..", "storage", "delta", "testdata")
	mixed := []struct {
		src string
		enc parquet.Encoding
	}{
		{filepath.Join(pinned, "pinned_table_plain", "part-00001.parquet"), parquet.EncPlain},
		{filepath.Join(pinned, "pinned_table", "part-00001.parquet"), parquet.EncFOR},
		{filepath.Join(pinned, "pinned_table_plain", "part-00002.parquet"), parquet.EncPlain},
	}
	mixedDir := t.TempDir()
	mixedTbl, err := delta.Create(mixedDir, types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "name", Type: types.StringType, Nullable: true},
		types.Field{Name: "amount", Type: types.DecimalType(12, 2)},
		types.Field{Name: "day", Type: types.DateType},
	), nil)
	if err != nil {
		t.Fatal(err)
	}
	var mixedFiles []delta.AddFile
	for i, m := range mixed {
		data, err := os.ReadFile(m.src)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("m%d.parquet", i)
		if err := os.WriteFile(filepath.Join(mixedDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := parquet.NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []int{0, 2, 3} { // id, amount, day
			if enc := r.Meta().RowGroups[0].Columns[c].Encoding; enc != m.enc {
				t.Fatalf("%s column %d: encoding %d, want %d", m.src, c, enc, m.enc)
			}
		}
		mixedFiles = append(mixedFiles, delta.AddFile{Path: name})
	}
	checkScanMatchesFreshReaders(t, mixedTbl, mixedFiles, []string{"amount", "name", "day", "id"})

	early := &deltaScan{tbl: tbl, files: files, names: names}
	if b, err := early.Next(); err != nil || b == nil {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	if err := early.Close(); err != nil {
		t.Fatal(err)
	}
	if n := parquet.OpenFiles(); n != 0 {
		t.Fatalf("%d files left open", n)
	}

	// Bytes allocated to scan the widest file k times: the first pass sizes
	// the buffers, every later one pays only the footer, the schema and the
	// file handle.
	const k, perFile = 8, 16 << 10
	scanBytes := func(files []delta.AddFile) uint64 {
		least := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := &deltaScan{tbl: tbl, files: files, names: names}
			for {
				b, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	var same []delta.AddFile
	for range k {
		same = append(same, files[1])
	}
	one, all := scanBytes(same[:1]), scanBytes(same)
	t.Logf("one file %d B, %d files %d B (%d B per extra file)", one, k, all, (all-one)/(k-1))
	if all > one+(k-1)*perFile {
		t.Errorf("%d files allocated %d B, more than one file's %d B + %d B per extra file", k, all, one, perFile)
	}
}

// checkScanMatchesFreshReaders checks that a deltaScan of files, projected to
// names, returns batch for batch what a fresh reader per file returns.
func checkScanMatchesFreshReaders(t *testing.T, tbl *delta.Table, files []delta.AddFile, names []string) {
	t.Helper()
	var want []scanned
	for i := range files {
		r, err := tbl.OpenDataFile(&files[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Project(names); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := r.NextBatch(vector.DefaultBatchSize)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			want = append(want, record(b))
		}
	}
	var got []scanned
	s := &deltaScan{tbl: tbl, files: files, names: names}
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		got = append(got, record(b))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d batches, fresh readers %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("batch %d differs from a fresh reader's:\n got HasNulls %v Dec64 %v\nwant HasNulls %v Dec64 %v",
				i, got[i].hasNulls, got[i].dec64, want[i].hasNulls, want[i].dec64)
		}
	}
}
