package exec

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"photon/internal/fault"
	"photon/internal/types"
	"photon/internal/vector"
)

// TestDamagedSpillPartitionIsRetryable: a HashAgg spill partition damaged
// before it is merged fails the task with a transient error at spill-read,
// which the scheduler retries (the re-run writes its spill files afresh),
// and never merges a wrong row.
func TestDamagedSpillPartitionIsRetryable(t *testing.T) {
	agg, tc := spillingAgg(t)
	if err := agg.Open(tc); err != nil {
		t.Fatal(err)
	}
	// The first batch out merges the first partition; the last waits on disk.
	if _, err := agg.Next(); err != nil {
		t.Fatal(err)
	}
	last, err := filepath.Glob(filepath.Join(tc.SpillDir, "agg-p15-*"))
	if err != nil || len(last) != 1 {
		t.Fatalf("last partition file: %v %v", last, err)
	}
	f, err := os.OpenFile(last[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	// A value byte of the last rows written: the stream ends in an 8-byte end
	// marker.
	b, at := make([]byte, 1), info.Size()-9
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	for {
		out, err := agg.Next()
		if err != nil {
			var fe *fault.Error
			if !errors.As(err, &fe) || !fe.Transient || fe.Site != fault.SpillRead {
				t.Fatalf("err = %v, want a transient *fault.Error at %s", err, fault.SpillRead)
			}
			break
		}
		if out == nil {
			t.Fatal("a damaged spill partition merged without an error")
		}
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}
	expectNoSpillFiles(t, tc)
}

// expectNoSpillFiles fails the test if a closed operator left anything in
// the task's spill directory.
func expectNoSpillFiles(t *testing.T, tc *TaskCtx) {
	t.Helper()
	left, err := os.ReadDir(tc.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("spill file %s outlived Close", e.Name())
	}
}

// TestSpillRunIOErrorsAreRetryable: a run whose file is closed underneath it
// fails its flush as a transient error at spill-write and its read as a
// transient error at spill-read, so the scheduler re-runs the task.
func TestSpillRunIOErrorsAreRetryable(t *testing.T) {
	tc := NewTaskCtx(nil, 64)
	tc.SpillDir = t.TempDir()
	schema := intSchema("v")
	b := BuildBatches(schema, [][]any{{int64(1)}, {int64(2)}}, 64)[0]
	wantTransient := func(err error, site fault.Site) {
		t.Helper()
		var fe *fault.Error
		if !errors.As(err, &fe) || !fe.Transient || fe.Site != site {
			t.Errorf("err = %v, want a transient *fault.Error at %s", err, site)
		}
	}

	w, err := newSpillRun(tc, "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.write(b); err != nil { // buffered: the file is not touched yet
		t.Fatal(err)
	}
	w.f.Close()
	wantTransient(w.finish(), fault.SpillWrite)
	w.remove()

	r, err := newSpillRun(tc, "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.write(b); err != nil {
		t.Fatal(err)
	}
	if err := r.finish(); err != nil {
		t.Fatal(err)
	}
	r.f.Close()
	_, err = r.read(vector.NewBatch(schema, 64))
	wantTransient(err, fault.SpillRead)
	r.remove()
	expectNoSpillFiles(t, tc)
}

// TestFailedSpillPartsLeaveNoFiles: when making the fourth file of a
// partition set fails, the three already made are removed.
func TestFailedSpillPartsLeaveNoFiles(t *testing.T) {
	tc := NewTaskCtx(nil, 64)
	tc.SpillDir = t.TempDir()
	made := 0
	tc.MakeSpillDir = func() (string, error) {
		if made++; made == 4 {
			return "", errors.New("no room")
		}
		return tc.SpillDir, nil
	}
	if runs, err := newSpillParts(tc, "p"); err == nil || runs != nil {
		t.Fatalf("newSpillParts = %v, %v; want an error", runs, err)
	}
	expectNoSpillFiles(t, tc)
}

// spillOnly are what only spill.go may name: the file system, the serde
// stream and the spill failpoint sites.
var spillOnly = map[string]bool{
	"os": true, "io": true, "photon/internal/serde": true,
	"fault.SpillWrite": true, "fault.SpillRead": true,
}

// TestSpillFilesStayInSpillGo parses the package's non-test files: none but
// spill.go may import os, io or serde, or name a spill failpoint site, so the
// spill file's format, lifetime and fault policy have one owner.
func TestSpillFilesStayInSpillGo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "spill.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); spillOnly[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && spillOnly[x.Name+"."+sel.Sel.Name] {
					t.Errorf("%s names %s.%s", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// spillSchema has a column of every type a spill stream carries: a unique
// id, a string, then bool, int32, date, int64, timestamp, float64, a narrow
// and a wide decimal.
func spillSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "b", Type: types.BoolType, Nullable: true},
		types.Field{Name: "i", Type: types.Int32Type, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "l", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "ts", Type: types.TimestampType, Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "m", Type: types.DecimalType(12, 2), Nullable: true},
		types.Field{Name: "w", Type: types.DecimalType(38, 2), Nullable: true},
	)
}

// spillRows returns n rows of spillSchema with ids 0..n-1. Strings repeat
// (≈ 300 short values) and are sometimes NULL, empty or ≥ 4 KB; every
// nullable column holds NULLs; half the wide decimals are ±2^63.
func spillRows(n int, seed int64) [][]any {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]any, n)
	for i := range rows {
		var s any
		switch r := rng.Intn(40); {
		case r == 0:
			s = nil
		case r == 1:
			s = ""
		case r == 2:
			s = strings.Repeat(string(rune('a'+rng.Intn(26))), 4096+rng.Intn(64))
		default:
			s = fmt.Sprintf("k%03d", rng.Intn(300))
		}
		w := types.DecimalFromInt64(rng.Int63n(1e6) - 5e5)
		switch rng.Intn(4) {
		case 0:
			w = types.Decimal128{Lo: 1 << 63} // 2^63
		case 1:
			w = types.Decimal128{Lo: 1 << 63, Hi: -1} // -2^63
		}
		row := []any{int64(i), s, rng.Intn(2) == 0, rng.Int31n(1e6) - 5e5, rng.Int31n(20000),
			rng.Int63() - 1<<62, rng.Int63n(1e15), rng.NormFloat64() * 1e3, types.DecimalFromInt64(rng.Int63n(1e9)), w}
		for c := 2; c < len(row); c++ {
			if rng.Intn(10) == 0 {
				row[c] = nil
			}
		}
		rows[i] = row
	}
	return rows
}
