package vector

import (
	"fmt"
	"testing"
	"unsafe"

	"photon/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "name", Type: types.StringType, Nullable: true},
		types.Field{Name: "price", Type: types.Float64Type, Nullable: true},
	)
}

func TestBatchAppendAndRows(t *testing.T) {
	b := NewBatch(testSchema(), 16)
	b.AppendRow(int64(1), "alpha", 1.5)
	b.AppendRow(int64(2), nil, 2.5)
	b.AppendRow(int64(3), "gamma", nil)
	if b.NumRows != 3 || b.NumActive() != 3 || !b.AllActive() {
		t.Fatalf("counts wrong: %v", b)
	}
	rows := b.Rows()
	if rows[1][1] != nil {
		t.Error("null string not preserved")
	}
	if rows[2][2] != nil {
		t.Error("null float not preserved")
	}
	if rows[0][0].(int64) != 1 || rows[0][1].(string) != "alpha" {
		t.Errorf("row 0 = %v", rows[0])
	}
	if !b.Vecs[1].HasNulls() || !b.Vecs[2].HasNulls() {
		t.Error("hasNulls metadata not set")
	}
	if b.Vecs[0].HasNulls() {
		t.Error("id column should be null-free")
	}
}

func TestSelectionAndSparsity(t *testing.T) {
	b := NewBatch(testSchema(), 8)
	for i := 0; i < 8; i++ {
		b.AppendRow(int64(i), "s", float64(i))
	}
	b.SetSel([]int32{1, 4, 6})
	if b.NumActive() != 3 || b.AllActive() {
		t.Fatal("selection not applied")
	}
	if got := b.RowIndex(2); got != 6 {
		t.Errorf("RowIndex(2) = %d", got)
	}
	if got := b.Sparsity(); got < 0.62 || got > 0.63 {
		t.Errorf("Sparsity = %v", got)
	}
	rows := b.Rows()
	if len(rows) != 3 || rows[0][0].(int64) != 1 {
		t.Errorf("Rows under sel: %v", rows)
	}
}

func TestCompact(t *testing.T) {
	b := NewBatch(testSchema(), 8)
	for i := 0; i < 8; i++ {
		var name any = "keep"
		if i%2 == 0 {
			name = nil
		}
		b.AppendRow(int64(i), name, float64(i)*1.5)
	}
	b.SetSel([]int32{1, 3, 5, 7})
	b.Compact()
	if !b.AllActive() || b.NumRows != 4 {
		t.Fatalf("compact failed: %v", b)
	}
	rows := b.Rows()
	for i, r := range rows {
		want := int64(2*i + 1)
		if r[0].(int64) != want {
			t.Errorf("row %d id = %v, want %d", i, r[0], want)
		}
		if r[1] != "keep" {
			t.Errorf("row %d name = %v", i, r[1])
		}
	}
	// Compacted survivors were all non-null, so metadata should recompute.
	if b.Vecs[1].HasNulls() {
		t.Error("hasNulls should be false after compacting out the null rows")
	}
	// Compacting an already-dense batch is a no-op.
	before := b.NumRows
	b.Compact()
	if b.NumRows != before {
		t.Error("double compact changed batch")
	}
}

func TestRecomputeHasNulls(t *testing.T) {
	v := New(types.Int64Type, 4)
	v.SetNull(2)
	if !v.HasNulls() {
		t.Fatal("SetNull should set metadata")
	}
	// After filtering to rows {0,1}, the column is null-free.
	v.RecomputeHasNulls([]int32{0, 1}, 4)
	if v.HasNulls() {
		t.Error("RecomputeHasNulls over sel should clear")
	}
	v.RecomputeHasNulls(nil, 4)
	if !v.HasNulls() {
		t.Error("RecomputeHasNulls over all rows should find the null")
	}
}

func TestVectorResetKeepsCapacityClearsState(t *testing.T) {
	v := New(types.StringType, 4)
	v.Set(0, "hello")
	v.SetNull(1)
	v.Ascii = AsciiAll
	v.Reset()
	if v.HasNulls() || v.Ascii != AsciiUnknown {
		t.Error("Reset did not clear metadata")
	}
	if v.Str[0] != nil {
		t.Error("Reset did not clear payload pointers")
	}
	if v.Capacity() != 4 {
		t.Error("Reset changed capacity")
	}
}

// TestKeep: Keep copies the active rows into a dense batch of exactly that
// many rows, owning their strings in one buffer and keeping the verdicts.
func TestKeep(t *testing.T) {
	b := NewBatch(testSchema(), 5)
	b.AppendRow(int64(1), "abc", 1.0)
	b.AppendRow(int64(2), nil, 2.0)
	b.AppendRow(int64(3), "de", 3.0)
	b.AppendRow(int64(4), "", nil)
	b.AppendRow(int64(5), "fgh", 5.0)
	b.Vecs[1].Ascii = AsciiAll
	b.SetSel([]int32{1, 2, 3, 4})
	c := b.Keep()
	if c.Sel != nil || c.NumRows != 4 || c.Capacity() != 4 || c.Vecs[0].Capacity() != 4 {
		t.Fatalf("kept %v, sel %v, capacity %d", c, c.Sel, c.Capacity())
	}
	// Mutate the original; the kept rows must be unaffected.
	b.Vecs[0].I64[1] = 999
	b.Vecs[1].Str[2][0] = 'X'
	if got := fmt.Sprint(c.Rows()); got != "[[2 <nil> 2] [3 de 3] [4  <nil>] [5 fgh 5]]" {
		t.Errorf("kept rows %s", got)
	}
	if !c.Vecs[1].HasNulls() || !c.Vecs[2].HasNulls() || c.Vecs[0].HasNulls() {
		t.Error("NULL metadata not exact")
	}
	if c.Vecs[1].Ascii != AsciiAll {
		t.Error("ASCII verdict dropped")
	}
	// The payloads sit back to back in one buffer of their exact size.
	if s := c.Vecs[1].Str; uintptr(unsafe.Pointer(unsafe.SliceData(s[1])))+uintptr(len(s[1])) != uintptr(unsafe.Pointer(unsafe.SliceData(s[3]))) {
		t.Error("kept payloads are not back to back")
	}
	d := NewBatch(types.NewSchema(types.Field{Name: "d", Type: types.DecimalType(10, 2)}), 2)
	d.NumRows = 2
	d.Vecs[0].Dec64 = Dec64All
	if d.Keep().Vecs[0].Dec64 != Dec64All {
		t.Error("Dec64 verdict dropped")
	}
}

func TestCopyRow(t *testing.T) {
	src := New(types.Float64Type, 2)
	src.Set(0, 3.14)
	src.SetNull(1)
	dst := New(types.Float64Type, 2)
	dst.CopyRow(0, src, 0)
	dst.CopyRow(1, src, 1)
	if dst.F64[0] != 3.14 || !dst.IsNull(1) {
		t.Error("CopyRow wrong")
	}
}

func TestGetSetAllTypes(t *testing.T) {
	cases := []struct {
		t   types.DataType
		val any
	}{
		{types.BoolType, true},
		{types.Int32Type, int32(42)},
		{types.Int64Type, int64(42)},
		{types.Float64Type, 4.2},
		{types.StringType, "hello"},
		{types.DateType, int32(18628)},
		{types.TimestampType, int64(1609459200000000)},
		{types.DecimalType(10, 2), types.DecimalFromInt64(4200)},
	}
	for _, c := range cases {
		v := New(c.t, 2)
		v.Set(0, c.val)
		v.Set(1, nil)
		if got := v.Get(0); got != c.val {
			t.Errorf("%v: Get = %v, want %v", c.t, got, c.val)
		}
		if v.Get(1) != nil {
			t.Errorf("%v: null not returned", c.t)
		}
	}
}
