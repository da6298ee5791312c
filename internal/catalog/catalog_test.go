package catalog

import (
	"testing"
	"unsafe"

	"photon/internal/types"
	"photon/internal/vector"
)

func TestCatalogRegisterLookup(t *testing.T) {
	c := New()
	schema := types.NewSchema(types.Field{Name: "x", Type: types.Int64Type})
	b := vector.NewBatch(schema, 4)
	b.AppendRow(int64(1))
	b.AppendRow(int64(2))
	c.Register(&MemTable{TableName: "Events", Sch: schema, Batches: []*vector.Batch{b}})

	// Case-insensitive lookup.
	tbl, err := c.Lookup("events")
	if err != nil {
		t.Fatal(err)
	}
	mt := tbl.(*MemTable)
	if mt.NumRows() != 2 {
		t.Errorf("rows = %d", mt.NumRows())
	}
	if !mt.Schema().Equal(schema) {
		t.Error("schema mismatch")
	}
	if _, err := c.Lookup("missing"); err == nil {
		t.Error("missing table accepted")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "events" {
		t.Errorf("names = %v", names)
	}
	// Re-registering replaces.
	c.Register(&MemTable{TableName: "events", Sch: schema})
	tbl2, _ := c.Lookup("EVENTS")
	if tbl2.(*MemTable).NumRows() != 0 {
		t.Error("replacement not effective")
	}
}

// TestRegisterPreparesStrings: registration packs a string column's payloads
// into one buffer, keeps every value, leaves a packed column where it is,
// and records whether each column is all ASCII.
func TestRegisterPreparesStrings(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "a", Type: types.StringType, Nullable: true},
		types.Field{Name: "u", Type: types.StringType, Nullable: true},
	)
	b := vector.NewBatch(schema, 8)
	vals := [][]any{{"one", "héllo"}, {nil, "plain"}, {"", nil}, {"three", "wörld"}}
	for _, r := range vals {
		b.AppendRow(r...)
	}
	c := New()
	c.Register(&MemTable{TableName: "t", Sch: schema, Batches: []*vector.Batch{b}})
	for i, r := range vals {
		for col, want := range r {
			if got := b.Vecs[col].Get(i); got != want {
				t.Errorf("row %d column %d = %v, want %v", i, col, got, want)
			}
		}
	}
	a := b.Vecs[0].Str
	if uintptr(unsafe.Pointer(unsafe.SliceData(a[0])))+uintptr(len(a[0])) != uintptr(unsafe.Pointer(unsafe.SliceData(a[3]))) {
		t.Error("payloads not packed back to back")
	}
	if b.Vecs[0].Ascii != vector.AsciiAll || b.Vecs[1].Ascii != vector.AsciiMixed {
		t.Errorf("ASCII verdicts %v %v, want all and mixed", b.Vecs[0].Ascii, b.Vecs[1].Ascii)
	}
	// A second registration finds the column packed and copies nothing.
	first := unsafe.SliceData(a[0])
	c.Register(&MemTable{TableName: "t2", Sch: schema, Batches: []*vector.Batch{b}})
	if unsafe.SliceData(b.Vecs[0].Str[0]) != first {
		t.Error("a packed column was copied again")
	}
}
