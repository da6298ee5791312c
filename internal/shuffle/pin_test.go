package shuffle

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

var update = flag.Bool("update", false, "rewrite testdata/shuffle-pin-* with this build's writer")

const pinParts = 2

func pinSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "k", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "note", Type: types.StringType, Nullable: true}, // plain
		types.Field{Name: "uuid", Type: types.StringType, Nullable: true}, // UUID-packed
		types.Field{Name: "city", Type: types.StringType, Nullable: true}, // dictionary
		types.Field{Name: "price", Type: types.DecimalType(12, 2), Nullable: true},
		types.Field{Name: "ratio", Type: types.Float64Type},
		types.Field{Name: "flag", Type: types.BoolType},
		types.Field{Name: "day", Type: types.DateType, Nullable: true},
		types.Field{Name: "qty", Type: types.Int32Type},
		types.Field{Name: "at", Type: types.TimestampType},
	)
}

// pinBatches are the map task's input: three batches with sparse selection
// vectors (two of every three rows active), NULLs in the nullable columns.
func pinBatches() []*vector.Batch {
	schema := pinSchema()
	var out []*vector.Batch
	for bi := 0; bi < 3; bi++ {
		b := vector.NewBatch(schema, 600)
		var sel []int32
		for r := 0; r < 600; r++ {
			i := bi*600 + r
			u := types.UUIDFromParts(uint64(i)*0x9e3779b97f4a7c15, uint64(i)*0xc2b2ae3d27d4eb4f)
			row := []any{
				int64(i % 97),
				fmt.Sprintf("note-%d-%x", i, i*40503),
				types.UUIDString(u),
				fmt.Sprintf("city_%d", i%9),
				types.DecimalFromInt64(int64(i)*101 - 30_000),
				float64(i) / 3,
				i%5 == 0,
				int32(9000 + i%400),
				int32(i),
				int64(1_600_000_000_000_000) + int64(i),
			}
			switch i % 11 {
			case 2:
				row[0] = nil
			case 4:
				row[1], row[4] = nil, nil
			case 6:
				row[2], row[7] = nil, nil
			case 8:
				row[3] = nil
			}
			b.AppendRow(row...)
			if r%3 != 1 {
				sel = append(sel, int32(r))
			}
		}
		b.Sel = sel
		out = append(out, b)
	}
	return out
}

// TestPinnedPartitionFiles: the pinned partition files (adaptive encodings,
// uncompressed blocks) read back as the rows that were routed to them, in
// order. Exchange files never outlive a query, so a format change
// regenerates them with -update.
func TestPinnedPartitionFiles(t *testing.T) {
	schema := pinSchema()
	split := NewPartitioner(pinParts, []int{0})
	want := make([][][]any, pinParts)
	var w *Writer
	if *update {
		var err error
		if w, err = NewWriter("testdata", "pin", 0, pinParts, EncoderOptions{Adaptive: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range pinBatches() {
		saved := b.Sel
		for p, sel := range split.Split(b) {
			b.Sel = sel
			want[p] = append(want[p], b.Rows()...)
			if w != nil {
				if err := w.WritePartition(p, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		b.Sel = saved
	}
	if w != nil {
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if w.EncCounts[EncPlain] == 0 || w.EncCounts[EncUUID] == 0 || w.EncCounts[EncDict] == 0 {
			t.Fatalf("pinned file must hold every encoding, got %v", w.EncCounts)
		}
	}
	for p := 0; p < pinParts; p++ {
		if _, err := os.Stat(filepath.Join("testdata", fmt.Sprintf("shuffle-pin-m0-p%d.bin", p))); err != nil {
			t.Fatal(err)
		}
		r := NewReader("testdata", "pin", 1, p, schema)
		dst := vector.NewBatch(schema, vector.DefaultBatchSize)
		var got [][]any
		for {
			ok, err := r.Next(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, dst.Rows()...)
		}
		if len(got) != len(want[p]) || len(got) < 500 {
			t.Fatalf("partition %d: %d rows, want %d", p, len(got), len(want[p]))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[p][i]) {
				t.Fatalf("partition %d row %d = %v, want %v", p, i, got[i], want[p][i])
			}
		}
	}
}
