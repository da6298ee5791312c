package shuffle

import (
	"fmt"
	"reflect"
	"testing"

	"photon/internal/vector"
)

// TestBroadcastRoundTrip writes per-map-task broadcast outputs and checks
// that a broadcast reader streams the full replicated dataset (the union
// of every map task's rows), and that readers tolerate map tasks that
// committed no rows (empty published files).
func TestBroadcastRoundTrip(t *testing.T) {
	schema := shuffleSchema()
	dir := t.TempDir()
	// Reader is sized for 3 map tasks: task 1 commits an empty output.
	const mapTasks = 3

	var want [][]any
	for m := 0; m < mapTasks; m++ {
		w, err := NewBroadcastWriter(dir, "b1", m, EncoderOptions{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if m != 1 { // map task 1 produces no rows
			var rows [][]any
			for i := 0; i < 10; i++ {
				rows = append(rows, []any{int64(m*100 + i), fmt.Sprintf("t%d-%d", m, i)})
			}
			if err := w.WritePartition(0, mkBatch(schema, rows)); err != nil {
				t.Fatal(err)
			}
			want = append(want, rows...)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Every consumer task reads the same full dataset.
	for task := 0; task < 2; task++ {
		r := NewReader(dir, "b1", mapTasks, 0, schema)
		dst := vector.NewBatch(schema, 4096)
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
		sortAnyRows(got)
		w := append([][]any{}, want...)
		sortAnyRows(w)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("task %d: broadcast read %d rows, want %d", task, len(got), len(w))
		}
	}
}
