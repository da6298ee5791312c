package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"photon/internal/mem"
	"photon/internal/types"
)

func TestSortBasic(t *testing.T) {
	schema := intSchema("a", "b")
	rows := [][]any{
		{int64(3), int64(30)},
		{int64(1), int64(10)},
		{nil, int64(99)},
		{int64(2), int64(20)},
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	s := NewSort(scan, []SortKey{{Col: 0}})
	got, err := CollectRows(s, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	// NULLs first ascending.
	want := [][]any{
		{nil, int64(99)},
		{int64(1), int64(10)},
		{int64(2), int64(20)},
		{int64(3), int64(30)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sort asc: %v", got)
	}
	scan2 := NewMemScan(schema, BuildBatches(schema, rows, 64))
	s2 := NewSort(scan2, []SortKey{{Col: 0, Desc: true}})
	got, err = CollectRows(s2, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].(int64) != 3 || got[3][0] != nil {
		t.Errorf("sort desc: %v", got)
	}
}

func TestSortMultiKeyStrings(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "s", Type: types.StringType},
		types.Field{Name: "n", Type: types.Int64Type},
	)
	rows := [][]any{
		{"b", int64(2)}, {"a", int64(9)}, {"b", int64(1)}, {"a", int64(3)},
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	s := NewSort(scan, []SortKey{{Col: 0}, {Col: 1, Desc: true}})
	got, err := CollectRows(s, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{
		{"a", int64(9)}, {"a", int64(3)}, {"b", int64(2)}, {"b", int64(1)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-key sort: %v", got)
	}
}

// TestExternalSortMatchesInMemory sorts rows of every type on a string key
// under a limit that spills several runs. Each run holds many blocks, so an
// output batch takes rows from a run's earlier block after its cursor has
// read the next one: their strings must survive that read.
func TestExternalSortMatchesInMemory(t *testing.T) {
	schema := spillSchema()
	rows := spillRows(3000, 3)
	keys := []SortKey{{Col: 1}, {Col: 0, Desc: true}} // s, then the unique id: a total order
	run := func(limit int64) ([][]any, *SortOp) {
		scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
		s := NewSort(scan, keys)
		tc := NewTaskCtx(mem.NewManager(limit), 64)
		tc.SpillDir = t.TempDir()
		out, err := CollectRows(s, tc)
		if err != nil {
			t.Fatal(err)
		}
		expectNoSpillFiles(t, tc)
		return out, s
	}
	want, _ := run(0)
	got, s := run(48 << 10)
	if n := s.Stats().SpillCount.Load(); n < 2 {
		t.Fatalf("%d runs spilled under 48KB, want at least 2", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("external sort differs from in-memory sort")
	}
	// And both are actually sorted permutations of the input.
	key := func(r []any) string { // NULL first, then the strings in order
		if r[1] == nil {
			return ""
		}
		return "\x00" + r[1].(string)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		ki, kj := key(got[i]), key(got[j])
		return ki < kj || ki == kj && got[i][0].(int64) > got[j][0].(int64)
	}) {
		t.Error("output not sorted")
	}
	if len(got) != len(rows) {
		t.Errorf("row count %d != %d", len(got), len(rows))
	}
}

func TestTopK(t *testing.T) {
	schema := intSchema("v")
	var rows [][]any
	for i := 0; i < 1000; i++ {
		rows = append(rows, []any{int64((i * 7919) % 1000)})
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 64))
	got, err := CollectRows(NewSortLimit(scan, []SortKey{{Col: 0}}, 5), newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(0)}, {int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("topk: %v", got)
	}
	// Desc order takes the largest.
	scan2 := NewMemScan(schema, BuildBatches(schema, rows, 64))
	got, err = CollectRows(NewSortLimit(scan2, []SortKey{{Col: 0, Desc: true}}, 3), newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].(int64) != 999 || got[2][0].(int64) != 997 {
		t.Errorf("topk desc: %v", got)
	}
}

// TestTopKMatchesSortLimit compares ORDER BY … LIMIT k with a full sort cut
// to k rows, over an int key then a string key, both with NULLs and
// duplicates, in memory and under a memory limit that makes the bounded
// sort spill. A bound of math.MaxInt, the largest LIMIT, keeps every row. The keys of the rows must match in order; whole rows are
// compared as a multiset only where the k-th key is not tied with the next
// one, because a tie may be broken either way.
func TestTopKMatchesSortLimit(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "n", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "id", Type: types.Int64Type},
	)
	rng := rand.New(rand.NewSource(11))
	rows := make([][]any, 5000)
	for i := range rows {
		var n, s any = int64(rng.Intn(50)), fmt.Sprintf("v%02d", rng.Intn(40))
		if rng.Intn(20) == 0 {
			n = nil
		}
		if rng.Intn(20) == 0 {
			s = nil
		}
		rows[i] = []any{n, s, int64(i)}
	}
	keyOf := func(rows [][]any) [][]any {
		out := make([][]any, len(rows))
		for i, r := range rows {
			out[i] = r[:2]
		}
		return out
	}
	for _, k := range []int{0, 1, 20, 64, 2048, 6000, math.MaxInt} {
		for _, desc := range []bool{false, true} {
			for _, batch := range []int{64, 2048} {
				for _, limit := range []int64{0, 64 << 10} {
					if limit > 0 && (k < 2048 || batch > 64) {
						continue // a smaller bound holds too few rows to spill
					}
					name := fmt.Sprintf("k=%d/desc=%v/batch=%d", k, desc, batch)
					if limit > 0 {
						name += "/spill"
					}
					t.Run(name, func(t *testing.T) {
						keys := []SortKey{{Col: 0, Desc: desc}, {Col: 1, Desc: desc}}
						run := func(op Operator, limit int64) [][]any {
							tc := NewTaskCtx(mem.NewManager(limit), batch)
							tc.SpillDir = t.TempDir()
							got, err := CollectRows(op, tc)
							if err != nil {
								t.Fatal(err)
							}
							expectNoSpillFiles(t, tc)
							return got
						}
						tk := NewSortLimit(NewMemScan(schema, BuildBatches(schema, rows, batch)), keys, k)
						got := run(tk, limit)
						if spilled := tk.Stats().SpillCount.Load() > 0; spilled != (limit > 0) {
							t.Fatalf("spilled %v under a limit of %d bytes", spilled, limit)
						}
						full := run(NewSort(NewMemScan(schema, BuildBatches(schema, rows, batch)), keys), 0)
						want := full[:min(k, len(full))]
						if !reflect.DeepEqual(keyOf(got), keyOf(want)) {
							t.Fatalf("keys differ:\n got %v\nwant %v", keyOf(got), keyOf(want))
						}
						if k == 0 || k < len(full) && reflect.DeepEqual(keyOf(full[k-1:k]), keyOf(full[k:k+1])) {
							return // the k-th key is tied with the next: either row may be kept
						}
						sortRows(got)
						sortRows(want)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("rows differ:\n got %v\nwant %v", got, want)
						}
					})
				}
			}
		}
	}
}

func TestLimit(t *testing.T) {
	schema := intSchema("v")
	var rows [][]any
	for i := 0; i < 100; i++ {
		rows = append(rows, []any{int64(i)})
	}
	scan := NewMemScan(schema, BuildBatches(schema, rows, 16))
	lim := NewLimit(scan, 37)
	got, err := CollectRows(lim, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 37 {
		t.Errorf("limit rows = %d", len(got))
	}
	if got[36][0].(int64) != 36 {
		t.Errorf("last row = %v", got[36])
	}
	// It takes the three batches of 16 rows that hold the 37 it passes.
	if in, batches := lim.Stats().RowsIn.Load(), lim.Stats().BatchesOut.Load(); in != 48 || batches != 3 {
		t.Errorf("limit counted in=%d batches=%d, want 48 and 3", in, batches)
	}
	// Limit larger than input passes everything.
	scan2 := NewMemScan(schema, BuildBatches(schema, rows, 16))
	got, err = CollectRows(NewLimit(scan2, 1000), newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("limit > input: %d", len(got))
	}
}

type sliceRows struct {
	schema *types.Schema
	rows   [][]any
	pos    int
}

func (s *sliceRows) Schema() *types.Schema { return s.schema }
func (s *sliceRows) Open() error           { s.pos = 0; return nil }
func (s *sliceRows) Close() error          { return nil }
func (s *sliceRows) NextRow() ([]any, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func TestAdapterAndTransitionRoundTrip(t *testing.T) {
	schema := intSchema("a", "b")
	var rows [][]any
	for i := 0; i < 300; i++ {
		rows = append(rows, []any{int64(i), int64(i * i)})
	}
	// rows -> Adapter -> Photon filter -> Transition -> rows
	tc := newTC(t)
	ad := NewAdapter(&sliceRows{schema: schema, rows: rows})
	tr := NewTransition(ad, tc)
	if err := tr.Open(); err != nil {
		t.Fatal(err)
	}
	var got [][]any
	for {
		r, err := tr.NextRow()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
		got = append(got, append([]any(nil), r...))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("adapter/transition round trip mismatch: %d rows", len(got))
	}
	// Boundary crossings are amortized per batch, not per row (§6.3).
	if ad.Calls > 10 {
		t.Errorf("adapter boundary calls = %d for %d rows (expected per-batch)", ad.Calls, len(rows))
	}
}
