package exec

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"photon/internal/expr"
	"photon/internal/mem"
	"photon/internal/types"
	"photon/internal/vector"
)

// distinctArgCase is one count(DISTINCT x) argument type with a generator
// over a domain small enough that groups see repeats.
type distinctArgCase struct {
	name string
	typ  types.DataType
	gen  func(r *rand.Rand) any
}

func distinctArgCases() []distinctArgCase {
	dt := types.DecimalType(20, 2)
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1)}
	return []distinctArgCase{
		{"bool", types.BoolType, func(r *rand.Rand) any { return r.Intn(2) == 0 }},
		{"int32", types.Int32Type, func(r *rand.Rand) any { return int32(r.Intn(40) - 20) }},
		{"date", types.DateType, func(r *rand.Rand) any { return int32(9000 + r.Intn(40)) }},
		{"int64", types.Int64Type, func(r *rand.Rand) any { return int64(r.Intn(40)) << 33 }},
		{"timestamp", types.TimestampType, func(r *rand.Rand) any { return int64(r.Intn(40)) * 1_000_003 }},
		{"float64", types.Float64Type, func(r *rand.Rand) any {
			if r.Intn(3) == 0 {
				return floats[r.Intn(len(floats))]
			}
			return float64(r.Intn(30)) / 4
		}},
		{"decimal", dt, func(r *rand.Rand) any {
			d := types.DecimalFromInt64(int64(r.Intn(30)) - 15)
			if r.Intn(4) == 0 {
				d.Hi = int64(r.Intn(3)) - 1
			}
			return d
		}},
		{"string", types.StringType, func(r *rand.Rand) any {
			if r.Intn(6) == 0 {
				return ""
			}
			return fmt.Sprintf("v%d", r.Intn(35))
		}},
	}
}

// distinctCanon renders a value so that two values are equal exactly when
// count(DISTINCT) treats them as one: floats by bit pattern.
func distinctCanon(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%016x", math.Float64bits(f))
	}
	return fmt.Sprintf("%T|%v", v, v)
}

// selFeed hands its batches on as they are, position lists included (MemScan
// drops them).
type selFeed struct {
	base
	batches []*vector.Batch
	pos     int
}

func (f *selFeed) Open(tc *TaskCtx) error { f.pos = 0; return nil }
func (f *selFeed) Close() error           { return nil }
func (f *selFeed) Next() (*vector.Batch, error) {
	if f.pos == len(f.batches) {
		return nil, nil
	}
	f.pos++
	return f.batches[f.pos-1], nil
}

// sortByGroup orders rows by their two group-key columns, rendering each key
// once (sortRows renders whole rows inside the comparator).
func sortByGroup(rows [][]any) {
	keyed := make([]struct {
		k   string
		row []any
	}, len(rows))
	for i, row := range rows {
		keyed[i].k, keyed[i].row = fmt.Sprint(row[0], "|", row[1] == nil, "|", row[1]), row
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].k < keyed[j].k })
	for i := range keyed {
		rows[i] = keyed[i].row
	}
}

// distinctOracleGroup is what the oracle keeps per group.
type distinctOracleGroup struct {
	key    []any
	xs, vs map[string]bool
	sum    int64
	nv     int64
	min    any
	list   []string
}

// TestHashAggCountDistinctDifferential checks count(DISTINCT x) against a Go
// map for every argument type, in each shape the operator runs in — one
// AggComplete; AggPartial outputs routed by group to two AggFinal operators
// through position lists, the way a shuffle delivers them; a forced spill —
// alone and beside sum/min/collect_list and a second DISTINCT in the same
// operator, with NULL arguments and NULL group keys.
func TestHashAggCountDistinctDifferential(t *testing.T) {
	for _, ac := range distinctArgCases() {
		for _, beside := range []bool{false, true} {
			ac, beside := ac, beside
			t.Run(fmt.Sprintf("%s/beside=%v", ac.name, beside), func(t *testing.T) {
				runDistinctDifferential(t, ac, beside)
			})
		}
	}
}

// distinctSpillLimit holds a few batches of new groups but not the
// thousands of groups the input has.
func distinctSpillLimit(beside bool) int64 {
	if beside {
		return 320 << 10
	}
	return 96 << 10
}

func runDistinctDifferential(t *testing.T, ac distinctArgCase, beside bool) {
	const batch = 256
	schema := types.NewSchema(
		types.Field{Name: "g1", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "g2", Type: types.StringType, Nullable: true},
		types.Field{Name: "x", Type: ac.typ, Nullable: true},
		types.Field{Name: "v", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	keys := []expr.Expr{expr.Col(0, "g1", types.Int64Type), expr.Col(1, "g2", types.StringType)}
	keyNames := []string{"g1", "g2"}
	colX, colV := expr.Col(2, "x", ac.typ), expr.Col(3, "v", types.Int64Type)
	specs := []expr.AggSpec{{Kind: expr.AggCount, Arg: colX, Distinct: true, Name: "dx"}}
	if beside {
		specs = []expr.AggSpec{
			{Kind: expr.AggSum, Arg: colV, Name: "sv"},
			{Kind: expr.AggCount, Arg: colX, Distinct: true, Name: "dx"},
			{Kind: expr.AggMin, Arg: colV, Name: "mv"},
			{Kind: expr.AggCollectList, Arg: expr.Col(4, "s", types.StringType), Name: "ls"},
			{Kind: expr.AggCount, Arg: colV, Distinct: true, Name: "dv"},
		}
	}

	r := rand.New(rand.NewSource(int64(len(ac.name))*101 + 7))
	orc := map[string]*distinctOracleGroup{}
	var rows [][]any
	for i := 0; i < 12000; i++ {
		// Half the rows land in 20 hot groups (many repeats per set), the rest
		// spread over thousands (enough groups to outgrow a small limit).
		var g1, g2, x, v, s any
		if r.Intn(40) != 0 {
			g1 = int64(r.Intn(20))
			if r.Intn(2) == 0 {
				g1 = int64(100 + r.Intn(800))
			}
		}
		if r.Intn(5) != 0 {
			g2 = []string{"", "a", "b"}[r.Intn(3)]
		}
		if r.Intn(6) != 0 {
			x = ac.gen(r)
		}
		if r.Intn(6) != 0 {
			v = int64(r.Intn(25)) - 5
		}
		if r.Intn(3) != 0 {
			s = fmt.Sprintf("e%d", r.Intn(50))
		}
		rows = append(rows, []any{g1, g2, x, v, s})
		gk := fmt.Sprint(g1, "|", g2 == nil, "|", g2)
		o := orc[gk]
		if o == nil {
			o = &distinctOracleGroup{key: []any{g1, g2}, xs: map[string]bool{}, vs: map[string]bool{}}
			orc[gk] = o
		}
		if x != nil {
			o.xs[distinctCanon(x)] = true
		}
		if v != nil {
			o.vs[distinctCanon(v)] = true
			o.sum += v.(int64)
			o.nv++
			if o.min == nil || v.(int64) < o.min.(int64) {
				o.min = v
			}
		}
		if s != nil {
			o.list = append(o.list, s.(string))
		}
	}
	var want [][]any
	for _, o := range orc {
		row := append([]any(nil), o.key...)
		if !beside {
			row = append(row, int64(len(o.xs)))
		} else {
			var sum any
			if o.nv > 0 {
				sum = o.sum
			}
			sort.Strings(o.list)
			row = append(row, sum, int64(len(o.xs)), o.min, strings.Join(o.list, ","), int64(len(o.vs)))
		}
		want = append(want, row)
	}
	sortByGroup(want)

	// normalize sorts a collect_list rendering's elements: list order follows
	// processing order, which the shapes below change.
	normalize := func(got [][]any) [][]any {
		if beside {
			for _, row := range got {
				elems := strings.Split(strings.Trim(row[5].(string), "[]"), ", ")
				if elems[0] == "" {
					elems = nil
				}
				sort.Strings(elems)
				row[5] = strings.Join(elems, ",")
			}
		}
		sortByGroup(got)
		return got
	}
	check := func(label string, got [][]any) {
		t.Helper()
		got = normalize(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, oracle %d", label, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: group %d\n got %v\nwant %v", label, i, got[i], want[i])
			}
		}
	}
	batches := func() []*vector.Batch { return BuildBatches(schema, rows, batch) }
	newCtx := func(limit int64) *TaskCtx {
		var m *mem.Manager
		if limit > 0 {
			m = mem.NewManager(limit)
		}
		tc := NewTaskCtx(m, batch)
		tc.SpillDir = t.TempDir()
		return tc
	}

	// One AggComplete.
	agg, err := NewHashAgg(NewMemScan(schema, batches()), AggComplete, keys, keyNames, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(agg, newCtx(0))
	if err != nil {
		t.Fatal(err)
	}
	check("complete", got)

	// The same under a limit that forces spill epochs.
	agg, err = NewHashAgg(NewMemScan(schema, batches()), AggComplete, keys, keyNames, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err = CollectRows(agg, newCtx(distinctSpillLimit(beside)))
	if err != nil {
		t.Fatal(err)
	}
	check("complete, spilling", got)
	if agg.Stats().SpillCount.Load() == 0 {
		t.Error("complete, spilling: expected at least one spill under the limit")
	}

	// Three partial operators over interleaved batches; every partial batch
	// reaches both final operators, each reading its share through a
	// position list.
	var partials []*vector.Batch
	var partSchema *types.Schema
	all := batches()
	for p := 0; p < 3; p++ {
		var mine []*vector.Batch
		for i := p; i < len(all); i += 3 {
			mine = append(mine, all[i])
		}
		part, err := NewHashAgg(NewMemScan(schema, mine), AggPartial, keys, keyNames, specs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := CollectAll(part, newCtx(0))
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, out...)
		partSchema = part.Schema()
	}
	for _, limit := range []int64{0, distinctSpillLimit(beside)} {
		var merged [][]any
		spills := int64(0)
		for reducer := 0; reducer < 2; reducer++ {
			var share []*vector.Batch
			for _, pb := range partials {
				sel := []int32{}
				for i := 0; i < pb.NumRows; i++ {
					h := fnv.New32a()
					fmt.Fprint(h, pb.Vecs[0].Get(i), "|", pb.Vecs[1].Get(i))
					if int(h.Sum32()%2) == reducer {
						sel = append(sel, int32(i))
					}
				}
				share = append(share, vector.WrapBatch(partSchema, pb.Vecs, sel, pb.NumRows))
			}
			feed := &selFeed{batches: share}
			feed.schema = partSchema
			final, err := NewHashAgg(feed, AggFinal, keys, keyNames, specs)
			if err != nil {
				t.Fatal(err)
			}
			out, err := CollectRows(final, newCtx(limit))
			if err != nil {
				t.Fatal(err)
			}
			merged = append(merged, out...)
			spills += final.Stats().SpillCount.Load()
		}
		check(fmt.Sprintf("partial→final, limit %d", limit), merged)
		if limit > 0 && spills == 0 {
			t.Errorf("partial→final: expected a spill under a %d-byte limit", limit)
		}
	}
}

// TestHashAggDistinctSetsAreReserved holds the reservation to what the sets
// cost: a few groups whose sets hold ~50 values each must outgrow a limit the
// groups alone would fit in many times over, spill, and still return the
// unspilled run's rows.
func TestHashAggDistinctSetsAreReserved(t *testing.T) {
	schema := intSchema("g", "v")
	const groups, perGroup = 400, 50
	var rows [][]any
	for i := 0; i < groups*perGroup*2; i++ {
		rows = append(rows, []any{int64(i % groups), int64(i / groups % perGroup)})
	}
	run := func(limit int64) ([][]any, *HashAggOp) {
		agg, err := NewHashAgg(NewMemScan(schema, BuildBatches(schema, rows, 512)), AggComplete,
			[]expr.Expr{expr.Col(0, "g", types.Int64Type)}, []string{"g"},
			[]expr.AggSpec{{Kind: expr.AggCount, Arg: expr.Col(1, "v", types.Int64Type), Distinct: true, Name: "d"}})
		if err != nil {
			t.Fatal(err)
		}
		var m *mem.Manager
		if limit > 0 {
			m = mem.NewManager(limit)
		}
		tc := NewTaskCtx(m, 512)
		tc.SpillDir = t.TempDir()
		got, err := CollectRows(agg, tc)
		if err != nil {
			t.Fatal(err)
		}
		sortRows(got)
		return got, agg
	}
	want, _ := run(0)
	if len(want) != groups || want[0][1].(int64) != perGroup {
		t.Fatalf("unspilled run: %d groups, first %v; want %d groups of %d", len(want), want[0], groups, perGroup)
	}
	// 400 groups are ~25 KB of table; their 20,000 set elements are ~700 KB.
	got, agg := run(256 << 10)
	if agg.Stats().SpillCount.Load() == 0 {
		t.Error("20,000 set elements under a 256 KB limit did not spill: the sets are not reserved")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("spilled count(DISTINCT) differs from the unspilled run")
	}
}

// TestHashAggCountDistinctAllNullBatch feeds batches whose active arguments
// are all NULL — the first one before the operator has seen any value — with
// and without a position list whose filtered-out rows do hold values. NULLs
// and filtered-out rows must not be counted, by a raw update or by a merge.
func TestHashAggCountDistinctAllNullBatch(t *testing.T) {
	schema := intSchema("g", "x")
	keys := []expr.Expr{expr.Col(0, "g", types.Int64Type)}
	specs := []expr.AggSpec{{Kind: expr.AggCount, Arg: expr.Col(1, "x", types.Int64Type), Distinct: true, Name: "d"}}
	var nulls, mixed [][]any
	var active []int32
	for i := 0; i < 10; i++ {
		nulls = append(nulls, []any{int64(i % 3), nil})
		// Odd rows are filtered out and hold values; even rows are NULL.
		if mixed = append(mixed, []any{int64(i % 3), int64(i)}); i%2 == 0 {
			mixed[i][1] = nil
			active = append(active, int32(i))
		}
	}
	dense := BuildBatches(schema, nulls, 16)[0]
	sparse := BuildBatches(schema, mixed, 16)[0]
	sparse = vector.WrapBatch(schema, sparse.Vecs, active, sparse.NumRows)
	values := BuildBatches(schema, [][]any{{int64(0), int64(5)}, {int64(0), int64(5)}, {int64(2), nil}, {int64(0), int64(6)}}, 16)[0]

	for name, first := range map[string]*vector.Batch{"dense": dense, "position list": sparse} {
		for _, then := range [][]*vector.Batch{nil, {values}} {
			want := [][]any{{int64(0), int64(0)}, {int64(1), int64(0)}, {int64(2), int64(0)}}
			if then != nil {
				want[0][1] = int64(2)
			}
			run := func(mode AggMode, in []*vector.Batch, sch *types.Schema) *HashAggOp {
				feed := &selFeed{batches: in}
				feed.schema = sch
				agg, err := NewHashAgg(feed, mode, keys, []string{"g"}, specs)
				if err != nil {
					t.Fatal(err)
				}
				return agg
			}
			in := append([]*vector.Batch{first}, then...)
			got, err := CollectRows(run(AggComplete, in, schema), NewTaskCtx(nil, 16))
			if err != nil {
				t.Fatal(err)
			}
			if sortRows(got); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d more batches, complete: got %v, want %v", name, len(then), got, want)
			}
			part := run(AggPartial, in, schema)
			mid, err := CollectAll(part, NewTaskCtx(nil, 16))
			if err != nil {
				t.Fatal(err)
			}
			got, err = CollectRows(run(AggFinal, mid, part.Schema()), NewTaskCtx(nil, 16))
			if err != nil {
				t.Fatal(err)
			}
			if sortRows(got); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d more batches, partial→final: got %v, want %v", name, len(then), got, want)
			}
		}
	}
}
