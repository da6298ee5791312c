package exec

import (
	"bytes"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/mem"
	"photon/internal/serde"
	"photon/internal/types"
	"photon/internal/vector"
)

// decBoundaryCase is one input shape for TestHashAggDecimalSumBoundary.
type decBoundaryCase struct {
	name   string
	groups int
	rows   int
	// gen draws column a (and b) for group g. Same-signed values per group
	// make totals run away in one direction instead of cancelling.
	gen      func(r *rand.Rand, g int) types.Decimal128
	nullB    bool  // column b carries NULLs
	sparse   bool  // a Filter leaves a sparse position list
	memLimit int64 // > 0: small enough to force at least one spill epoch
	// wantEscape: a per-group scratch total wraps int64 inside one batch, so
	// the 128-bit replay must run.
	wantEscape bool
}

// decInRange draws a value with magnitude in [2^lo, 2^hi), negative for odd
// groups.
func decInRange(r *rand.Rand, g, lo, hi int) types.Decimal128 {
	m := new(big.Int).Lsh(big.NewInt(1), uint(lo))
	span := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(hi)), m)
	m.Add(m, new(big.Int).Rand(r, span))
	if g%2 == 1 {
		m.Neg(m)
	}
	d, ok := types.DecimalFromBig(m)
	if !ok {
		panic("decInRange: out of 128 bits")
	}
	return d
}

const decBoundaryBatch = 2048

// TestHashAggDecimalSumBoundary drives the decimal sum/avg states across
// every representation boundary the operator has — the batch-local int64
// scratch wrapping (the replay escape), running totals passing ±2^63 across
// batches, spill epochs and a Partial→Final merge, individually wide inputs,
// NULLs, sparse position lists, and both sides of the density guard —
// against a math/big oracle.
func TestHashAggDecimalSumBoundary(t *testing.T) {
	small := func(r *rand.Rand, g int) types.Decimal128 {
		return types.DecimalFromInt64(r.Int63n(2_000_000_000) - 1_000_000_000)
	}
	cases := []decBoundaryCase{
		// (a) 512 rows per group per batch at ~2^60.5 each: the scratch wraps.
		{name: "scratch-wrap", groups: 4, rows: 2 * decBoundaryBatch, wantEscape: true,
			gen: func(r *rand.Rand, g int) types.Decimal128 { return decInRange(r, g, 60, 61) }},
		{name: "scratch-wrap-sparse", groups: 4, rows: 4 * decBoundaryBatch, sparse: true, wantEscape: true,
			gen: func(r *rand.Rand, g int) types.Decimal128 { return decInRange(r, g, 60, 61) }},
		// (b) ~2^61.5 per group per batch: no wrap inside a batch, but the
		// running totals pass ±2^63 after a few batches.
		{name: "running-total", groups: 4, rows: 8 * decBoundaryBatch,
			gen: func(r *rand.Rand, g int) types.Decimal128 { return decInRange(r, g, 52, 53) }},
		{name: "running-total-nulls-sparse", groups: 4, rows: 16 * decBoundaryBatch, nullB: true, sparse: true,
			gen: func(r *rand.Rand, g int) types.Decimal128 { return decInRange(r, g, 53, 54) }},
		{name: "running-total-spill", groups: 1 << 12, rows: 24 * decBoundaryBatch, memLimit: 400 << 10,
			gen: func(r *rand.Rand, g int) types.Decimal128 { return decInRange(r, g, 61, 62) }},
		// (c) one value in eight needs the high limb.
		{name: "wide-inputs", groups: 4, rows: 3 * decBoundaryBatch, nullB: true,
			gen: func(r *rand.Rand, g int) types.Decimal128 {
				if r.Intn(8) == 0 {
					return decInRange(r, g, 64, 90)
				}
				return small(r, g)
			}},
		// (e) group counts on both sides of the density guard.
		{name: "groups-1", groups: 1, rows: 2 * decBoundaryBatch, gen: small},
		{name: "groups-1-nulls", groups: 1, rows: 2 * decBoundaryBatch, nullB: true, gen: small},
		{name: "groups-4-sparse", groups: 4, rows: 3 * decBoundaryBatch, sparse: true, gen: small},
		{name: "groups-1k", groups: 1 << 10, rows: 6 * decBoundaryBatch, gen: small},
		{name: "groups-4k-spill", groups: 1 << 12, rows: 6 * decBoundaryBatch, nullB: true, memLimit: 400 << 10, gen: small},
		{name: "groups-66k", groups: 66_000, rows: 70_000, sparse: true, gen: small},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { runDecBoundaryCase(t, c) })
	}
}

func runDecBoundaryCase(t *testing.T, c decBoundaryCase) {
	dt := types.DecimalType(38, 2)
	schema := types.NewSchema(
		types.Field{Name: "g", Type: types.Int64Type},
		types.Field{Name: "f", Type: types.Int64Type},
		types.Field{Name: "a", Type: dt},
		types.Field{Name: "b", Type: dt, Nullable: true},
	)
	colA, colB := expr.Col(2, "a", dt), expr.Col(3, "b", dt)
	// sum(a)/avg(a) share one input source; sum(b) and the Arith argument
	// (int64 lanes when narrow) do not.
	specs := []expr.AggSpec{
		{Kind: expr.AggSum, Arg: colA, Name: "sa"},
		{Kind: expr.AggAvg, Arg: colA, Name: "aa"},
		{Kind: expr.AggSum, Arg: colB, Name: "sb"},
		{Kind: expr.AggSum, Arg: expr.MustArith(expr.OpAdd, colA, colB), Name: "sab"},
		{Kind: expr.AggCount, Arg: colB, Name: "cb"},
	}
	keys := []expr.Expr{expr.Col(0, "g", types.Int64Type)}
	avgT, err := specs[1].ResultType()
	if err != nil {
		t.Fatal(err)
	}

	// Input rows and the oracle, which only sees rows the filter keeps.
	type oracle struct {
		sa, sb, sab big.Int
		na, nb      int64
	}
	r := rand.New(rand.NewSource(int64(len(c.name))*7919 + int64(c.rows)))
	want := map[int64]*oracle{}
	rows := make([][]any, 0, c.rows)
	for i := 0; i < c.rows; i++ {
		g := int64(i % c.groups)
		f := r.Int63n(10)
		a := c.gen(r, int(g))
		var b any
		if !c.nullB || r.Intn(5) != 0 {
			b = c.gen(r, int(g))
		}
		rows = append(rows, []any{g, f, a, b})
		if c.sparse && f >= 4 {
			continue
		}
		o := want[g]
		if o == nil {
			o = &oracle{}
			want[g] = o
		}
		o.sa.Add(&o.sa, a.Big())
		o.na++
		if b != nil {
			bb := b.(types.Decimal128).Big()
			o.sb.Add(&o.sb, bb)
			o.sab.Add(&o.sab, new(big.Int).Add(a.Big(), bb))
			o.nb++
		}
	}
	batches := BuildBatches(schema, rows, decBoundaryBatch)
	fromBig := func(b *big.Int) types.Decimal128 {
		d, ok := types.DecimalFromBig(b)
		if !ok {
			t.Fatalf("oracle total %v exceeds 128 bits; shrink the case", b)
		}
		return d
	}
	var wantRows [][]any
	for g, o := range want {
		sa := fromBig(&o.sa)
		q, _ := sa.Rescale(dt.Scale, avgT.Scale+1).DivInt64(o.na)
		row := []any{g, sa, q.Rescale(avgT.Scale+1, avgT.Scale), nil, nil, o.nb}
		if o.nb > 0 {
			row[3], row[4] = fromBig(&o.sb), fromBig(&o.sab)
		}
		wantRows = append(wantRows, row)
	}
	// Sorting by the group key, not sortRows' rendered form: 66k groups.
	byGroup := func(rows [][]any) {
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].(int64) < rows[j][0].(int64) })
	}
	byGroup(wantRows)

	input := func(bs []*vector.Batch) Operator {
		var op Operator = NewMemScan(schema, bs)
		if c.sparse {
			op = NewFilter(op, expr.MustCmp(kernels.CmpLt, expr.Col(1, "f", types.Int64Type), expr.Int64Lit(4)))
		}
		return op
	}
	newCtx := func() *TaskCtx {
		var m *mem.Manager
		if c.memLimit > 0 {
			m = mem.NewManager(c.memLimit)
		}
		tc := NewTaskCtx(m, decBoundaryBatch)
		tc.SpillDir = t.TempDir()
		return tc
	}
	check := func(label string, got [][]any, spills int64) {
		t.Helper()
		byGroup(got)
		if !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("%s: %d groups differ from the oracle's %d\n got[0]  %v\nwant[0] %v",
				label, len(got), len(wantRows), got[0], wantRows[0])
		}
		if c.memLimit > 0 && spills == 0 {
			t.Errorf("%s: expected at least one spill under a %d-byte limit", label, c.memLimit)
		}
	}

	tc := newCtx()
	agg, err := NewHashAgg(input(batches), AggComplete, keys, []string{"g"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(agg, tc)
	if err != nil {
		t.Fatal(err)
	}
	check("complete", got, agg.Stats().SpillCount.Load())
	if c.wantEscape && tc.Expr.Dec64Escapes == 0 {
		t.Error("the scratch should have wrapped, but no escape was counted")
	}

	// Three partial operators over interleaved batches feed one final
	// merge, so states also accumulate across partial rows.
	var partials []*vector.Batch
	var partialSchema *types.Schema
	for p := 0; p < 3; p++ {
		var mine []*vector.Batch
		for i := p; i < len(batches); i += 3 {
			mine = append(mine, batches[i])
		}
		part, err := NewHashAgg(input(mine), AggPartial, keys, []string{"g"}, specs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := CollectAll(part, newCtx())
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, out...)
		partialSchema = part.Schema()
	}
	tc = newCtx()
	final, err := NewHashAgg(NewMemScan(partialSchema, partials), AggFinal, keys, []string{"g"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err = CollectRows(final, tc)
	if err != nil {
		t.Fatal(err)
	}
	check("partial→final", got, final.Stats().SpillCount.Load())
}

// TestHashAggPartialFormatPinned: an AggPartial batch holding every kind of
// state, written to a spill stream and read back, merges into these rows.
// Spill files and shuffle partials carry partial states between operator
// instances, so the rows — not the bytes, which are the stream's — are
// pinned.
func TestHashAggPartialFormatPinned(t *testing.T) {
	dt := types.DecimalType(12, 2)
	schema := types.NewSchema(
		types.Field{Name: "g", Type: types.Int64Type},
		types.Field{Name: "v", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "d", Type: dt, Nullable: true},
		types.Field{Name: "x", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	dec := func(s string) types.Decimal128 {
		d, err := types.ParseDecimal(s, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	rows := [][]any{
		{int64(1), int64(7), dec("10.50"), 1.5, "b"},
		{int64(1), int64(7), dec("0.25"), 2.5, "a"},
		{int64(2), int64(3), dec("-99.99"), 0.5, "z"},
		{int64(2), nil, nil, nil, nil},
		{int64(3), nil, nil, nil, nil}, // every state stays empty
	}
	colV, colD := expr.Col(1, "v", types.Int64Type), expr.Col(2, "d", dt)
	colX, colS := expr.Col(3, "x", types.Float64Type), expr.Col(4, "s", types.StringType)
	specs := []expr.AggSpec{
		{Kind: expr.AggCount, Name: "n"},
		{Kind: expr.AggCount, Arg: colV, Name: "nv"},
		{Kind: expr.AggSum, Arg: colD, Name: "sd"},
		{Kind: expr.AggAvg, Arg: colD, Name: "ad"},
		{Kind: expr.AggSum, Arg: colV, Name: "sv"},
		{Kind: expr.AggAvg, Arg: colV, Name: "av"},
		{Kind: expr.AggSum, Arg: colX, Name: "sx"},
		{Kind: expr.AggMin, Arg: colV, Name: "mnv"},
		{Kind: expr.AggMax, Arg: colS, Name: "mxs"},
		{Kind: expr.AggMin, Arg: colD, Name: "mnd"},
		// One distinct value per group: the set's blob has no iteration order.
		{Kind: expr.AggCount, Arg: colV, Distinct: true, Name: "dv"},
		{Kind: expr.AggCollectList, Arg: colS, Name: "ls"},
	}
	keys := []expr.Expr{expr.Col(0, "g", types.Int64Type)}

	partial, err := NewHashAgg(NewMemScan(schema, BuildBatches(schema, rows, 64)), AggPartial, keys, []string{"g"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CollectAll(partial, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("partial batches = %d, want 1", len(out))
	}
	var buf bytes.Buffer
	w := serde.NewWriter(&buf)
	if err := w.WriteBatch(out[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	in := vector.NewBatch(partial.Schema(), 64)
	if err := serde.NewReader(&buf, partial.Schema()).ReadBatch(in); err != nil {
		t.Fatal(err)
	}
	final, err := NewHashAgg(NewMemScan(partial.Schema(), []*vector.Batch{in}), AggFinal, keys, []string{"g"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectRows(final, newTC(t))
	if err != nil {
		t.Fatal(err)
	}
	sortRows(got)
	want := [][]any{
		{int64(1), int64(2), int64(2), dec("10.75"), types.Decimal128{Lo: 5375000}, int64(14), 7.0, 4.0, int64(7), "b", dec("0.25"), int64(1), "[b, a]"},
		{int64(2), int64(2), int64(1), dec("-99.99"), dec("-99.99").Rescale(2, 6), int64(3), 3.0, 0.5, int64(3), "z", dec("-99.99"), int64(1), "[z]"},
		{int64(3), int64(1), int64(0), nil, nil, nil, nil, nil, nil, nil, nil, int64(0), "[]"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge of the pinned partial batch:\n got %v\nwant %v", got, want)
	}
}
