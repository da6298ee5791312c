package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"photon/internal/exec"
	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/storage/delta"
	"photon/internal/types"
	"photon/internal/vector"
)

// skipCol is one column of the skipping property's tables: its type and the
// values its rows and literals are drawn from, in ascending order. DOUBLE
// rows also draw NaN now and then.
type skipCol struct {
	name string
	t    types.DataType
	vals []any
}

func skipColumns() []skipCol {
	dec := func(scale int, ss ...string) []any {
		out := make([]any, len(ss))
		for i, s := range ss {
			d, err := types.ParseDecimal(s, scale)
			if err != nil {
				panic(err)
			}
			out[i] = d
		}
		return out
	}
	z := func(n int) string { return strings.Repeat("z", n) }
	return []skipCol{
		{"i", types.Int32Type, []any{int32(math.MinInt32), int32(-7), int32(0), int32(1), int32(2), int32(7), int32(100), int32(math.MaxInt32)}},
		{"b", types.Int64Type, []any{int64(math.MinInt64), int64(-100), int64(-1), int64(0), int64(1), int64(5), int64(1 << 40), int64(math.MaxInt64)}},
		{"d", types.DateType, []any{int32(-719162), int32(-1), int32(0), int32(10957), int32(10958), int32(20000), int32(2932896)}},
		{"ts", types.TimestampType, []any{int64(math.MinInt64), int64(-1), int64(0), int64(1), int64(1e15), int64(math.MaxInt64)}},
		{"m", types.DecimalType(12, 2), dec(2, "-9999999999.99", "-1.00", "0.00", "0.01", "1.00", "1.01", "2.50", "9999999999.99")},
		{"w", types.DecimalType(38, 6), dec(6, "-99999999999999999999999999.999999", "-0.000001", "0.000000", "0.000001", "3.141592", "9223372036854.775807", "99999999999999999999999999.999999")},
		{"f", types.Float64Type, []any{math.Inf(-1), -1e300, -3.5, math.Copysign(0, -1), 0.0, 1.0, 2.0, 5.0, 7.0, 1e300, math.Inf(1)}},
		// Cut at 32 bytes, 14 "€" (three bytes each) end inside the
		// eleventh, and "a" and 8 "😀" (four bytes each) inside the
		// eighth; "₭" sorts just after "€".
		{"s", types.StringType, []any{"", "a", "a" + strings.Repeat("😀", 8), "m", "zy", z(31), z(32), z(32) + "a", z(33), z(39) + "y", z(40), z(41),
			strings.Repeat("€", 14), strings.Repeat("€", 10) + "₭", "€₭"}},
		{"o", types.BoolType, []any{false, true}},
	}
}

// skipTable draws batches of a few rows each. Every column of a batch takes
// a narrow window of its values, so batches have different envelopes, and is
// NULL-free, NULL-bearing or all NULL.
func skipTable(rng *rand.Rand, cols []skipCol, nBatches int) (*types.Schema, []*vector.Batch) {
	fields := make([]types.Field, len(cols))
	for i, c := range cols {
		fields[i] = types.Field{Name: c.name, Type: c.t, Nullable: true}
	}
	schema := types.NewSchema(fields...)
	batches := make([]*vector.Batch, nBatches)
	for bi := range batches {
		n := 1 + rng.Intn(6)
		rows := make([][]any, n)
		for r := range rows {
			rows[r] = make([]any, len(cols))
		}
		for ci, c := range cols {
			mode := rng.Intn(6) // 0: all NULL, 1–2: NULL-bearing, else none
			lo := rng.Intn(len(c.vals))
			hi := min(len(c.vals), lo+1+rng.Intn(3))
			for r := range rows {
				switch {
				case mode == 0 || mode <= 2 && rng.Intn(3) == 0:
					rows[r][ci] = nil
				case c.t.ID == types.Float64 && rng.Intn(8) == 0:
					rows[r][ci] = math.NaN()
				default:
					rows[r][ci] = c.vals[lo+rng.Intn(hi-lo)]
				}
			}
		}
		b := vector.NewBatch(schema, n)
		for _, r := range rows {
			b.AppendRow(r...)
		}
		batches[bi] = b
	}
	return schema, batches
}

// skipLit draws a literal for column c: one of its values, NaN for DOUBLE,
// a DECIMAL a digit coarser or finer than the column, or now and then a
// typed NULL.
func skipLit(rng *rand.Rand, c skipCol, nullOK bool) *expr.Literal {
	if nullOK && rng.Intn(12) == 0 {
		return expr.NullLit(c.t)
	}
	v := c.vals[rng.Intn(len(c.vals))]
	switch {
	case c.t.ID == types.Float64 && rng.Intn(10) == 0:
		return expr.Lit(math.NaN(), c.t)
	case c.t.ID == types.Decimal && rng.Intn(3) == 0:
		d, s := v.(types.Decimal128), c.t.Scale
		if rng.Intn(2) == 0 {
			// Coarser than the column: rescaled to it exactly.
			return expr.Lit(d.Rescale(s, s-1), types.DecimalType(c.t.Precision-1, s-1))
		}
		// A digit finer, a few units either side of a stored value: most
		// have no exact value at the column's scale, so = matches no row,
		// <> every non-NULL row, and an order compares with the floor or
		// the ceiling.
		fine := d.Rescale(s, s+1).Add(types.DecimalFromInt64(int64(rng.Intn(11) - 5)))
		return expr.Lit(fine, types.DecimalType(min(38, c.t.Precision+1), s+1))
	}
	return expr.Lit(v, c.t)
}

var skipOps = []kernels.CmpOp{kernels.CmpEq, kernels.CmpNe, kernels.CmpLt, kernels.CmpLe, kernels.CmpGt, kernels.CmpGe}

// skipFilter draws a random filter over the projected columns: Cmp (literal
// on either side), BETWEEN, IN, IS [NOT] NULL, AND, OR, and NOT, which no
// skipping understands. BOOLEAN takes only Cmp and IS [NOT] NULL.
func skipFilter(rng *rand.Rand, cols []skipCol, proj []int, depth int) expr.Filter {
	if depth > 0 {
		switch rng.Intn(7) {
		case 0, 1:
			fs := []expr.Filter{skipFilter(rng, cols, proj, depth-1), skipFilter(rng, cols, proj, depth-1)}
			if rng.Intn(3) == 0 {
				fs = append(fs, skipFilter(rng, cols, proj, depth-1))
			}
			return expr.NewAnd(fs...)
		case 2, 3:
			return expr.NewOr(skipFilter(rng, cols, proj, depth-1), skipFilter(rng, cols, proj, depth-1))
		case 4:
			return expr.NewNot(skipFilter(rng, cols, proj, depth-1))
		}
	}
	at := rng.Intn(len(proj))
	c := cols[proj[at]]
	col := expr.Col(at, c.name, c.t)
	switch k := rng.Intn(10); {
	case k < 5 || k < 9 && c.t.ID == types.Bool:
		lit := skipLit(rng, c, true)
		if rng.Intn(4) == 0 {
			return expr.MustCmp(skipOps[rng.Intn(len(skipOps))], lit, col)
		}
		return expr.MustCmp(skipOps[rng.Intn(len(skipOps))], col, lit)
	case k < 7:
		return expr.NewBetween(col, skipLit(rng, c, false), skipLit(rng, c, false))
	case k < 9:
		lits := make([]*expr.Literal, 1+rng.Intn(3))
		for i := range lits {
			lits[i] = skipLit(rng, c, true)
		}
		return expr.NewIn(col, lits)
	}
	return &expr.IsNull{Inner: col, Negate: rng.Intn(2) == 0}
}

// passed counts the rows of b that the engine's own filter passes.
func passed(t *testing.T, schema *types.Schema, b *vector.Batch, proj []int, f expr.Filter) int {
	t.Helper()
	op := exec.NewFilter(exec.NewMemScan(schema, []*vector.Batch{b}).WithProjection(proj), f)
	rows, err := exec.CollectRows(op, exec.NewTaskCtx(nil, vector.DefaultBatchSize))
	if err != nil {
		t.Fatalf("%s: %v", f, err)
	}
	return len(rows)
}

// TestSkippingIsSound: whenever data skipping rules out a stored batch of a
// registered MemTable or a Delta file, the engine's FilterOp passes none of
// its rows. Filters are random trees over INT, BIGINT, DATE, TIMESTAMP,
// DECIMAL at two scales, DOUBLE (NaN, ±Inf, ±0), STRING (empty, 31 to 41
// bytes around the 32-byte stats cap, cut inside a character) and BOOLEAN,
// with keys at the types' extremes, columns NULL-free, NULL-bearing or all NULL, and
// scans projected in a random order.
func TestSkippingIsSound(t *testing.T) {
	cols := skipColumns()
	failures := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema, batches := skipTable(rng, cols, 16)
		tbl, err := delta.Create(filepath.Join(t.TempDir(), "t"), schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := tbl.Append([]*vector.Batch{b}, nil); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := tbl.Snapshot(-1)
		if err != nil {
			t.Fatal(err)
		}
		mt := &MemTable{TableName: "t", Sch: schema, Batches: batches}
		New().Register(mt)
		fileOf := make(map[string]int, len(snap.Files))
		for i, f := range snap.Files {
			if f.NumRecords != int64(batches[i].NumRows) {
				t.Fatalf("file %d holds %d rows, batch %d", i, f.NumRecords, batches[i].NumRows)
			}
			fileOf[f.Path] = i
		}
		for iter := 0; iter < 600; iter++ {
			proj := rng.Perm(len(cols))[:1+rng.Intn(len(cols))]
			f := skipFilter(rng, cols, proj, rng.Intn(3))
			keptFile := make([]bool, len(batches))
			for _, af := range snap.PruneFiles(f) {
				keptFile[fileOf[af.Path]] = true
			}
			keptBatch := make(map[*vector.Batch]bool, len(batches))
			survivors, skipped := mt.Survivors(f, proj)
			for _, b := range survivors {
				keptBatch[b] = true
			}
			if skipped != len(batches)-len(survivors) {
				t.Fatalf("Survivors kept %d of %d batches and says it skipped %d", len(survivors), len(batches), skipped)
			}
			for i, b := range batches {
				if keptFile[i] && keptBatch[mt.Batches[i]] {
					continue
				}
				if n := passed(t, schema, b, proj, f); n > 0 {
					failures++
					if !keptFile[i] {
						t.Errorf("seed %d: Delta skipping ruled out file %d, but %s passes %d of its rows %v; stats %s",
							seed, i, f, n, b.Rows(), fmtStats(snap.Files[i].Stats))
					}
					if !keptBatch[mt.Batches[i]] {
						t.Errorf("seed %d: batch skipping ruled out batch %d, but %s passes %d of its rows %v",
							seed, i, f, n, b.Rows())
					}
					if failures >= 10 {
						t.FailNow()
					}
				}
			}
		}
	}
}

func fmtStats(st map[string]delta.ColStats) string {
	var sb strings.Builder
	for k, v := range st {
		fmt.Fprintf(&sb, "%s[%s..%s nulls=%d] ", k, v.Min, v.Max, v.NullCount)
	}
	return sb.String()
}

// TestSurvivorsConcurrentFirstUse: scans that name a column for the first
// time at once record its envelopes once and agree on the survivors.
func TestSurvivorsConcurrentFirstUse(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "k", Type: types.Int64Type}, types.Field{Name: "v", Type: types.Int64Type})
	rows := make([][]any, 10_000)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 7)}
	}
	mt := &MemTable{TableName: "t", Sch: schema, Batches: exec.BuildBatches(schema, rows, 1000)}
	New().Register(mt)
	f := expr.NewAnd(expr.Ge(expr.Col(0, "k", types.Int64Type), expr.Int64Lit(2500)), expr.Lt(expr.Col(1, "v", types.Int64Type), expr.Int64Lit(7)))
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if kept, skipped := mt.Survivors(f, nil); len(kept) != 8 || skipped != 2 {
				t.Errorf("kept %d batches and skipped %d, want 8 and 2", len(kept), skipped)
			}
		}()
	}
	wg.Wait()
}
