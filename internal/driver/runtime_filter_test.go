package driver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/storage/delta"
	"photon/internal/storage/parquet"
	"photon/internal/tpch"
	"photon/internal/types"
)

// TestRuntimeFilterEquivalence is the correctness gate of the runtime-filter
// framework: filters are strictly best-effort, so neither enabling them nor
// where the planner puts them nor what the operator learns about them while
// it runs may change any result. Every TPC-H query, and 8 seeds x 12 random
// queries over random tables (semi, anti and left-outer joins, grouped
// subqueries on either side of a join), run at parallelism 1 (reference: one
// task, no exchange, no filter) and at parallelism 4 under {broadcast,
// forced shuffle}; all result sets must agree.
func TestRuntimeFilterEquivalence(t *testing.T) {
	check := func(t *testing.T, name string, run func(Options) [][]any) {
		t.Helper()
		ref := render(run(Options{Parallelism: 1, ShuffleDir: t.TempDir()}))
		for _, bc := range []int64{0, -1} {
			got := render(run(Options{Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: bc}))
			if !equalSorted(ref, got) {
				t.Fatalf("%s par=4 broadcast=%v: %d rows != reference %d rows", name, bc == 0, len(got), len(ref))
			}
		}
	}
	cat := tpch.NewGen(0.002).Generate()
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			check(t, fmt.Sprintf("Q%d", q), func(o Options) [][]any { return runTPCH(t, cat, q, o) })
		})
	}
	fcat := randomCatalog(rand.New(rand.NewSource(1)))
	for i, q := range smallerBuildForms {
		q := q
		t.Run(fmt.Sprintf("form=%d", i), func(t *testing.T) {
			check(t, q, func(o Options) [][]any { rows, _ := runRF(t, fcat, q, o); return rows })
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rcat := randomCatalog(rng)
			for i := 0; i < 12; i++ {
				q := randomQuery(rng)
				check(t, q, func(o Options) [][]any { rows, _ := runRF(t, rcat, q, o); return rows })
			}
		})
	}
}

// smallerBuildForms put a small build side B below a grouped subquery P
// joined on B's key, over randomCatalog's tables. Where B's estimate is the
// smaller, B's filter prunes P's scan under both aggregation halves and P's
// filter stays out of B; otherwise P's filter goes into B as before.
var smallerBuildForms = []string{
	// B (d, filtered) is smaller than P: the Q17 shape, on a key with NULLs in t.
	"SELECT t.id, t.val, av FROM t JOIN (SELECT grp dg FROM d WHERE label <> 'group-2') dd ON dg = t.grp " +
		"JOIN (SELECT grp g, avg(val) av FROM t GROUP BY grp) a ON g = t.grp WHERE t.val < av",
	// B (a filtered t) is larger than P (u grouped): P's filter goes into B.
	"SELECT t.id, t.val, sw FROM t JOIN (SELECT id bid FROM t WHERE val > -400) b ON bid = t.id " +
		"JOIN (SELECT tid g, sum(w) sw FROM u GROUP BY tid) a ON g = t.id",
	// B's one key is one column of P's composite key: the Q20 shape.
	"SELECT t.id, c FROM t JOIN (SELECT grp dg FROM d WHERE label <> 'group-1') dd ON dg = t.grp " +
		"JOIN (SELECT grp g, val v, count(*) c FROM t GROUP BY grp, val) a ON g = t.grp AND v = t.val",
	// B is the build side of a left-semi join.
	"SELECT t.id, c FROM t LEFT SEMI JOIN (SELECT grp dg FROM d WHERE label <> 'group-4') dd ON dg = t.grp " +
		"JOIN (SELECT grp g, count(*) c, sum(val) sv FROM t GROUP BY grp) a ON g = t.grp",
	// NULL keys in the probe side, in B and in P: none may match.
	"SELECT t.id, t.val, c FROM t JOIN (SELECT val bv FROM t WHERE val > 480 OR val IS NULL GROUP BY val) b ON bv = t.val " +
		"JOIN (SELECT val g, count(*) c FROM t GROUP BY val) a ON g = t.val",
}

// randomCatalog is catalyst/fuzz_test.go's catalog grown for joins: t is
// large enough that a parallelism-4 task sees several batches (so what a
// runtime-filter operator measures over its first batches gets acted on), d
// covers fewer groups than t has, and u references a skewed subset of t.id.
func randomCatalog(rng *rand.Rand) *catalog.Catalog {
	cat := catalog.New()
	strs := []string{"alpha", "Beta", "GAMMA", "δέλτα", "N/A", "", "42", "-7", "omega point"}
	tSchema := types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "grp", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "val", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "dec", Type: types.DecimalType(12, 2), Nullable: true},
	)
	n := 12000 + rng.Intn(12000)
	var rows [][]any
	for i := 0; i < n; i++ {
		row := []any{
			int64(i),
			int64(rng.Intn(7)),
			int64(rng.Intn(1000) - 500),
			rng.Float64() * 100,
			strs[rng.Intn(len(strs))],
			types.DecimalFromInt64(int64(rng.Intn(100000) - 50000)),
		}
		for c := 1; c < len(row); c++ {
			if rng.Intn(12) == 0 {
				row[c] = nil
			}
		}
		rows = append(rows, row)
	}
	cat.Register(&catalog.MemTable{TableName: "t", Sch: tSchema, Batches: exec.BuildBatches(tSchema, rows, 512)})

	dSchema := types.NewSchema(
		types.Field{Name: "grp", Type: types.Int64Type},
		types.Field{Name: "label", Type: types.StringType},
	)
	var drows [][]any
	for g := 0; g < 5; g++ { // fewer groups than t has: some rows dangle
		drows = append(drows, []any{int64(g), fmt.Sprintf("group-%d", g)})
	}
	cat.Register(&catalog.MemTable{TableName: "d", Sch: dSchema, Batches: exec.BuildBatches(dSchema, drows, 64)})

	uSchema := types.NewSchema(
		types.Field{Name: "tid", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "w", Type: types.Int64Type, Nullable: true},
	)
	var urows [][]any
	for i, m := 0, 2000+rng.Intn(4000); i < m; i++ {
		row := []any{int64(rng.Intn(n/4) * (1 + rng.Intn(4))), int64(rng.Intn(100))} // some beyond t.id
		if rng.Intn(20) == 0 {
			row[rng.Intn(2)] = nil
		}
		urows = append(urows, row)
	}
	cat.Register(&catalog.MemTable{TableName: "u", Sch: uSchema, Batches: exec.BuildBatches(uSchema, urows, 512)})
	return cat
}

// randomQuery composes a join query from shapes a runtime filter sinks
// through or must stop at.
func randomQuery(rng *rand.Rand) string {
	preds := []string{
		"val > 0", "val <= -100", "val BETWEEN -50 AND 200", "t.grp IN (1, 3, 5)",
		"s LIKE '%a%'", "s NOT LIKE 'G%'", "s IS NOT NULL", "f < 50.0",
		"dec > 100.00", "NOT (val = 0)", "upper(s) = 'ALPHA'",
		"length(s) > 3", "val % 2 = 0",
	}
	where := preds[rng.Intn(len(preds))]
	if rng.Intn(2) == 0 {
		where += []string{" AND ", " OR "}[rng.Intn(2)] + preds[rng.Intn(len(preds))]
	}
	w := rng.Intn(100)
	switch rng.Intn(7) {
	case 0: // semi join on a filtered build side
		return fmt.Sprintf("SELECT id, val FROM t LEFT SEMI JOIN (SELECT tid FROM u WHERE w > %d) su ON tid = id WHERE %s", w, where)
	case 1: // anti join: nothing may be filtered by its build side
		return fmt.Sprintf("SELECT id, s FROM t LEFT ANTI JOIN (SELECT tid FROM u WHERE w < %d) au ON tid = id WHERE %s", w, where)
	case 2: // an inner join's filter passes a left-outer join's probe side
		return "SELECT label, count(*) c, count(w) cw, sum(w) sw FROM t LEFT OUTER JOIN u ON tid = id JOIN d ON d.grp = t.grp WHERE " + where + " GROUP BY label"
	case 3: // grouped subquery on the build side
		return fmt.Sprintf("SELECT id, val, c FROM t JOIN (SELECT tid, count(*) c, sum(w) sw FROM u GROUP BY tid HAVING sum(w) > %d) g ON tid = id WHERE %s", w, where)
	case 4: // grouped subquery on the probe side: the filter passes both aggregation halves
		return "SELECT label, c, sv FROM (SELECT grp g, count(*) c, sum(val) sv FROM t WHERE " + where + " GROUP BY grp) a JOIN d ON d.grp = g"
	case 5: // the Q18 shape: a semi join above a join of its own key
		return fmt.Sprintf("SELECT label, id, sum(w) sw FROM t JOIN d ON d.grp = t.grp JOIN u ON tid = id "+
			"LEFT SEMI JOIN (SELECT tid big FROM u GROUP BY tid HAVING sum(w) > %d) b ON big = id WHERE %s GROUP BY label, id", 2*w, where)
	default: // an anti join and a computed key under an inner join
		return fmt.Sprintf("SELECT label, count(*) c FROM (SELECT grp + 0 g, id i FROM t WHERE %s) x JOIN d ON d.grp = g "+
			"LEFT ANTI JOIN (SELECT tid FROM u WHERE w > %d) au ON tid = i GROUP BY label", where, w)
	}
}

// TestRuntimeFilterDroppedBeforeLineageRerun: a map task that ran behind a
// runtime filter is re-run by lineage recovery after the filter is gone, so
// its second output is a superset of its first and some consumers have read
// one and some the other. The joins above do the exact match either way.
func TestRuntimeFilterDroppedBeforeLineageRerun(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	for _, q := range []int{3, 18, 21} {
		want := render(runTPCH(t, cat, q, Options{Parallelism: 1, ShuffleDir: t.TempDir()}))
		var once sync.Once
		var stats RunStats
		damaged, dropped := 0, 0
		base := t.TempDir()
		got := render(runTPCH(t, cat, q, Options{
			Parallelism: 4, ShuffleDir: base, BroadcastRows: -1, Pool: faultTolerantPool(4, 12), Stats: &stats,
			// The first task that reads a shuffle starts after every map stage
			// below it has committed, filters applied.
			testTaskStart: func(f *catalyst.Fragment, _ int, j *stagedJob) {
				if !f.ReadsHash {
					return
				}
				once.Do(func() {
					damaged = corruptShuffleFiles(t, j.store, base, "bitflip")
					for pf := range j.stages {
						if pf.RFKeys != nil {
							j.rfReg.Drop(pf.ID)
							dropped++
						}
					}
				})
			},
		}))
		var recovered int64
		for _, sp := range stats.Profile.Stages {
			recovered += sp.Recovered
		}
		if damaged == 0 || dropped == 0 || recovered == 0 {
			t.Fatalf("Q%d: damaged %d files, dropped %d filters, re-ran %d map tasks", q, damaged, dropped, recovered)
		}
		if !equalSorted(want, got) {
			t.Fatalf("Q%d: %d rows after recovery without the filter, want %d", q, len(got), len(want))
		}
	}
}

// rfFixture is TestRuntimeFilterDeltaScanRows' first case: a Delta fact
// table of 4 files with disjoint sorted key ranges ([0,1000), [1000,2000),
// ...) and an in-memory dim table whose keys all fall inside the second
// file.
func rfFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	return rfScanCatalog(t, rfScanCases(t)[0])
}

// runRF plans and runs one query over the fixture catalog.
func runRF(t *testing.T, cat *catalog.Catalog, query string, opts Options) ([][]any, RunStats) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = catalyst.Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	var rs RunStats
	opts.Stats = &rs
	rows, _, err := Run(context.Background(), plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rows, rs
}

// TestRuntimeFilterOpRunsBeforeScanPredicate: in TPC-H Q19, part's runtime
// filter probes every row the lineitem scan emits, and the scan's own
// predicate (an OR of three ANDs, dearer per row than a probe) sees only the
// filter's survivors.
func TestRuntimeFilterOpRunsBeforeScanPredicate(t *testing.T) {
	cat := tpch.NewGen(0.01).Generate()
	var rs RunStats
	runTPCH(t, cat, 19, Options{Parallelism: 2, ShuffleDir: t.TempDir(), Stats: &rs})
	found := false
	for _, st := range rs.Profile.Stages {
		for i, op := range st.Ops {
			if !strings.HasPrefix(op.Name, "RuntimeFilter(") {
				continue
			}
			found = true
			if i+1 == len(st.Ops) || i == 0 {
				t.Fatalf("runtime filter has no input or no consumer\n%s", rs.Profile.Render())
			}
			scan, pred := st.Ops[i+1], st.Ops[i-1]
			if !strings.Contains(scan.Name, "Scan") || scan.Depth != op.Depth+1 || op.RowsIn != scan.RowsOut {
				t.Errorf("%s takes %d rows from %s, want all %d rows of the scan\n%s",
					op.Name, op.RowsIn, scan.Name, scan.RowsOut, rs.Profile.Render())
			}
			if !strings.HasPrefix(pred.Name, "Filter(") || !strings.Contains(pred.Name, "l_shipinstruct") ||
				pred.Depth != op.Depth-1 || pred.RowsIn != op.RowsOut {
				t.Errorf("the scan predicate takes %d rows, want the runtime filter's %d survivors\n%s",
					pred.RowsIn, op.RowsOut, rs.Profile.Render())
			}
		}
	}
	if !found {
		t.Fatalf("Q19 has no runtime filter\n%s", rs.Profile.Render())
	}
}

// TestRuntimeFilterDropsDeltaProbeRows: a build side covering a narrow key
// range drops the probe scan's other rows above the Delta scan, the drops
// show up in the EXPLAIN ANALYZE profile, and the result is the fixture's
// known count.
func TestRuntimeFilterDropsDeltaProbeRows(t *testing.T) {
	cat := rfFixture(t)
	const q = "SELECT count(*) FROM fact JOIN dim ON k = dk"

	rows, rs := runRF(t, cat, q, Options{Parallelism: 4, ShuffleDir: t.TempDir()})
	if len(rows) != 1 || rows[0][0] != int64(10) {
		t.Fatalf("filtered result = %v, want [[10]]", rows)
	}

	if rs.Profile == nil {
		t.Fatal("no profile")
	}
	var pruned int64
	for _, st := range rs.Profile.Stages {
		pruned += st.RFRowsPruned
	}
	// Dim keys [1500,1509] are 10 of the fact table's 4,000 rows.
	if pruned < 3000 {
		t.Errorf("RFRowsPruned = %d, want >= 3000\n%s", pruned, rs.Profile.Render())
	}
	if !strings.Contains(rs.Profile.Render(), " rf[") {
		t.Errorf("profile render missing rf[...] segment:\n%s", rs.Profile.Render())
	}
}

// TestProfileShowsFilterForm: EXPLAIN ANALYZE says which form each published
// filter ran as. Q17's integer join keys stay exact sets; a STRING key is
// hashed into a Bloom filter.
func TestProfileShowsFilterForm(t *testing.T) {
	cat := tpch.NewGen(0.01).Generate()
	form := regexp.MustCompile(`rf\[[^]]*keys=\d+/\d+ (exact|bloom)\]`)
	forms := func(out string) map[string]int {
		m := map[string]int{}
		for _, sub := range form.FindAllStringSubmatch(out, -1) {
			m[sub[1]]++
		}
		return m
	}
	var rs RunStats
	runTPCH(t, cat, 17, Options{Parallelism: 4, ShuffleDir: t.TempDir(), Stats: &rs})
	if got := forms(rs.Profile.Render()); got["exact"] == 0 || got["bloom"] != 0 {
		t.Errorf("Q17 filter forms = %v, want only exact:\n%s", got, rs.Profile.Render())
	}
	_, rs = runRF(t, cat, "SELECT count(*) FROM customer JOIN nation ON c_mktsegment = n_name",
		Options{Parallelism: 4, ShuffleDir: t.TempDir()})
	if got := forms(rs.Profile.Render()); got["bloom"] != 1 || got["exact"] != 0 {
		t.Errorf("STRING-key filter forms = %v, want one bloom:\n%s", got, rs.Profile.Render())
	}
}

// TestRuntimeFilterShuffleJoinPruning forces the shuffle-join path
// (BroadcastRows < 0): the probe side must be filtered before it is
// partitioned, so fewer rows cross the shuffle than the fixture's fact table
// holds.
func TestRuntimeFilterShuffleJoinPruning(t *testing.T) {
	cat := rfFixture(t)
	const q = "SELECT count(*) FROM fact JOIN dim ON k = dk"

	rows, rs := runRF(t, cat, q, Options{
		Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: -1,
	})
	if len(rows) != 1 || rows[0][0] != int64(10) {
		t.Fatalf("result = %v, want [[10]]", rows)
	}
	var prunedRows, shuffled int64
	for _, st := range rs.Profile.Stages {
		prunedRows += st.RFRowsPruned
		shuffled += st.ShuffleRows
	}
	if prunedRows == 0 {
		t.Errorf("shuffle join pruned no rows\n%s", rs.Profile.Render())
	}
	// Unfiltered, all 4,000 fact rows and the 10 dim rows would shuffle.
	if shuffled >= 4000 {
		t.Errorf("shuffled %d rows, want fewer than the 4000 fact rows\n%s", shuffled, rs.Profile.Render())
	}
}

// rfScanCase is one probe-side Delta table, build side and join query of
// TestRuntimeFilterDeltaScanRows. The fact table is 4 files of 1,000 rows,
// written in file order; row(f, i) is row i of file f.
type rfScanCase struct {
	name      string
	fact      *types.Schema
	row       func(f, i int) []any
	groupRows int // > 0: every file rewritten with row groups of this many rows
	dim       *types.Schema
	dimRows   [][]any
	query     string
	want      int // result rows
}

// rfScanCatalog writes c's fact table to Delta and registers it beside the
// in-memory dim table.
func rfScanCatalog(t *testing.T, c rfScanCase) *catalog.Catalog {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "fact")
	dtbl, err := delta.Create(dir, c.fact, nil)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		rows := make([][]any, 1000)
		for i := range rows {
			rows[i] = c.row(f, i)
		}
		if err := dtbl.Append(exec.BuildBatches(c.fact, rows, 1000), nil); err != nil {
			t.Fatal(err)
		}
		if c.groupRows > 0 {
			// Same rows, so the file statistics the log recorded still hold.
			snap, err := dtbl.Snapshot(-1)
			if err != nil {
				t.Fatal(err)
			}
			rewriteGroups(t, filepath.Join(dir, snap.Files[len(snap.Files)-1].Path), c.fact, rows, c.groupRows)
		}
	}
	snap, err := dtbl.Snapshot(-1)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Register(&catalog.DeltaTable{TableName: "fact", Tbl: dtbl, Snap: snap})
	cat.Register(&catalog.MemTable{TableName: "dim", Sch: c.dim, Batches: exec.BuildBatches(c.dim, c.dimRows, 64)})
	return cat
}

// rewriteGroups replaces a data file with one holding the same rows in row
// groups of groupRows rows (the writer closes a group between batches).
func rewriteGroups(t *testing.T, path string, schema *types.Schema, rows [][]any, groupRows int) {
	t.Helper()
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	w, err := parquet.NewWriter(out, schema, parquet.Options{Compression: parquet.CompLZ4, RowGroupRows: groupRows})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range exec.BuildBatches(schema, rows, groupRows) {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Meta().RowGroups); got != (len(rows)+groupRows-1)/groupRows {
		t.Fatalf("%d row groups of %d rows", got, len(rows))
	}
}

// rfScanCases are TestRuntimeFilterDeltaScanRows' probe sides and joins.
func rfScanCases(t *testing.T) []rfScanCase {
	kv := types.NewSchema(
		types.Field{Name: "k", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "v", Type: types.Int64Type},
	)
	dimKV := types.NewSchema(
		types.Field{Name: "dk", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "dv", Type: types.Int64Type},
	)
	sorted := func(f, i int) []any { return []any{int64(f*1000 + i), int64(i)} }
	dimKeys := func(keys ...int64) [][]any {
		var rows [][]any
		for i, k := range keys {
			rows = append(rows, []any{k, int64(i)})
		}
		return rows
	}
	span := func(lo, n int64) [][]any {
		var keys []int64
		for k := lo; k < lo+n; k++ {
			keys = append(keys, k)
		}
		return dimKeys(keys...)
	}
	day0, err := types.ParseDate("2020-01-01")
	if err != nil {
		t.Fatal(err)
	}
	const join = "SELECT k, v FROM fact JOIN dim ON k = dk"
	return []rfScanCase{
		{name: "keys in one file", fact: kv, row: sorted, dim: dimKV, dimRows: span(1500, 10),
			query: join, want: 10},
		{name: "empty build side", fact: kv, row: sorted, dim: dimKV, dimRows: span(1500, 10),
			query: join + " WHERE dv < 0", want: 0},
		{name: "keys in every file", fact: kv, row: sorted, dim: dimKV,
			dimRows: dimKeys(0, 17, 1017, 2017, 3017, 3999), query: join, want: 6},
		{name: "keys in one row group", fact: kv, row: sorted, groupRows: 250, dim: dimKV,
			dimRows: span(1250, 10), query: join, want: 10},
		{name: "NULL probe keys and an all-NULL chunk", fact: kv, groupRows: 250,
			row: func(f, i int) []any {
				r := sorted(f, i)
				if i%7 == 3 || (f == 1 && i >= 250 && i < 500) || f == 3 {
					r[0] = nil
				}
				return r
			},
			dim: dimKV, dimRows: append(dimKeys(3, 11, 1004, 1300, 1600, 2012, 3500), []any{nil, int64(9)}),
			query: "SELECT k, v FROM fact LEFT SEMI JOIN dim ON k = dk", want: 4},
		{name: "INT32 key", groupRows: 250,
			fact:    types.NewSchema(types.Field{Name: "k", Type: types.Int32Type}, types.Field{Name: "v", Type: types.Int64Type}),
			row:     func(f, i int) []any { return []any{int32(f*1000 + i), int64(i)} },
			dim:     types.NewSchema(types.Field{Name: "dk", Type: types.Int32Type}, types.Field{Name: "dv", Type: types.Int64Type}),
			dimRows: [][]any{{int32(2100), int64(1)}, {int32(2110), int64(2)}, {int32(2120), int64(3)}},
			query:   join, want: 3},
		{name: "DATE key", groupRows: 250,
			fact:    types.NewSchema(types.Field{Name: "k", Type: types.DateType}, types.Field{Name: "v", Type: types.Int64Type}),
			row:     func(f, i int) []any { return []any{day0 + int32(f*1000+i), int64(i)} },
			dim:     types.NewSchema(types.Field{Name: "dk", Type: types.DateType}, types.Field{Name: "dv", Type: types.Int64Type}),
			dimRows: [][]any{{day0 + 5, int64(1)}, {day0 + 7, int64(2)}, {day0 - 1, int64(3)}},
			query:   join, want: 2},
		{name: "DOUBLE key, NaN on the build side", groupRows: 250,
			fact: types.NewSchema(types.Field{Name: "k", Type: types.Float64Type}, types.Field{Name: "v", Type: types.Int64Type}),
			row: func(f, i int) []any {
				if f == 3 && i%100 == 0 {
					return []any{math.NaN(), int64(i)}
				}
				return []any{float64(f*1000+i) + 0.5, int64(i)}
			},
			dim:     types.NewSchema(types.Field{Name: "dk", Type: types.Float64Type}, types.Field{Name: "dv", Type: types.Int64Type}),
			dimRows: [][]any{{1500.5, int64(1)}, {1600.5, int64(2)}, {math.NaN(), int64(3)}},
			query:   join, want: 12},
	}
}

// TestRuntimeFilterDeltaScanRows: runtime filters over Delta scans never
// change a result, whatever the build side's keys cover of the probe
// table's files and row groups — one file, none, all of them, part of a
// file's row groups — and with NULL probe keys, an all-NULL chunk, INT32,
// DATE and DOUBLE keys and a NaN on the build side. Every case runs at
// parallelism 1 and 4, broadcast and forced shuffle, and must return the
// interpreted row engine's rows in one task.
func TestRuntimeFilterDeltaScanRows(t *testing.T) {
	for _, c := range rfScanCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cat := rfScanCatalog(t, c)
			ref, _ := runRF(t, cat, c.query, rowEngineRef(t))
			want := render(ref)
			if len(want) != c.want {
				t.Fatalf("reference: %d rows, want %d", len(want), c.want)
			}
			for _, o := range []Options{
				{Parallelism: 1},
				{Parallelism: 4},
				{Parallelism: 4, BroadcastRows: -1},
			} {
				o.ShuffleDir = t.TempDir()
				rows, _ := runRF(t, cat, c.query, o)
				if got := render(rows); !equalSorted(want, got) {
					t.Errorf("par=%d broadcast=%v: %d rows, want %d:\n%v\nwant %v",
						o.Parallelism, o.BroadcastRows == 0, len(got), len(want), got, want)
				}
			}
		})
	}
}
