package driver

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/storage/delta"
	"photon/internal/tpch"
	"photon/internal/types"
	"photon/internal/vector"
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

// rfFixture builds a Delta fact table of 4 files with disjoint sorted key
// ranges ([0,1000), [1000,2000), ...) and an in-memory dim table whose keys
// all fall inside the second file, then returns the catalog.
func rfFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	schema := &types.Schema{Fields: []types.Field{
		{Name: "k", Type: types.Int64Type},
		{Name: "v", Type: types.Int64Type},
	}}
	dtbl, err := delta.Create(filepath.Join(t.TempDir(), "fact"), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		b := vector.NewBatch(schema, 1000)
		for i := 0; i < 1000; i++ {
			b.Vecs[0].I64[i] = int64(f*1000 + i)
			b.Vecs[1].I64[i] = int64(i)
		}
		b.NumRows = 1000
		if err := dtbl.Append([]*vector.Batch{b}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := dtbl.Snapshot(-1)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	cat.Register(&catalog.DeltaTable{TableName: "fact", Tbl: dtbl, Snap: snap})

	dimSchema := &types.Schema{Fields: []types.Field{{Name: "dk", Type: types.Int64Type}}}
	db := vector.NewBatch(dimSchema, 10)
	for i := 0; i < 10; i++ {
		db.Vecs[0].I64[i] = int64(1500 + i)
	}
	db.NumRows = 10
	cat.Register(&catalog.MemTable{TableName: "dim", Sch: dimSchema, Batches: []*vector.Batch{db}})
	return cat
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

// TestRuntimeFilterDeltaFilePruning is the scan-pruning integration test: a
// build side covering a narrow key range must skip whole Delta files of the
// probe scan via the published min/max envelope, the pruning must show up
// in the EXPLAIN ANALYZE profile, and the result must be the fixture's
// known count.
func TestRuntimeFilterDeltaFilePruning(t *testing.T) {
	cat := rfFixture(t)
	const q = "SELECT count(*) FROM fact JOIN dim ON k = dk"

	rows, rs := runRF(t, cat, q, Options{Parallelism: 4, ShuffleDir: t.TempDir()})
	if len(rows) != 1 || rows[0][0] != int64(10) {
		t.Fatalf("filtered result = %v, want [[10]]", rows)
	}

	if rs.Profile == nil {
		t.Fatal("no profile")
	}
	var files, pruned int64
	for _, st := range rs.Profile.Stages {
		files += st.RFFilesPruned
		pruned += st.RFRowsPruned
	}
	// Dim keys [1500,1509] touch only the second file: the other three
	// (3000 rows) must be skipped without being decoded.
	if files != 3 {
		t.Errorf("RFFilesPruned = %d, want 3\n%s", files, rs.Profile.Render())
	}
	if pruned < 3000 {
		t.Errorf("RFRowsPruned = %d, want >= 3000\n%s", pruned, rs.Profile.Render())
	}
	if !strings.Contains(rs.Profile.Render(), " rf[") {
		t.Errorf("profile render missing rf[...] segment:\n%s", rs.Profile.Render())
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
