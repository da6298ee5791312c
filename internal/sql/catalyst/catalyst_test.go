package catalyst

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/sql"
	"photon/internal/storage/delta"
	"photon/internal/tpch"
	"photon/internal/types"
	"photon/internal/vector"
)

// fixture builds a small two-table catalog: customer and orders,
// mirroring the paper's Listing 1.
func fixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()

	custSchema := types.NewSchema(
		types.Field{Name: "c_orderid", Type: types.Int64Type},
		types.Field{Name: "c_name", Type: types.StringType, Nullable: true},
		types.Field{Name: "c_age", Type: types.Int32Type, Nullable: true},
	)
	var custRows [][]any
	for i := 0; i < 300; i++ {
		var age any = int32(18 + i%60)
		if i%29 == 0 {
			age = nil
		}
		custRows = append(custRows, []any{int64(i), fmt.Sprintf("cust_%03d", i%50), age})
	}
	cat.Register(&catalog.MemTable{
		TableName: "customer", Sch: custSchema,
		Batches: exec.BuildBatches(custSchema, custRows, 64),
	})

	ordSchema := types.NewSchema(
		types.Field{Name: "o_orderid", Type: types.Int64Type},
		types.Field{Name: "o_price", Type: types.DecimalType(12, 2)},
		types.Field{Name: "o_shipdate", Type: types.DateType},
	)
	base, _ := types.ParseDate("2021-01-01")
	var ordRows [][]any
	for i := 0; i < 500; i++ {
		price, _ := types.ParseDecimal(fmt.Sprintf("%d.%02d", 10+i%90, i%100), 2)
		ordRows = append(ordRows, []any{int64(i % 350), price, base + int32(i%100) - 50})
	}
	cat.Register(&catalog.MemTable{
		TableName: "orders", Sch: ordSchema,
		Batches: exec.BuildBatches(ordSchema, ordRows, 64),
	})
	return cat
}

// runSQL plans and executes a query on the chosen engine.
func runSQL(t *testing.T, cat *catalog.Catalog, query string, engine Engine, unsupported map[string]bool) ([][]any, *Executable) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, query)
	}
	plan, err = Optimize(plan)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	tc := exec.NewTaskCtx(nil, 256)
	tc.SpillDir = t.TempDir()
	ex, err := Build(plan, Config{Engine: engine, PhotonUnsupported: unsupported}, tc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rows, err := ex.Run(tc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rows, ex
}

func sortAnyRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j])
	})
}

// assertEngineAgreement runs the query on all three engines (§5.6's
// end-to-end consistency tier) and returns the Photon result.
func assertEngineAgreement(t *testing.T, cat *catalog.Catalog, query string, ordered bool) [][]any {
	t.Helper()
	photon, _ := runSQL(t, cat, query, EnginePhoton, nil)
	compiled, _ := runSQL(t, cat, query, EngineDBRCompiled, nil)
	interp, _ := runSQL(t, cat, query, EngineDBRInterpreted, nil)
	a, b, c := photon, compiled, interp
	if !ordered {
		sortAnyRows(a)
		sortAnyRows(b)
		sortAnyRows(c)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("photon vs dbr-codegen mismatch on %q:\nphoton: %v\ndbr:    %v", query, a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("photon vs dbr-interpreted mismatch on %q", query)
	}
	return photon
}

func TestSimpleSelect(t *testing.T) {
	cat := fixture(t)
	rows := assertEngineAgreement(t, cat,
		"SELECT c_name, c_age FROM customer WHERE c_age > 70 ORDER BY c_name, c_age LIMIT 10", true)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r[1].(int32) <= 70 {
			t.Errorf("filter failed: %v", r)
		}
	}
}

func TestListingOneQuery(t *testing.T) {
	// The paper's Listing 1, adapted to the fixture schema.
	cat := fixture(t)
	query := `
	SELECT upper(c_name), sum(o_price)
	FROM customer, orders
	WHERE o_shipdate > '2021-01-01'
	  AND customer.c_age > 25
	  AND customer.c_orderid = orders.o_orderid
	GROUP BY c_name`
	rows := assertEngineAgreement(t, cat, query, false)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		name := r[0].(string)
		if name != fmt.Sprint(name) || name[:5] != "CUST_" {
			t.Errorf("upper() failed: %v", r)
		}
	}
}

func TestExplicitJoinKinds(t *testing.T) {
	cat := fixture(t)
	queries := []string{
		"SELECT c_name, o_price FROM customer JOIN orders ON c_orderid = o_orderid WHERE c_age < 25",
		"SELECT c_name, o_price FROM customer LEFT OUTER JOIN orders ON c_orderid = o_orderid WHERE c_age = 19",
		"SELECT c_name FROM customer LEFT SEMI JOIN orders ON c_orderid = o_orderid",
		"SELECT c_name FROM customer LEFT ANTI JOIN orders ON c_orderid = o_orderid",
	}
	for _, q := range queries {
		rows := assertEngineAgreement(t, cat, q, false)
		_ = rows
	}
	// Outer join null padding visible.
	rows := assertEngineAgreement(t, cat,
		"SELECT c_orderid, o_price FROM customer LEFT OUTER JOIN orders ON c_orderid = o_orderid WHERE c_orderid >= 350", false)
	for _, r := range rows {
		if r[1] != nil {
			t.Errorf("expected null-padded right side: %v", r)
		}
	}
}

func TestAggregates(t *testing.T) {
	cat := fixture(t)
	rows := assertEngineAgreement(t, cat, `
		SELECT c_name, count(*) cnt, min(c_age) mn, max(c_age) mx, avg(c_age) av
		FROM customer GROUP BY c_name ORDER BY c_name`, true)
	if len(rows) != 50 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Global aggregate.
	rows = assertEngineAgreement(t, cat, "SELECT count(*), sum(o_price) FROM orders", false)
	if rows[0][0].(int64) != 500 {
		t.Errorf("count = %v", rows[0][0])
	}
	// HAVING.
	rows = assertEngineAgreement(t, cat,
		"SELECT c_name, count(*) cnt FROM customer GROUP BY c_name HAVING count(*) > 5 ORDER BY c_name", true)
	for _, r := range rows {
		if r[1].(int64) <= 5 {
			t.Errorf("having failed: %v", r)
		}
	}
}

func TestExpressionsInSQL(t *testing.T) {
	cat := fixture(t)
	queries := []string{
		"SELECT c_name, CASE WHEN c_age < 30 THEN 'young' WHEN c_age < 60 THEN 'mid' ELSE 'senior' END FROM customer",
		"SELECT c_name, c_age + 1, c_age * 2 FROM customer WHERE c_age BETWEEN 30 AND 40",
		"SELECT substring(c_name, 1, 4), length(c_name) FROM customer LIMIT 20",
		"SELECT c_name FROM customer WHERE c_name LIKE 'cust_00%'",
		"SELECT c_name FROM customer WHERE c_age IS NULL",
		"SELECT c_name FROM customer WHERE c_age IN (20, 30, 40)",
		"SELECT c_name FROM customer WHERE NOT (c_age > 25)",
		"SELECT CAST(c_age AS BIGINT), CAST(c_orderid AS STRING) FROM customer LIMIT 5",
		"SELECT o_orderid, year(o_shipdate), month(o_shipdate) FROM orders LIMIT 7",
		"SELECT DISTINCT c_name FROM customer",
		"SELECT c_name || '!' FROM customer LIMIT 3",
		"SELECT coalesce(c_age, 0) FROM customer LIMIT 30",
		"SELECT o_price * 2 FROM orders WHERE o_shipdate >= DATE '2021-01-15'",
		"SELECT count(*) FROM orders WHERE o_shipdate < DATE '2021-03-01' - INTERVAL '30' DAY",
	}
	for _, q := range queries {
		assertEngineAgreement(t, cat, q, false)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	cat := fixture(t)
	rows := assertEngineAgreement(t, cat, `
		SELECT big.c_name, big.total
		FROM (
			SELECT c_name, sum(o_price) total, count(*) cnt
			FROM customer, orders
			WHERE c_orderid = o_orderid
			GROUP BY c_name
		) big
		WHERE big.cnt > 2
		ORDER BY c_name
		LIMIT 20`, true)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestPartialRolloutFallback(t *testing.T) {
	// Force the aggregate to be "unsupported in Photon": the plan must
	// still produce identical results, with a transition inserted (Fig. 3).
	cat := fixture(t)
	q := "SELECT c_name, count(*) cnt FROM customer WHERE c_age > 30 GROUP BY c_name"
	full, _ := runSQL(t, cat, q, EnginePhoton, nil)
	partial, ex := runSQL(t, cat, q, EnginePhoton, map[string]bool{"aggregate": true})
	if ex.Transitions == 0 {
		t.Error("expected a transition node for the unsupported aggregate")
	}
	if ex.Photon != nil {
		t.Error("plan top should be in the row engine after fallback")
	}
	sortAnyRows(full)
	sortAnyRows(partial)
	if !reflect.DeepEqual(full, partial) {
		t.Error("partial rollout changed results")
	}
}

func TestDeltaBackedQueryWithSkipping(t *testing.T) {
	cat := catalog.New()
	schema := types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "val", Type: types.Float64Type},
	)
	dir := filepath.Join(t.TempDir(), "t")
	tbl, err := delta.Create(dir, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three files with disjoint id ranges.
	for f := 0; f < 3; f++ {
		b := vector.NewBatch(schema, 128)
		for i := 0; i < 100; i++ {
			b.AppendRow(int64(f*100+i), float64(i))
		}
		if err := tbl.Append([]*vector.Batch{b}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := tbl.Snapshot(-1)
	cat.Register(&catalog.DeltaTable{TableName: "events", Tbl: tbl, Snap: snap})

	rows := assertEngineAgreement(t, cat,
		"SELECT count(*), sum(val) FROM events WHERE id >= 150 AND id < 250", false)
	if rows[0][0].(int64) != 100 {
		t.Errorf("count over delta = %v", rows[0][0])
	}
}

func TestOptimizerPushdownAndPruning(t *testing.T) {
	cat := fixture(t)
	stmt, _ := sql.Parse("SELECT c_name FROM customer WHERE c_age > 50")
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	// After pushdown+pruning: Project over Scan(filter, cols=[name, age]).
	proj, ok := plan.(*sql.LProject)
	if !ok {
		t.Fatalf("top is %T, want project\n%s", plan, sql.ExplainPlan(plan))
	}
	scan, ok := proj.Child.(*sql.LScan)
	if !ok {
		t.Fatalf("child is %T, want scan\n%s", proj.Child, sql.ExplainPlan(plan))
	}
	if scan.Filter == nil {
		t.Error("filter was not pushed into the scan")
	}
	if len(scan.Projection) != 2 {
		t.Errorf("scan projection = %v, want 2 columns", scan.Projection)
	}
}

func TestBetweenFusion(t *testing.T) {
	cat := fixture(t)
	stmt, _ := sql.Parse("SELECT c_name FROM customer WHERE c_age >= 30 AND c_age <= 40")
	plan, _ := sql.Analyze(cat, stmt)
	plan, err := Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	explain := sql.ExplainPlan(plan)
	if !containsStr(explain, "BETWEEN") {
		t.Errorf("expected fused BETWEEN in plan:\n%s", explain)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestNotAndInAreThreeValued: NOT keeps a row only where its operand is
// FALSE, so a NULL operand — from a NULL column under AND, OR or NOT, or
// from a value missing from an IN list that holds NULL — filters the row
// out. Each engine must return the counts three-valued logic gives on
// ('a', 1), ('b', 2), (NULL, NULL).
func TestNotAndInAreThreeValued(t *testing.T) {
	cat := catalog.New()
	sch := types.NewSchema(
		types.Field{Name: "x", Type: types.StringType, Nullable: true},
		types.Field{Name: "y", Type: types.Int64Type, Nullable: true},
	)
	rows := [][]any{{"a", int64(1)}, {"b", int64(2)}, {nil, nil}}
	cat.Register(&catalog.MemTable{TableName: "t", Sch: sch, Batches: exec.BuildBatches(sch, rows, 64)})
	cases := []struct {
		where string
		want  int64
	}{
		{"NOT (x = 'a' OR y = 5)", 1},
		{"NOT (x = 'a' AND y = 5)", 2},
		{"NOT (NOT (x = 'a'))", 1},
		{"NOT (NOT (x = 'a') OR y = 2)", 1},
		{"x NOT IN ('a', NULL)", 0},
		{"x IN ('a', NULL)", 1},
		{"NOT (x IN ('a', NULL) AND y = 2)", 1},
		{"y NOT IN (5, NULL)", 0},
		{"x NOT IN ('a')", 1},
	}
	for _, c := range cases {
		q := "SELECT count(*) FROM t WHERE " + c.where
		for _, eng := range []Engine{EnginePhoton, EngineDBRCompiled, EngineDBRInterpreted} {
			got, _ := runSQL(t, cat, q, eng, nil)
			if n := got[0][0].(int64); n != c.want {
				t.Errorf("%s: %v counts %d rows, want %d", c.where, eng, n, c.want)
			}
		}
	}
}

// TestTaskBatchSizes runs TPC-H queries whose joins (semi, outer and anti
// among them) and expressions hold per-batch scratch under task batch sizes
// below, at and above the tables' 2,048-row batches: every size must return
// the default run's rows.
func TestTaskBatchSizes(t *testing.T) {
	cat := tpch.NewGen(0.01).Generate()
	run := func(plan sql.LogicalPlan, batchSize int) []string {
		tc := exec.NewTaskCtx(nil, batchSize)
		tc.SpillDir = t.TempDir()
		op, err := BuildOperator(plan, Config{}, tc)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.CollectRows(op, tc)
		if err != nil {
			t.Fatalf("batch size %d: %v", batchSize, err)
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	for _, q := range []int{3, 4, 7, 9, 13, 19, 22} {
		stmt, err := sql.Parse(tpch.Queries[q])
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sql.Analyze(cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if plan, err = Optimize(plan); err != nil {
			t.Fatal(err)
		}
		want := run(plan, 0)
		for _, n := range []int{64, 256, 1024, 2048} {
			if got := run(plan, n); !reflect.DeepEqual(got, want) {
				t.Errorf("Q%d at batch size %d: %d rows, want the default run's %d", q, n, len(got), len(want))
			}
		}
	}
}
