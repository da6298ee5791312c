package photon

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"photon/internal/catalog"
	"photon/internal/tpch"
)

// Acceptance gates for the prepare/bind/execute lifecycle: cached plans
// must be byte-identical to from-scratch compiles over all 22 TPC-H
// queries, the fast path must match staged execution, cache entries must
// die with the snapshot they compiled against, and one prepared statement
// must survive concurrent execution + invalidation under -race.

// TestPlanCacheTPCHEquivalence runs every TPC-H query twice on a cached
// session and once on a cache-disabled session: the second run must be
// served from the cache and all three result sets must be identical.
func TestPlanCacheTPCHEquivalence(t *testing.T) {
	cached := tpchSession(0.01, Config{})
	uncached := tpchSession(0.01, Config{PlanCacheSize: -1})
	for _, q := range tpch.QueryNumbers() {
		text := tpch.Queries[q]
		cold, coldStats, err := cached.SQLContextStats(context.Background(), text)
		if err != nil {
			t.Fatalf("Q%d cold: %v", q, err)
		}
		if coldStats.Cached {
			t.Errorf("Q%d: first run reported cached", q)
		}
		warm, warmStats, err := cached.SQLContextStats(context.Background(), text)
		if err != nil {
			t.Fatalf("Q%d warm: %v", q, err)
		}
		base, _, err := uncached.SQLContextStats(context.Background(), text)
		if err != nil {
			t.Fatalf("Q%d uncached: %v", q, err)
		}
		_ = warmStats // hit/miss per shape is tracked in aggregate below
		cs, ws, bs := renderSorted(cold.Rows), renderSorted(warm.Rows), renderSorted(base.Rows)
		for i := range cs {
			if cs[i] != ws[i] {
				t.Fatalf("Q%d: warm row %d diverged from cold:\n  cold: %s\n  warm: %s", q, i, cs[i], ws[i])
			}
			if cs[i] != bs[i] {
				t.Fatalf("Q%d row %d: cached run diverged from uncached:\n  cached:   %s\n  uncached: %s", q, i, cs[i], bs[i])
			}
		}
		if len(cs) != len(ws) || len(cs) != len(bs) {
			t.Fatalf("Q%d: row counts diverged cold=%d warm=%d uncached=%d", q, len(cs), len(ws), len(bs))
		}
	}
	// The cache must actually serve the workload: require that warm runs
	// hit for the (large) majority of shapes, not just a token few.
	hits := cached.svc.CacheHits.Load()
	if hits < int64(len(tpch.QueryNumbers()))*3/4 {
		t.Errorf("only %d/%d warm runs hit the plan cache", hits, len(tpch.QueryNumbers()))
	}
}

// TestPlanCacheDisjunctionOverJoin runs Q7 and Q19, whose WHERE clauses are
// disjunctions over a join, through the plan cache: cold, warm with other
// literals, then prepared with placeholders. Each result must equal an
// uncached run of the same literals, so whatever the optimizer derives from
// such a disjunction takes each execution's values, not the first compile's.
func TestPlanCacheDisjunctionOverJoin(t *testing.T) {
	cached := tpchSession(0.01, Config{})
	uncached := tpchSession(0.01, Config{PlanCacheSize: -1})
	type run struct {
		with []string // old, new literal pairs applied to the query text
		args []any    // placeholder values when the run is prepared
	}
	cases := []struct {
		q    int
		runs []run
	}{
		{7, []run{
			{with: nil},
			{with: []string{"'FRANCE'", "'JAPAN'", "'GERMANY'", "'CHINA'"}},
			{with: []string{"'FRANCE'", "?", "'GERMANY'", "?"}, args: []any{"INDIA", "IRAN", "IRAN", "INDIA"}},
		}},
		{19, []run{
			{with: nil},
			{with: []string{"'Brand#12'", "'Brand#13'", "'Brand#23'", "'Brand#25'", "'Brand#34'", "'Brand#31'"}},
			{with: []string{"'Brand#12'", "?", "'Brand#23'", "?", "'Brand#34'", "?"}, args: []any{"Brand#22", "Brand#45", "Brand#11"}},
		}},
	}
	ctx := context.Background()
	for _, c := range cases {
		for i, r := range c.runs {
			text := strings.NewReplacer(r.with...).Replace(tpch.Queries[c.q])
			var got *Result
			var stats *QueryStats
			var err error
			if r.args != nil {
				stmt, perr := cached.Prepare(text)
				if perr != nil {
					t.Fatalf("Q%d prepare: %v", c.q, perr)
				}
				got, stats, err = stmt.ExecuteStats(ctx, r.args...)
				// The reference is the same query with the values inlined.
				for _, a := range r.args {
					text = strings.Replace(text, "?", "'"+a.(string)+"'", 1)
				}
			} else {
				got, stats, err = cached.SQLContextStats(ctx, text)
			}
			if err != nil {
				t.Fatalf("Q%d run %d: %v", c.q, i, err)
			}
			if i > 0 && !stats.Cached {
				t.Errorf("Q%d run %d missed the plan cache", c.q, i)
			}
			want, err := uncached.SQL(text)
			if err != nil {
				t.Fatalf("Q%d run %d uncached: %v", c.q, i, err)
			}
			if len(want.Rows) == 0 || want.Rows[0][len(want.Rows[0])-1] == nil {
				t.Fatalf("Q%d run %d: the literals select nothing, so the check is vacuous", c.q, i)
			}
			if g, w := renderSorted(got.Rows), renderSorted(want.Rows); !reflect.DeepEqual(g, w) {
				t.Fatalf("Q%d run %d: cached %v, uncached %v", c.q, i, g, w)
			}
		}
	}
}

// TestPlanCacheSharesShapes verifies literal normalization: queries
// differing only in literal values must share one cache entry, and the
// second value must not see the first value's results.
func TestPlanCacheSharesShapes(t *testing.T) {
	sess := tpchSession(0.01, Config{})
	r7, s7, err := sess.SQLContextStats(context.Background(),
		"SELECT count(*) FROM orders WHERE o_orderkey < 7")
	if err != nil {
		t.Fatal(err)
	}
	r42, s42, err := sess.SQLContextStats(context.Background(),
		"SELECT count(*) FROM orders WHERE o_orderkey < 42")
	if err != nil {
		t.Fatal(err)
	}
	if s7.Cached {
		t.Error("first shape reported cached")
	}
	if !s42.Cached {
		t.Error("same shape with a different literal missed the cache")
	}
	if sess.PlanCacheLen() != 1 {
		t.Errorf("expected 1 cached shape, have %d", sess.PlanCacheLen())
	}
	c7, c42 := r7.Rows[0][0].(int64), r42.Rows[0][0].(int64)
	if c7 >= c42 {
		t.Errorf("bound values leaked across executions: count(<7)=%d count(<42)=%d", c7, c42)
	}
}

// TestPlanCacheNamesBoundColumns: a select item without an alias is named
// after its expression, so a value bound into a cached plan names the
// column too, as a fresh compile would.
func TestPlanCacheNamesBoundColumns(t *testing.T) {
	sess := tpchSession(0.01, Config{})
	for _, c := range []struct{ q, names string }{
		{"SELECT o_orderkey + 1, 7 FROM orders WHERE o_orderkey = 1", "(o_orderkey + 1) 7"},
		{"SELECT o_orderkey + 2, 8 FROM orders WHERE o_orderkey = 1", "(o_orderkey + 2) 8"},
	} {
		res, stats, err := sess.SQLContextStats(context.Background(), c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Schema.Field(0).Name + " " + res.Schema.Field(1).Name; got != c.names {
			t.Errorf("%s (cached %v): columns named %q, want %q", c.q, stats.Cached, got, c.names)
		}
	}
}

// TestFastPathEquivalence compares fast-path execution of
// single-fragment-eligible queries on a parallel session with the staged
// reference (driver.Run with the fast path off): identical results, and the
// fast path must actually engage.
func TestFastPathEquivalence(t *testing.T) {
	fast := tpchSession(0.01, Config{Parallelism: 4})
	queries := []string{
		"SELECT count(*) FROM lineitem WHERE l_quantity < 10",
		"SELECT l_returnflag, sum(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
		"SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
		"SELECT c_name FROM customer WHERE c_custkey < 5 ORDER BY c_name",
		"SELECT l_orderkey, l_extendedprice * (1 - l_discount) FROM lineitem WHERE l_shipdate > DATE '1998-09-01' ORDER BY l_orderkey LIMIT 20",
	}
	tookFast := 0
	for i, q := range queries {
		fr, fs, err := fast.SQLContextStats(context.Background(), q)
		if err != nil {
			t.Fatalf("fast q%d: %v", i, err)
		}
		staged, _ := stagedRun(t, fast, q)
		if fs.FastPath {
			tookFast++
		}
		fRows, sRows := renderSorted(fr.Rows), renderSorted(staged)
		if len(fRows) != len(sRows) {
			t.Fatalf("q%d: row counts diverged fast=%d staged=%d", i, len(fRows), len(sRows))
		}
		for j := range fRows {
			if fRows[j] != sRows[j] {
				t.Fatalf("q%d row %d: fast-path diverged from staged:\n  fast:   %s\n  staged: %s", i, j, fRows[j], sRows[j])
			}
		}
	}
	if tookFast == 0 {
		t.Error("no query engaged the fast path")
	}
	if got := fast.svc.FastPathQueries.Load(); got != int64(tookFast) {
		t.Errorf("photon_fastpath_queries_total=%d, stats reported %d", got, tookFast)
	}
}

// TestFastPathTPCHEquivalence runs all 22 TPC-H queries inline on the
// fast path (Parallelism 1: every small plan is eligible) against the
// staged reference at Parallelism 4 (driver.Run with the fast path off);
// results must be identical.
func TestFastPathTPCHEquivalence(t *testing.T) {
	fast := tpchSession(0.01, Config{Parallelism: 1})
	par4 := tpchSession(0.01, Config{Parallelism: 4})
	for _, q := range tpch.QueryNumbers() {
		fr, _, err := fast.SQLContextStats(context.Background(), tpch.Queries[q])
		if err != nil {
			t.Fatalf("Q%d fast: %v", q, err)
		}
		staged, _ := stagedRun(t, par4, tpch.Queries[q])
		fRows, sRows := renderSorted(fr.Rows), renderSorted(staged)
		if len(fRows) != len(sRows) {
			t.Fatalf("Q%d: row counts diverged fast=%d staged=%d", q, len(fRows), len(sRows))
		}
		for j := range fRows {
			if fRows[j] != sRows[j] {
				t.Fatalf("Q%d row %d diverged:\n  fast:   %s\n  staged: %s", q, j, fRows[j], sRows[j])
			}
		}
	}
	if fast.svc.FastPathQueries.Load() == 0 {
		t.Error("no TPC-H query engaged the fast path at SF 0.01")
	}
}

// TestPlanCacheSnapshotInvalidation proves cache entries die with the
// snapshot they compiled against: after a Delta commit the same query
// text must miss the cache, recompile against the new snapshot, and see
// the new rows.
func TestPlanCacheSnapshotInvalidation(t *testing.T) {
	sess := NewSession()
	schema := NewSchema(Col("id", Int64), Col("name", String))
	dt, err := sess.CreateDeltaTable("people", t.TempDir(), schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.AppendRows([][]any{{int64(1), "ada"}, {int64(2), "bob"}}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT count(*) FROM people WHERE id >= 1"
	r1, _, err := sess.SQLContextStats(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Rows[0][0].(int64); got != 2 {
		t.Fatalf("before append: count=%d, want 2", got)
	}
	// Warm hit against the same snapshot.
	_, s2, err := sess.SQLContextStats(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Cached {
		t.Fatal("second run did not hit the cache")
	}
	// Commit: bumps the catalog generation via snapshot re-registration.
	if err := dt.AppendRows([][]any{{int64(3), "cyd"}}); err != nil {
		t.Fatal(err)
	}
	r3, s3, err := sess.SQLContextStats(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Cached {
		t.Error("run after snapshot change was served from the stale cache")
	}
	if got := r3.Rows[0][0].(int64); got != 3 {
		t.Errorf("after append: count=%d, want 3 (stale snapshot served?)", got)
	}
	if inv := sess.svc.CacheInvalidations.Load(); inv < 1 {
		t.Errorf("photon_plan_cache_invalidations_total=%d, want >= 1", inv)
	}
	// And the recompiled entry serves hits again.
	_, s4, err := sess.SQLContextStats(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !s4.Cached {
		t.Error("recompiled entry did not serve the next run")
	}
}

// TestPlanCacheEviction exercises the LRU bound: more shapes than
// capacity must evict (counted), while the cache never exceeds its cap.
func TestPlanCacheEviction(t *testing.T) {
	sess := tpchSession(0.01, Config{PlanCacheSize: 4})
	// Structurally distinct shapes — varying literals alone would
	// normalize to one entry.
	shapes := []string{
		"SELECT count(*) FROM orders",
		"SELECT count(*) FROM orders WHERE o_orderkey < 10",
		"SELECT sum(o_totalprice) FROM orders",
		"SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority",
		"SELECT count(*) FROM lineitem",
		"SELECT count(*) FROM lineitem WHERE l_quantity < 10",
		"SELECT max(l_shipdate) FROM lineitem",
		"SELECT count(*) FROM customer",
	}
	for i, q := range shapes {
		if _, err := sess.SQL(q); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
	}
	if n := sess.PlanCacheLen(); n > 4 {
		t.Errorf("cache holds %d entries, cap is 4", n)
	}
	if ev := sess.svc.CacheEvictions.Load(); ev < 1 {
		t.Errorf("photon_plan_cache_evictions_total=%d, want >= 1", ev)
	}
}

// TestPreparedStatement covers the public Prepare/Execute surface:
// placeholder binding, per-execution values, cache reuse across
// executions, and argument-count validation.
func TestPreparedStatement(t *testing.T) {
	sess := tpchSession(0.01, Config{})
	stmt, err := sess.Prepare("SELECT count(*) FROM orders WHERE o_orderkey < ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams=%d, want 1", stmt.NumParams())
	}
	r7, s7, err := stmt.ExecuteStats(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	r42, s42, err := stmt.ExecuteStats(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !s42.Cached {
		t.Error("second execution missed the plan cache")
	}
	_ = s7
	if c7, c42 := r7.Rows[0][0].(int64), r42.Rows[0][0].(int64); c7 >= c42 {
		t.Errorf("placeholder values not honored: count(<7)=%d count(<42)=%d", c7, c42)
	}
	if _, err := stmt.Execute(context.Background()); err == nil {
		t.Error("missing argument accepted")
	}
	if _, err := stmt.Execute(context.Background(), 1, 2); err == nil {
		t.Error("extra argument accepted")
	}
	// String, float, and date-ish placeholders through a second statement.
	stmt2, err := sess.Prepare("SELECT count(*) FROM orders WHERE o_orderpriority = ? AND o_totalprice > ?")
	if err != nil {
		t.Fatal(err)
	}
	ra, _, err := stmt2.ExecuteStats(context.Background(), "1-URGENT", 1000.0)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := stmt2.ExecuteStats(context.Background(), "1-URGENT", 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ra.Rows[0][0].(int64), rb.Rows[0][0].(int64); a > b || b == 0 {
		t.Errorf("float/string placeholders not honored: %d vs %d", a, b)
	}
}

// TestPreparedStatementConcurrentStress hammers one prepared statement
// from 16 goroutines with rotating arguments while another goroutine
// invalidates the cache by re-registering the scanned table — the -race
// gate for shared CompiledQuery reuse and generation checking.
func TestPreparedStatementConcurrentStress(t *testing.T) {
	sess := NewSession(Config{Parallelism: 2})
	schema := NewSchema(Col("id", Int64), Col("grp", String))
	rows := make([][]any, 500)
	for i := range rows {
		rows[i] = []any{int64(i), fmt.Sprintf("g%d", i%5)}
	}
	sess.RegisterRows("events", schema, rows)

	stmt, err := sess.Prepare("SELECT count(*) FROM events WHERE id < ?")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 16, 30
	stop := make(chan struct{})
	var invWG sync.WaitGroup
	// Invalidator: re-register identical data (bumps the catalog
	// generation without changing results).
	invWG.Add(1)
	go func() {
		defer invWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sess.RegisterRows("events", schema, rows)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := int64((g*iters+i)%500) + 1
				res, err := stmt.Execute(context.Background(), n)
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if got := res.Rows[0][0].(int64); got != n {
					errs <- fmt.Errorf("g%d i%d: count(id<%d)=%d", g, i, n, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	invWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := sess.svc.CacheHits.Load(); hits == 0 {
		t.Error("stress run never hit the plan cache")
	}
}

// TestPlanCacheDisabled checks the escape hatch: PlanCacheSize < 0 turns
// the lifecycle back into compile-per-query with zero cache traffic.
func TestPlanCacheDisabled(t *testing.T) {
	sess := tpchSession(0.01, Config{PlanCacheSize: -1})
	for i := 0; i < 3; i++ {
		_, stats, err := sess.SQLContextStats(context.Background(), "SELECT count(*) FROM orders")
		if err != nil {
			t.Fatal(err)
		}
		if stats.Cached {
			t.Fatal("cache-disabled session reported a cache hit")
		}
	}
	if sess.PlanCacheLen() != 0 {
		t.Errorf("disabled cache holds %d entries", sess.PlanCacheLen())
	}
	if hits := sess.svc.CacheHits.Load(); hits != 0 {
		t.Errorf("disabled cache recorded %d hits", hits)
	}
}

// TestPreparedLookupsAcrossBatchBoundaries runs a prepared point lookup and a
// prepared BETWEEN on orders' stored key, which scans skip batches by, with
// every batch's first and last key and with keys below, between and above
// the stored range, serially and partitioned. Each result must equal the
// uncached text's and the count taken from the stored keys.
func TestPreparedLookupsAcrossBatchBoundaries(t *testing.T) {
	gen := tpchSession(0.01, Config{})
	tbl, err := gen.cat.Lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	var stored []int64
	probes := []int64{math.MinInt64 + 1, -1, 0, math.MaxInt64}
	for _, b := range tbl.(*catalog.MemTable).Batches {
		keys := b.Vecs[0].I64[:b.NumRows]
		stored = append(stored, keys...)
		first, last := keys[0], keys[len(keys)-1]
		probes = append(probes, first-1, first, first+1, last-1, last, last+1)
	}
	count := func(lo, hi int64) (n int64) {
		for _, k := range stored {
			if lo <= k && k <= hi {
				n++
			}
		}
		return n
	}
	uncached := tpchSession(0.01, Config{PlanCacheSize: -1})
	ctx := context.Background()
	for _, par := range []int{1, 4} {
		sess := tpchSession(0.01, Config{Parallelism: par})
		point, err := sess.Prepare("SELECT count(*), min(o_totalprice) FROM orders WHERE o_orderkey = ?")
		if err != nil {
			t.Fatal(err)
		}
		between, err := sess.Prepare("SELECT count(*), min(o_orderkey), max(o_orderkey) FROM orders WHERE o_orderkey BETWEEN ? AND ?")
		if err != nil {
			t.Fatal(err)
		}
		check := func(got *Result, text string, want int64) {
			t.Helper()
			base, err := uncached.SQLContext(ctx, text)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, base.Rows) || got.Rows[0][0].(int64) != want {
				t.Errorf("par %d: %s: prepared %v, uncached text %v, stored keys count %d", par, text, got.Rows, base.Rows, want)
			}
		}
		for i, k := range probes {
			got, err := point.Execute(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			check(got, fmt.Sprintf("SELECT count(*), min(o_totalprice) FROM orders WHERE o_orderkey = %d", k), count(k, k))
			hi := probes[(i+7)%len(probes)]
			got, err = between.Execute(ctx, k, hi)
			if err != nil {
				t.Fatal(err)
			}
			check(got, fmt.Sprintf("SELECT count(*), min(o_orderkey), max(o_orderkey) FROM orders WHERE o_orderkey BETWEEN %d AND %d", k, hi), count(k, hi))
		}
	}
}
