package photon

import (
	"context"
	"reflect"
	"testing"

	"photon/internal/driver"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/tpch"
)

// pinnedTransitions is the engine-boundary node count of each TPC-H query's
// physical plan under a forced row-engine fallback: per query, with
// "aggregate" and then "join" unsupported.
var pinnedTransitions = map[int][2]int{
	1: {1, 0}, 2: {2, 9}, 3: {1, 3}, 4: {1, 2}, 5: {1, 6}, 6: {1, 0},
	7: {1, 6}, 8: {1, 8}, 9: {1, 6}, 10: {1, 4}, 11: {2, 6}, 12: {1, 2},
	13: {1, 2}, 14: {1, 2}, 15: {3, 3}, 16: {1, 3}, 17: {2, 3}, 18: {2, 4},
	19: {1, 2}, 20: {3, 5}, 21: {3, 6}, 22: {3, 3},
}

// TestDriverRoutesTPCHEquivalence runs all 22 TPC-H queries through a
// Session on every driver route other than a staged Photon job: the fast
// path at Parallelism 1 and 4, a forced row-engine fallback for aggregations and for joins at Parallelism 4, and
// both baseline row engines. Each result, sorted, must equal Photon's
// default run, and a fallback plan must report its pinned transition count.
func TestDriverRoutesTPCHEquivalence(t *testing.T) {
	const sf = 0.002
	routes := []struct {
		name string
		cfg  Config
	}{
		{"fast-par1", Config{Parallelism: 1}},
		{"fast-par4", Config{Parallelism: 4}},
		{"rowagg-par4", Config{Parallelism: 4, PhotonUnsupported: []string{"aggregate"}}},
		{"rowjoin-par4", Config{Parallelism: 4, PhotonUnsupported: []string{"join"}}},
		{"dbr", Config{Engine: EngineDBR}},
		{"dbr-interpreted", Config{Engine: EngineDBRInterpreted}},
	}
	base := tpchSession(sf, Config{})
	sessions := make([]*Session, len(routes))
	for i, r := range routes {
		sessions[i] = tpchSession(sf, r.cfg)
	}
	ctx := context.Background()
	for _, q := range tpch.QueryNumbers() {
		want, err := base.SQL(tpch.Queries[q])
		if err != nil {
			t.Fatalf("Q%d default: %v", q, err)
		}
		for i, r := range routes {
			p, err := sessions[i].SQLWithProfileContext(ctx, tpch.Queries[q])
			if err != nil {
				t.Fatalf("Q%d %s: %v", q, r.name, err)
			}
			if g, w := renderSorted(p.Result.Rows), renderSorted(want.Rows); !reflect.DeepEqual(g, w) {
				t.Fatalf("Q%d %s: %d rows differ from the default run's %d", q, r.name, len(g), len(w))
			}
			wantTr := 0
			switch r.name {
			case "rowagg-par4":
				wantTr = pinnedTransitions[q][0]
			case "rowjoin-par4":
				wantTr = pinnedTransitions[q][1]
			}
			if p.Transitions != wantTr {
				t.Errorf("Q%d %s: transitions = %d, want %d", q, r.name, p.Transitions, wantTr)
			}
		}
	}

	// An interior LIMIT cannot be staged, so it runs as one task: on the fast
	// path from a session, cached or not, and as a one-stage job without it.
	const interior = "SELECT o_orderpriority, count(*) FROM (SELECT o_orderpriority FROM orders ORDER BY o_orderkey LIMIT 50) t GROUP BY o_orderpriority"
	want, err := base.SQL(interior)
	if err != nil {
		t.Fatal(err)
	}
	par4 := tpchSession(sf, Config{Parallelism: 4, PlanCacheSize: -1})
	got, stats, err := par4.SQLContextStats(ctx, interior)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FastPath || stats.StageCount != 1 {
		t.Errorf("interior limit: fast path %t, %d stages; want the fast path in 1 stage", stats.FastPath, stats.StageCount)
	}
	staged, rs := stagedRun(t, par4, interior)
	if rs.Stages != 1 {
		t.Errorf("interior limit off the fast path: %d stages, want 1", rs.Stages)
	}
	for _, rows := range [][][]any{got.Rows, staged} {
		if g, w := renderSorted(rows), renderSorted(want.Rows); len(w) == 0 || !reflect.DeepEqual(g, w) {
			t.Errorf("interior limit: got %v, want %v", g, w)
		}
	}
}

// stagedRun is the staged reference for s's queries: text compiled on s's
// catalog and run by driver.Run with the fast path off, at s's parallelism.
func stagedRun(t *testing.T, s *Session, text string) ([][]any, driver.RunStats) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Analyze(s.cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = catalyst.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	var rs driver.RunStats
	rows, _, err := driver.Run(context.Background(), plan, driver.Options{
		Parallelism: s.cfg.Parallelism, ShuffleDir: t.TempDir(), Config: s.plannerConfig(),
		BroadcastRows: s.cfg.BroadcastRows, Stats: &rs,
	})
	if err != nil {
		t.Fatalf("%s staged: %v", text, err)
	}
	return rows, rs
}

// TestEntryPointsAgree runs a point lookup and a join, warm, at
// Parallelism 4 through all seven ways to run a query. Each returns the same
// rows, and each that reports lifecycle statistics reports the same route.
func TestEntryPointsAgree(t *testing.T) {
	sess := tpchSession(0.01, Config{Parallelism: 4})
	ctx := context.Background()
	for _, q := range []string{
		"SELECT o_totalprice FROM orders WHERE o_orderkey = 7",
		"SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey",
	} {
		if _, err := sess.SQL(q); err != nil { // warm the cache
			t.Fatal(err)
		}
		stmt, err := sess.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			rows  [][]any
			stats *QueryStats
		}
		profiled := func(p *Profile, err error) (outcome, error) {
			if err != nil {
				return outcome{}, err
			}
			return outcome{p.Result.Rows, p.Lifecycle}, nil
		}
		plain := func(r *Result, err error) (outcome, error) {
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Rows, nil}, nil
		}
		withStats := func(r *Result, st *QueryStats, err error) (outcome, error) {
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Rows, st}, nil
		}
		entries := []struct {
			name string
			run  func() (outcome, error)
		}{
			{"SQL", func() (outcome, error) { return plain(sess.SQL(q)) }},
			{"SQLContext", func() (outcome, error) { return plain(sess.SQLContext(ctx, q)) }},
			{"SQLContextStats", func() (outcome, error) { return withStats(sess.SQLContextStats(ctx, q)) }},
			{"SQLWithProfile", func() (outcome, error) { return profiled(sess.SQLWithProfile(q)) }},
			{"SQLWithProfileContext", func() (outcome, error) { return profiled(sess.SQLWithProfileContext(ctx, q)) }},
			{"Execute", func() (outcome, error) { return plain(stmt.Execute(ctx)) }},
			{"ExecuteStats", func() (outcome, error) { return withStats(stmt.ExecuteStats(ctx)) }},
		}
		var want outcome
		for _, e := range entries {
			got, err := e.run()
			if err != nil {
				t.Fatalf("%s %s: %v", e.name, q, err)
			}
			if len(got.rows) == 0 {
				t.Fatalf("%s %s: no rows", e.name, q)
			}
			if want.rows == nil {
				want.rows = got.rows
			} else if g, w := renderSorted(got.rows), renderSorted(want.rows); !reflect.DeepEqual(g, w) {
				t.Errorf("%s %s: rows %v, want %v", e.name, q, g, w)
			}
			if got.stats == nil {
				continue
			}
			if want.stats == nil {
				want.stats = got.stats
				continue
			}
			g, w := got.stats, want.stats
			if g.Cached != w.Cached || g.FastPath != w.FastPath || g.StageCount != w.StageCount || g.Rows != w.Rows || g.Tenant != w.Tenant {
				t.Errorf("%s %s: stats %s rows=%d, want %s rows=%d", e.name, q, g, g.Rows, w, w.Rows)
			}
		}
		if !want.stats.Cached || want.stats.Rows != int64(len(want.rows)) {
			t.Errorf("%s: warm stats %s rows=%d for %d rows", q, want.stats, want.stats.Rows, len(want.rows))
		}
	}
}

// TestRouteIgnoresCache: how a query runs depends on the query alone. At
// Parallelism 4, a point lookup takes the fast path when its cached plan
// binds, when a literal at another scale cannot bind it, and on a session
// with no plan cache; each returns the staged reference's rows.
func TestRouteIgnoresCache(t *testing.T) {
	const lookup = "SELECT o_totalprice FROM orders WHERE o_orderkey = 7"
	cached := tpchSession(0.01, Config{Parallelism: 4})
	uncached := tpchSession(0.01, Config{Parallelism: 4, PlanCacheSize: -1})
	ctx := context.Background()
	runs := []struct {
		sess *Session
		q    string
	}{
		{cached, lookup + " AND o_totalprice > 100.5"},
		{cached, lookup + " AND o_totalprice > 100.5"},
		{cached, lookup + " AND o_totalprice > 100.55"}, // unbindable: another literal scale
		{cached, lookup + " AND o_totalprice > 100.55"},
		{uncached, lookup},
		{uncached, lookup},
	}
	for i, r := range runs {
		got, stats, err := r.sess.SQLContextStats(ctx, r.q)
		if err != nil {
			t.Fatalf("run %d %s: %v", i, r.q, err)
		}
		if !stats.FastPath {
			t.Errorf("run %d %s: off the fast path (%s)", i, r.q, stats)
		}
		want, _ := stagedRun(t, r.sess, r.q)
		if g, w := renderSorted(got.Rows), renderSorted(want); len(w) != 1 || !reflect.DeepEqual(g, w) {
			t.Errorf("run %d %s: rows %v, want %v", i, r.q, g, w)
		}
	}
}
