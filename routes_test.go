package photon

import (
	"context"
	"reflect"
	"testing"

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

	// An interior LIMIT cannot be staged; off the fast path (an uncached
	// compile never takes it), a parallel session runs the plan as one task.
	const interior = "SELECT o_orderpriority, count(*) FROM (SELECT o_orderpriority FROM orders ORDER BY o_orderkey LIMIT 50) t GROUP BY o_orderpriority"
	want, err := base.SQL(interior)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := tpchSession(sf, Config{Parallelism: 4, PlanCacheSize: -1}).SQLContextStats(ctx, interior)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FastPath || stats.Stages != 1 {
		t.Errorf("interior limit: fast path %t, %d stages; want off the fast path in 1 stage", stats.FastPath, stats.Stages)
	}
	if g, w := renderSorted(got.Rows), renderSorted(want.Rows); len(w) == 0 || !reflect.DeepEqual(g, w) {
		t.Errorf("interior limit: got %v, want %v", g, w)
	}
}
