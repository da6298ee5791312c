package driver

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"photon/internal/fault"
	"photon/internal/sql/catalyst"
	"photon/internal/tpch"
)

// TestDecimal64Equivalence is the correctness gate of the narrow-decimal
// fast path: it is a pure execution-strategy choice, so every TPC-H query
// must produce byte-identical results to the interpreted row engine, which
// has no narrow path, at parallelism 1 and 4 (exercising the narrow hash
// lanes and the int64 sum accumulators through partial/final aggregation
// and shuffles).
func TestDecimal64Equivalence(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			ref := render(runTPCH(t, cat, q, rowEngineRef(t)))
			sort.Strings(ref)
			variants := []struct {
				name string
				opts Options
			}{
				{"par1-dec64", Options{Parallelism: 1, ShuffleDir: t.TempDir()}},
				{"par4-dec64", Options{Parallelism: 4, ShuffleDir: t.TempDir()}},
				{"par4-shuffle-dec64", Options{Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: -1}},
			}
			for _, v := range variants {
				got := render(runTPCH(t, cat, q, v.opts))
				sort.Strings(got)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("Q%d %s: %d rows != reference %d rows", q, v.name, len(got), len(ref))
				}
			}
		})
	}
}

// TestDecimal64EquivalenceUnderChaos re-checks the narrow path with
// deterministic fault injection: task re-runs restart int64 accumulators
// mid-query on the decimal-aggregation-heavy queries.
func TestDecimal64EquivalenceUnderChaos(t *testing.T) {
	checkTPCHUnderChaos(t, 29, 1, 3, 17)
}

// TestFusedPipelineEquivalenceUnderChaos re-checks fused execution with
// deterministic fault injection: recovery re-runs rebuild fused fragments
// on the shuffle-heavy multi-join queries.
func TestFusedPipelineEquivalenceUnderChaos(t *testing.T) {
	checkTPCHUnderChaos(t, 23, 3, 10, 18)
}

// checkTPCHUnderChaos runs queries at parallelism 4 with seeded fault
// injection armed on the retry-covered distributed sites, and requires
// each result to match the interpreted row engine's and at least one
// fault to fire.
func checkTPCHUnderChaos(t *testing.T, seed int64, queries ...int) {
	t.Helper()
	cat := tpch.NewGen(0.002).Generate()
	refs := make([][]string, len(queries))
	for i, q := range queries {
		refs[i] = render(runTPCH(t, cat, q, rowEngineRef(t)))
		sort.Strings(refs[i])
	}
	r := fault.NewRegistry(seed)
	for _, s := range []fault.Site{fault.ShuffleWrite, fault.ShuffleRead, fault.BroadcastFetch, fault.TaskStart} {
		r.Arm(s, fault.Policy{FailN: 1})
	}
	defer fault.Activate(r)()
	for i, q := range queries {
		got := render(runTPCH(t, cat, q, Options{
			Parallelism: 4,
			ShuffleDir:  t.TempDir(),
			Pool:        faultTolerantPool(4, 8),
		}))
		sort.Strings(got)
		if !reflect.DeepEqual(refs[i], got) {
			t.Fatalf("seed %d Q%d under chaos: %d rows != reference %d rows", seed, q, len(got), len(refs[i]))
		}
	}
	if r.TotalFires() == 0 {
		t.Errorf("seed %d injected zero faults", seed)
	}
}

// TestDecimal64Profile: Q1 at sample scale stays entirely on the narrow
// path, and the merged EXPLAIN ANALYZE stage lines say so.
func TestDecimal64Profile(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	var rs RunStats
	runTPCH(t, cat, 1, Options{
		Parallelism: 4, ShuffleDir: t.TempDir(), Stats: &rs,
	})
	if rs.Profile == nil {
		t.Fatal("missing profile")
	}
	var batches, escapes int64
	for _, st := range rs.Profile.Stages {
		batches += st.Dec64Batches
		escapes += st.Dec64Escapes
	}
	if batches == 0 {
		t.Errorf("Q1 reported no narrow-decimal batches\n%s", rs.Profile.Render())
	}
	if escapes != 0 {
		t.Errorf("Q1 at sample scale escaped %d batches\n%s", escapes, rs.Profile.Render())
	}
	if !strings.Contains(rs.Profile.Render(), "dec64[batches=") {
		t.Errorf("profile missing dec64[...] stage line:\n%s", rs.Profile.Render())
	}
}

// rowEngineRef runs a query on the interpreted row engine in one task: the
// reference the narrow-decimal path is checked against.
func rowEngineRef(t *testing.T) Options {
	return Options{Parallelism: 1, ShuffleDir: t.TempDir(),
		Config: catalyst.Config{Engine: catalyst.EngineDBRInterpreted}}
}
