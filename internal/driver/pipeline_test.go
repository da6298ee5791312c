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

// unfused returns planner options with the fused-pipeline pass disabled.
func unfused() catalyst.Config {
	return catalyst.Config{DisableFusedPipelines: true}
}

// TestFusedPipelineEquivalence is the correctness gate of fused pipeline
// execution: fusion is a pure execution-strategy rewrite, so it must never
// change any result. Every TPC-H query runs unfused at parallelism 1 (the
// reference) and then fused/unfused at parallelism 1 and 4 — including
// forced-shuffle joins and a seeded fault-injection variant — and all result
// sets must agree.
func TestFusedPipelineEquivalence(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			ref := render(runTPCH(t, cat, q, Options{
				Parallelism: 1, ShuffleDir: t.TempDir(), Config: unfused(),
			}))
			sort.Strings(ref)
			variants := []struct {
				name string
				opts Options
			}{
				{"par1-fused", Options{Parallelism: 1, ShuffleDir: t.TempDir()}},
				{"par4-fused", Options{Parallelism: 4, ShuffleDir: t.TempDir()}},
				{"par4-unfused", Options{Parallelism: 4, ShuffleDir: t.TempDir(), Config: unfused()}},
				{"par4-shuffle-fused", Options{Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: -1}},
				{"par4-shuffle-unfused", Options{Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: -1, Config: unfused()}},
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

// TestFusedPipelineEquivalenceUnderChaos re-checks fused execution with
// deterministic fault injection armed on the retry-covered distributed
// sites: recovery re-runs rebuild fused fragments too, and results must
// still match the clean unfused reference.
func TestFusedPipelineEquivalenceUnderChaos(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	refs := map[int][]string{}
	for _, q := range []int{3, 10, 18} { // shuffle-heavy multi-join queries
		ref := render(runTPCH(t, cat, q, Options{
			Parallelism: 1, ShuffleDir: t.TempDir(), Config: unfused(),
		}))
		sort.Strings(ref)
		refs[q] = ref
	}

	r := fault.NewRegistry(23)
	for _, s := range []fault.Site{fault.ShuffleWrite, fault.ShuffleRead, fault.BroadcastFetch, fault.TaskStart} {
		r.Arm(s, fault.Policy{FailN: 1})
	}
	defer fault.Activate(r)()

	for q, ref := range refs {
		got := render(runTPCH(t, cat, q, Options{
			Parallelism: 4,
			ShuffleDir:  t.TempDir(),
			Pool:        faultTolerantPool(4, 8),
		}))
		sort.Strings(got)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Q%d fused under chaos: %d rows != reference %d rows", q, len(got), len(ref))
		}
	}
	if r.TotalFires() == 0 {
		t.Error("chaos variant injected zero faults")
	}
}

// profileRows flattens the ID-stable part of a merged profile: per stage,
// every operator's pre-order ID, depth, name, and row counters. Fusing must
// leave all of it unchanged (only time attribution moves).
func profileRows(p *QueryProfile) []string {
	var out []string
	for _, st := range p.Stages {
		for _, op := range st.Ops {
			out = append(out, fmt.Sprintf("stage=%d id=%d depth=%d name=%s in=%d out=%d batches=%d tasks=%d",
				st.ID, op.ID, op.Depth, op.Name, op.RowsIn, op.RowsOut, op.BatchesOut, op.Tasks))
		}
	}
	return out
}

// TestFusedExplainAnalyzeProfile: EXPLAIN ANALYZE for a fused stage must
// still report every logical operator with unchanged pre-order IDs and
// row counts, plus the per-stage pipeline[...] summary line. Runtime
// filters are disabled here so row counters are timing-independent.
func TestFusedExplainAnalyzeProfile(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	run := func(cfg catalyst.Config) *RunStats {
		var rs RunStats
		runTPCH(t, cat, 3, Options{
			Parallelism: 4, ShuffleDir: t.TempDir(),
			Config: cfg, testNoRuntimeFilters: true, Stats: &rs,
		})
		return &rs
	}
	fusedStats := run(catalyst.Config{})
	unfusedStats := run(unfused())
	if fusedStats.Profile == nil || unfusedStats.Profile == nil {
		t.Fatal("missing profiles")
	}

	fusedRows := profileRows(fusedStats.Profile)
	unfusedRows := profileRows(unfusedStats.Profile)
	if len(fusedRows) == 0 || !reflect.DeepEqual(fusedRows, unfusedRows) {
		t.Fatalf("fused profile rows diverged\nfused:\n%s\nunfused:\n%s",
			strings.Join(fusedRows, "\n"), strings.Join(unfusedRows, "\n"))
	}
	// Sanity: the logical operators really carry row traffic in fused mode.
	var scanOut int64
	for _, st := range fusedStats.Profile.Stages {
		for _, op := range st.Ops {
			if strings.Contains(op.Name, "Scan") {
				scanOut += op.RowsOut
			}
		}
	}
	if scanOut == 0 {
		t.Errorf("fused profile reports no scan output rows\n%s", fusedStats.Profile.Render())
	}

	fusedRender := fusedStats.Profile.Render()
	if !strings.Contains(fusedRender, "pipeline[ops=") {
		t.Errorf("fused profile missing pipeline[...] stage line:\n%s", fusedRender)
	}
	if strings.Contains(unfusedStats.Profile.Render(), "pipeline[ops=") {
		t.Error("unfused profile unexpectedly reports fused pipelines")
	}
}
