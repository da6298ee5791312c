package driver

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"photon/internal/tpch"
)

// profileRows flattens the ID-stable part of a merged profile: per stage,
// every operator's pre-order ID, depth, name, and row counters.
func profileRows(p *QueryProfile) []string {
	var out []string
	for _, st := range p.Stages {
		for _, op := range st.Ops {
			out = append(out, fmt.Sprintf("stage=%d id=%d depth=%d name=%s in=%d out=%d batches=%d",
				st.ID, op.ID, op.Depth, op.Name, op.RowsIn, op.RowsOut, op.BatchesOut))
		}
	}
	return out
}

// TestFusedExplainAnalyzeProfile pins Q3's merged EXPLAIN ANALYZE at par 4:
// every operator keeps its pre-order ID, depth, name and row counts, and the
// stage lines report the fused pipelines. Runtime filters are off here, so
// row counters do not depend on timing.
func TestFusedExplainAnalyzeProfile(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	var rs RunStats
	runTPCH(t, cat, 3, Options{
		Parallelism: 4, ShuffleDir: t.TempDir(),
		testNoRuntimeFilters: true, Stats: &rs,
	})
	if rs.Profile == nil {
		t.Fatal("missing profile")
	}
	want := []string{
		"stage=0 id=0 depth=0 name=ShuffleWrite in=66 out=66 batches=0",
		"stage=0 id=1 depth=1 name=Filter((c_mktsegment = 'BUILDING')) in=300 out=66 batches=1",
		"stage=0 id=2 depth=2 name=MemScan in=0 out=300 batches=1",
		"stage=1 id=0 depth=0 name=ShuffleWrite in=321 out=321 batches=0",
		"stage=1 id=1 depth=1 name=Project in=321 out=321 batches=2",
		"stage=1 id=2 depth=2 name=HashJoin(Inner) in=1790 out=321 batches=2",
		"stage=1 id=3 depth=3 name=Filter((o_orderdate < 9204)) in=3000 out=1526 batches=2",
		"stage=1 id=4 depth=4 name=MemScan in=0 out=3000 batches=2",
		"stage=1 id=5 depth=3 name=BroadcastRead(stage=0) in=0 out=264 batches=4",
		"stage=2 id=0 depth=0 name=ShuffleWrite in=18 out=18 batches=0",
		"stage=2 id=1 depth=1 name=HashAgg(1) in=37 out=18 batches=4",
		"stage=2 id=2 depth=2 name=Project in=37 out=37 batches=6",
		"stage=2 id=3 depth=3 name=HashJoin(Inner) in=7726 out=37 batches=6",
		"stage=2 id=4 depth=4 name=Filter((l_shipdate > 9204)) in=12378 out=6442 batches=7",
		"stage=2 id=5 depth=5 name=MemScan in=0 out=12378 batches=7",
		"stage=2 id=6 depth=4 name=BroadcastRead(stage=1) in=0 out=1284 batches=8",
		"stage=3 id=0 depth=0 name=TopK(10) in=18 out=18 batches=3",
		"stage=3 id=1 depth=1 name=Project in=18 out=18 batches=3",
		"stage=3 id=2 depth=2 name=HashAgg(2) in=18 out=18 batches=3",
		"stage=3 id=3 depth=3 name=ShuffleRead(stage=2) in=0 out=18 batches=10",
	}
	if got := profileRows(rs.Profile); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile rows moved\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if render := rs.Profile.Render(); !strings.Contains(render, "pipeline[ops=") {
		t.Errorf("profile missing pipeline[...] stage line:\n%s", render)
	}
}
