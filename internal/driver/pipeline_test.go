package driver

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"photon/internal/tpch"
)

// profileRows flattens the ID-stable part of a merged profile: per stage, its
// task counts and every stage-level counter, then every operator's pre-order
// ID, depth, name and counters.
func profileRows(p *QueryProfile) []string {
	var out []string
	for _, st := range p.Stages {
		out = append(out, fmt.Sprintf("stage=%d tasks=%d/%d shuffle[rows=%d bytes=%d raw=%d mem=%d enc=%v] pipeline[ops=%d batches=%d rows=%d] dec64[%d/%d] rfPruned=%d",
			st.ID, st.TasksRun, st.TasksPlanned,
			st.ShuffleRows, st.ShuffleBytes, st.ShuffleRawBytes, st.ShuffleMemRows, st.EncCounts,
			st.PipelineOps, st.PipelineBatches, st.PipelineRows,
			st.Dec64Batches, st.Dec64Escapes, st.RFRowsPruned))
		for _, op := range st.Ops {
			out = append(out, fmt.Sprintf("stage=%d id=%d depth=%d name=%s in=%d out=%d batches=%d tasks=%d peak=%d spills=%d compactions=%d passed=%d left=%d skipped=%d/%d",
				st.ID, op.ID, op.Depth, op.Name, op.RowsIn, op.RowsOut, op.BatchesOut,
				op.Tasks, op.PeakMemory, op.SpillCount, op.Compactions, op.PassedRows, op.BuiltLeft,
				op.SkippedBatches, op.StoredBatches))
		}
	}
	return out
}

// maskTimes blanks the clock readings of a rendered profile, the only part
// of it that moves from run to run.
var maskTimes = regexp.MustCompile(`(time|wall)=\S+ *`)

// TestFusedExplainAnalyzeProfile pins Q1's and Q3's merged EXPLAIN ANALYZE
// at par 4: every operator keeps its pre-order ID, depth, name and counters,
// every stage its task, shuffle, pipeline, narrow-decimal and runtime-filter
// counts, and the rendered text is the same once its clock readings are
// masked. Runtime filters are off here, so row counters do not depend on
// timing.
func TestFusedExplainAnalyzeProfile(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	for _, c := range []struct {
		q      int
		rows   []string
		render string
	}{
		{
			q: 1,
			rows: []string{
				"stage=0 tasks=4/4 shuffle[rows=16 bytes=0 raw=0 mem=16 enc=[0 0 0]] pipeline[ops=2 batches=7 rows=12378] dec64[49/0] rfPruned=0",
				"stage=0 id=0 depth=0 name=ShuffleWrite in=16 out=16 batches=0 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=0 id=1 depth=1 name=HashAgg(1) in=12378 out=16 batches=4 tasks=4 peak=19160 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=0 id=2 depth=2 name=Filter((l_shipdate <= 10471)) in=12378 out=12378 batches=7 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=0 id=3 depth=3 name=MemScan in=0 out=12378 batches=7 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 tasks=4/4 shuffle[rows=0 bytes=0 raw=0 mem=0 enc=[0 0 0]] pipeline[ops=2 batches=3 rows=4] dec64[0/0] rfPruned=0",
				"stage=1 id=0 depth=0 name=Sort in=4 out=4 batches=3 tasks=4 peak=328 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=1 depth=1 name=Project in=4 out=4 batches=3 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=2 depth=2 name=HashAgg(2) in=16 out=4 batches=3 tasks=4 peak=2016 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=3 depth=3 name=ShuffleRead(stage=0) in=0 out=16 batches=12 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
			},
			render: `Stage 1 [Sort->gather] tasks=4/4 wall=? pipeline[ops=2 batches=3 rows=4]
  Sort                         in=4          out=4          batches=3       time=? tasks=4 peakMem=328
    Project                      in=4          out=4          batches=3       time=? tasks=4
      HashAgg(2)                   in=16         out=4          batches=3       time=? tasks=4 peakMem=2016
        ShuffleRead(stage=0)         in=0          out=16         batches=12      time=? tasks=4 <- stage 0
          Stage 0 [PartialAgg->hash] tasks=4/4 wall=? shuffle[rows=16 bytes=0 raw=0 enc=none] mem=16 pipeline[ops=2 batches=7 rows=12378] dec64[batches=49 escapes=0]
            ShuffleWrite                 in=16         out=16         batches=0       time=? tasks=4
              HashAgg(1)                   in=12378      out=16         batches=4       time=? tasks=4 peakMem=19160
                Filter((l_shipdate <= 10471)) in=12378      out=12378      batches=7       time=? tasks=4
                  MemScan                      in=0          out=12378      batches=7       time=? tasks=4
`,
		},
		{
			q: 3,
			rows: []string{
				"stage=0 tasks=4/4 shuffle[rows=66 bytes=0 raw=0 mem=66 enc=[0 0 0]] pipeline[ops=2 batches=1 rows=66] dec64[0/0] rfPruned=0",
				"stage=0 id=0 depth=0 name=ShuffleWrite in=66 out=66 batches=0 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=0 id=1 depth=1 name=Filter((c_mktsegment = 'BUILDING')) in=300 out=66 batches=1 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=0 id=2 depth=2 name=MemScan in=0 out=300 batches=1 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 tasks=4/4 shuffle[rows=321 bytes=0 raw=0 mem=321 enc=[0 0 0]] pipeline[ops=4 batches=4 rows=1847] dec64[0/0] rfPruned=0",
				"stage=1 id=0 depth=0 name=ShuffleWrite in=321 out=321 batches=0 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=1 depth=1 name=Project in=321 out=321 batches=2 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=2 depth=2 name=HashJoin(Inner) in=1790 out=321 batches=2 tasks=4 peak=6544 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=3 depth=3 name=Filter((o_orderdate < 9204)) in=3000 out=1526 batches=2 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=4 depth=4 name=MemScan in=0 out=3000 batches=2 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=1 id=5 depth=3 name=BroadcastRead(stage=0) in=0 out=264 batches=4 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=2 tasks=4/4 shuffle[rows=18 bytes=0 raw=0 mem=18 enc=[0 0 0]] pipeline[ops=4 batches=13 rows=6479] dec64[0/0] rfPruned=0",
				"stage=2 id=0 depth=0 name=ShuffleWrite in=18 out=18 batches=0 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=2 id=1 depth=1 name=HashAgg(1) in=37 out=18 batches=4 tasks=4 peak=18120 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=2 id=2 depth=2 name=Project in=37 out=37 batches=6 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=2 id=3 depth=3 name=HashJoin(Inner) in=7726 out=37 batches=6 tasks=4 peak=40228 spills=0 compactions=3 passed=0 left=0 skipped=0/0",
				"stage=2 id=4 depth=4 name=Filter((l_shipdate > 9204)) in=12378 out=6442 batches=7 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=2 id=5 depth=5 name=MemScan in=0 out=12378 batches=7 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=2 id=6 depth=4 name=BroadcastRead(stage=1) in=0 out=1284 batches=8 tasks=4 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=3 tasks=3/4 shuffle[rows=0 bytes=0 raw=0 mem=0 enc=[0 0 0]] pipeline[ops=2 batches=3 rows=18] dec64[0/0] rfPruned=0",
				"stage=3 id=0 depth=0 name=TopK(10) in=18 out=18 batches=3 tasks=3 peak=216 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=3 id=1 depth=1 name=Project in=18 out=18 batches=3 tasks=3 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=3 id=2 depth=2 name=HashAgg(2) in=18 out=18 batches=3 tasks=3 peak=728 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
				"stage=3 id=3 depth=3 name=ShuffleRead(stage=2) in=0 out=18 batches=10 tasks=3 peak=0 spills=0 compactions=0 passed=0 left=0 skipped=0/0",
			},
			render: `Stage 3 [Limit->gather] tasks=3/4 wall=? pipeline[ops=2 batches=3 rows=18]
  TopK(10)                     in=18         out=18         batches=3       time=? tasks=3 peakMem=216
    Project                      in=18         out=18         batches=3       time=? tasks=3
      HashAgg(2)                   in=18         out=18         batches=3       time=? tasks=3 peakMem=728
        ShuffleRead(stage=2)         in=0          out=18         batches=10      time=? tasks=3 <- stage 2
          Stage 2 [PartialAgg->hash] tasks=4/4 wall=? shuffle[rows=18 bytes=0 raw=0 enc=none] mem=18 pipeline[ops=4 batches=13 rows=6479]
            ShuffleWrite                 in=18         out=18         batches=0       time=? tasks=4
              HashAgg(1)                   in=37         out=18         batches=4       time=? tasks=4 peakMem=18120
                Project                      in=37         out=37         batches=6       time=? tasks=4
                  HashJoin(Inner)              in=7726       out=37         batches=6       time=? tasks=4 peakMem=40228 compactions=3
                    Filter((l_shipdate > 9204))  in=12378      out=6442       batches=7       time=? tasks=4
                      MemScan                      in=0          out=12378      batches=7       time=? tasks=4
                    BroadcastRead(stage=1)       in=0          out=1284       batches=8       time=? tasks=4 <- stage 1
                      Stage 1 [Project->broadcast] tasks=4/4 wall=? shuffle[rows=321 bytes=0 raw=0 enc=none] mem=321 pipeline[ops=4 batches=4 rows=1847]
                        ShuffleWrite                 in=321        out=321        batches=0       time=? tasks=4
                          Project                      in=321        out=321        batches=2       time=? tasks=4
                            HashJoin(Inner)              in=1790       out=321        batches=2       time=? tasks=4 peakMem=6544
                              Filter((o_orderdate < 9204)) in=3000       out=1526       batches=2       time=? tasks=4
                                MemScan                      in=0          out=3000       batches=2       time=? tasks=4
                              BroadcastRead(stage=0)       in=0          out=264        batches=4       time=? tasks=4 <- stage 0
                                Stage 0 [Scan->broadcast] tasks=4/4 wall=? shuffle[rows=66 bytes=0 raw=0 enc=none] mem=66 pipeline[ops=2 batches=1 rows=66]
                                  ShuffleWrite                 in=66         out=66         batches=0       time=? tasks=4
                                    Filter((c_mktsegment = 'BUILDING')) in=300        out=66         batches=1       time=? tasks=4
                                      MemScan                      in=0          out=300        batches=1       time=? tasks=4
`,
		},
	} {
		t.Run(fmt.Sprintf("Q%d", c.q), func(t *testing.T) {
			var rs RunStats
			runTPCH(t, cat, c.q, Options{
				Parallelism: 4, ShuffleDir: t.TempDir(),
				testNoRuntimeFilters: true, Stats: &rs,
			})
			if rs.Profile == nil {
				t.Fatal("missing profile")
			}
			if got := profileRows(rs.Profile); !reflect.DeepEqual(got, c.rows) {
				t.Errorf("profile rows moved\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.rows, "\n"))
			}
			if got := maskTimes.ReplaceAllString(rs.Profile.Render(), "$1=? "); got != c.render {
				t.Errorf("rendered profile moved\ngot:\n%s\nwant:\n%s", got, c.render)
			}
		})
	}
}
