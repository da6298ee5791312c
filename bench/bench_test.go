package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"photon"
	"photon/internal/driver"
	"photon/internal/types"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var v []float64
	for i := 1; i <= 200; i++ {
		v = append(v, float64(i))
	}
	if got, ok := percentile(v, 0.95); !ok || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true (10 samples beyond)", got, ok)
	}
	if _, ok := percentile(v[:199], 0.95); ok {
		t.Errorf("p95 of 199 samples was reported with only 9 samples beyond it")
	}
	if _, ok := percentile(v, 0.99); ok {
		t.Errorf("p99 of 200 samples was reported with only 2 samples beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of nothing was reported")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
}

// A stage shaped like the engine's: an inclusive-timed aggregate over a
// self-timed projection and filter over an inclusive-timed join of two
// leaves.
func TestSelfNanosFromDepthOrderedProfile(t *testing.T) {
	ops := []driver.OpProfile{
		{Depth: 0, Name: "HashAgg(partial)", TimeNanos: 1000},
		{Depth: 1, Name: "Project", TimeNanos: 50},
		{Depth: 2, Name: "Filter(x > 1)", TimeNanos: 70},
		{Depth: 3, Name: "HashJoin(inner)", TimeNanos: 600},
		{Depth: 4, Name: "MemScan", TimeNanos: 100},
		{Depth: 4, Name: "BroadcastRead(stage=1)", TimeNanos: 150, Upstream: 1},
	}
	got := selfNanos(ops)
	// Join: 600 − (100 + 150). Filter and Project time only themselves.
	// Agg: 1000 − inclusive(Project) = 1000 − (50 + 70 + 600).
	want := []int64{280, 50, 70, 350, 100, 150}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfNanos = %v, want %v", got, want)
	}
	var sum int64
	for _, s := range got {
		sum += s
	}
	if sum != ops[0].TimeNanos {
		t.Errorf("self times sum to %d, want the root's inclusive %d", sum, ops[0].TimeNanos)
	}
	// A child reporting more than its parent (merged-task skew) clamps at 0.
	skew := selfNanos([]driver.OpProfile{{Depth: 0, Name: "Sort", TimeNanos: 10}, {Depth: 1, Name: "MemScan", TimeNanos: 12}})
	if skew[0] != 0 || skew[1] != 12 {
		t.Errorf("skewed self times = %v, want [0 12]", skew)
	}
}

func TestCriticalPathFollowsSlowestProducer(t *testing.T) {
	q := &driver.QueryProfile{Root: 2, Stages: []driver.StageProfile{
		{ID: 0, WallNanos: 30, Ops: []driver.OpProfile{{Name: "MemScan", Upstream: -1}}},
		{ID: 1, WallNanos: 80, Ops: []driver.OpProfile{{Name: "MemScan", Upstream: -1}}},
		{ID: 2, WallNanos: 10, Ops: []driver.OpProfile{{Name: "HashJoin", Upstream: -1}, {Name: "ShuffleRead", Upstream: 0}, {Name: "ShuffleRead", Upstream: 1}}},
	}}
	path, got := criticalPath(q)
	if got != 90 || len(path) != 2 || path[0].ID != 2 || path[1].ID != 1 {
		t.Errorf("critical path = %d over %d stages, want 90 over stages 2, 1 (root 10 + slower producer 80)", got, len(path))
	}
}

func TestDigestCanonicalisation(t *testing.T) {
	schema := photon.NewSchema(
		types.Field{Name: "k", Type: types.Int64Type},
		types.Field{Name: "d", Type: types.DateType},
		types.Field{Name: "amt", Type: types.DecimalType(12, 2)},
		types.Field{Name: "f", Type: types.Float64Type},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	a := &photon.Result{Schema: schema, Rows: [][]any{
		{int64(2), int32(0), types.DecimalFromInt64(12345), 0.1 + 0.2, nil},
		{int64(1), int32(19000), types.DecimalFromInt64(-5), 1e-3, "x"},
	}}
	got := canonicalRows(a, true)
	want := []string{"2|1970-01-01|123.45|0.3|NULL", "1|2022-01-08|-0.05|0.001|x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonical rows = %q, want %q", got, want)
	}
	// Unordered results digest the same in any row order, and a float that
	// differs only in summation order (beyond 9 digits) does not matter.
	b := &photon.Result{Schema: schema, Rows: [][]any{a.Rows[1], {int64(2), int32(0), types.DecimalFromInt64(12345), 0.3, nil}}}
	if digest(a, false) != digest(b, false) {
		t.Errorf("unordered digests differ for the same multiset of rows")
	}
	if digest(a, true) == digest(b, true) {
		t.Errorf("ordered digests agree although the row order differs")
	}
	b.Rows[1][2] = types.DecimalFromInt64(12346)
	if digest(a, false) == digest(b, false) {
		t.Errorf("digests agree although a decimal differs by one cent")
	}
}

func TestSeedDeterminism(t *testing.T) {
	passes := func(seed int64) [][]int {
		next := tpchPassOrder(seed)
		return [][]int{next(), next(), next()}
	}
	if !reflect.DeepEqual(passes(7), passes(7)) {
		t.Errorf("tpch pass order differs for one seed")
	}
	if reflect.DeepEqual(passes(7), passes(8)) {
		t.Errorf("tpch pass order is the same for two seeds")
	}

	keys := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	stream := func(seed int64, client int) []servingOp {
		next := servingOps(seed, client, keys)
		var ops []servingOp
		for i := 0; i < 500; i++ {
			ops = append(ops, next())
		}
		return ops
	}
	if !reflect.DeepEqual(stream(7, 0), stream(7, 0)) {
		t.Errorf("serving op stream differs for one seed")
	}
	if reflect.DeepEqual(stream(7, 0), stream(8, 0)) || reflect.DeepEqual(stream(7, 0), stream(7, 1)) {
		t.Errorf("serving op stream is the same for two seeds or two clients")
	}
	var byClass [4]int
	for _, op := range stream(7, 0) {
		byClass[op.class]++
	}
	if byClass[classPoint] < 280 || byClass[classColdCompile] < 10 {
		t.Errorf("class mix of 500 ops = %v, want about 65/20/10/5 percent", byClass)
	}

	if !reflect.DeepEqual(eventRows(7, 100, 50), eventRows(7, 100, 50)) {
		t.Errorf("events rows differ for one seed")
	}
	if reflect.DeepEqual(eventRows(7, 100, 50), eventRows(8, 100, 50)) {
		t.Errorf("events rows are the same for two seeds")
	}
}

func TestColdShapesOutnumberThePlanCache(t *testing.T) {
	if coldShapes <= photon.DefaultPlanCacheSize {
		t.Fatalf("%d cold shapes fit the %d-entry plan cache", coldShapes, photon.DefaultPlanCacheSize)
	}
	seen := map[string]bool{}
	for i := 0; i < coldShapes; i++ {
		seen[coldSQL(0, i, 42)] = true
	}
	if len(seen) != coldShapes || seen[coldSQL(1, 0, 42)] {
		t.Errorf("%d distinct texts in one client's cycle of %d, or a text shared between clients", len(seen), coldShapes)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads = %v, program has %v", names, workloadNames)
	}
	if len(b.EndToEnd) != gated {
		t.Fatalf("BENCHMARK.json gates %d end-to-end metrics, program %d", len(b.EndToEnd), gated)
	}
	for i, m := range b.EndToEnd {
		bd := bounds[i]
		if m.Name != bd.name || m.Unit != bd.unit || m.Better != bd.better || m.Bound != bd.frac {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, bd)
		}
	}
	names = names[:0]
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("per_layer %s has unit %q, program reports %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(names, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer names differ from the program's:\n%v\n%v", names, perLayerNames)
	}
}

// TestSmoke runs all four workloads at SF 0.005 for a one-second window,
// traced, and checks that every named metric is there and finite and that
// every result was correct.
func TestSmoke(t *testing.T) {
	optional := map[string][]string{ // end-to-end metrics only some workloads define
		"lat_p95_ms":           {"serving_mix", "ingest_readback"},
		"ingest_rows_per_s":    {"ingest_readback"},
		"stored_bytes_per_row": {"tpch_lake", "ingest_readback"},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := &options{workload: name, seed: 3, seconds: 1, trace: 1, smoke: true, outDir: t.TempDir()}
			rep, err := runWorkload(name, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Ops == 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Ops, rep.Errors)
			}
			for _, bd := range bounds {
				m, ok := rep.Metrics[bd.name]
				if defined, partial := optional[bd.name]; partial && !slices.Contains(defined, name) {
					if ok {
						t.Errorf("%s reported on %s, where it is not defined", bd.name, name)
					}
					continue
				}
				if bd.name == "lat_p95_ms" && rep.Ops < 20*minTailSamples {
					continue // too few ops in a smoke window for ten samples beyond p95
				}
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != bd.unit {
					t.Errorf("end-to-end metric %s = %+v (present %v)", bd.name, m, ok)
				}
				if ok && m.Value <= 0 && bd.name != "failed_frac" {
					t.Errorf("end-to-end metric %s = %v, want > 0", bd.name, m.Value)
				}
			}
			for _, l := range perLayerNames {
				m, ok := rep.Layers[l]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v)", l, m, ok)
				}
			}
			if len(rep.Layers) != len(perLayerNames) {
				t.Errorf("%d per-layer metrics reported, %d named", len(rep.Layers), len(perLayerNames))
			}
			if info, err := os.Stat(rep.TraceFile); err != nil || info.Size() == 0 {
				t.Errorf("trace file %s: %v", rep.TraceFile, err)
			}
			line := rep.driverLine(false)
			for _, bd := range bounds[:gated] {
				if line.Metrics[bd.name].Value <= 0 {
					t.Errorf("driver line metric %s = %v, want > 0", bd.name, line.Metrics[bd.name].Value)
				}
			}
		})
	}
}
