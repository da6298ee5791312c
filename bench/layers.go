package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"photon"
	"photon/internal/catalog"
	"photon/internal/driver"
	"photon/internal/expr"
	"photon/internal/mem"
	"photon/internal/obs"
	"photon/internal/sched"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/storage/delta"
	"photon/internal/tpch"
	"photon/internal/vector"
)

// This file is the traced run. It reports where an op's time goes, layer by
// layer, from three sources that all sit outside the engine:
//
//  1. layer replay: the benchmark itself walks each class through the
//     public functions the session calls — sql.Parse, sql.Parameterize and
//     sql.NormalizeStmt, catalyst.Compile, (*CompiledQuery).Bind,
//     catalyst.PlanStages, driver.Run — with one span around each;
//  2. counters the engine already exports: driver.QueryProfile from a
//     profiled run of each class (fused pipelines off, because fused
//     members are untimed), and the change in Session.Metrics().Export()
//     across the untraced window;
//  3. isolated replays of single layers on the workload's own inputs
//     (replay.go): Delta/Parquet scans, the Parquet writer, LZ4, shuffle,
//     serde, the hash table, two expression trees.
//
// Spans inside the engine are a later change; this run is its baseline.

// traceClass is one class as the traced run replays it: literal SQL (the
// prepared classes render their key into the text) and how often.
type traceClass struct {
	name string
	// text returns the i-th replay's SQL; "" marks a class that is not a
	// query (ingest_readback's append).
	text func(i int) string
	reps int
}

// layerInputs is what a workload hands the traced run.
type layerInputs struct {
	cfg     photon.Config   // the measured session's config
	sess    *photon.Session // the measured session
	tables  *tableSet       // its tables, for the replay's catalog and the unfused session
	classes []traceClass
	// recompile replays every op as a plan-cache miss: on ingest_readback
	// each query follows a commit that invalidated the cache.
	recompile bool
	// units is how many passes, epochs or windows the untraced window held;
	// window counters are divided by it so that they repeat exactly.
	units float64
	// before/after are Session.Metrics().Export() around the untraced window.
	before, after []obs.MetricSnapshot
	replay        *replayInputs
}

// layerSet accumulates per-layer metrics.
type layerSet map[string]metric

// set stores a value under the unit its name implies (unitOf), the unit
// BENCHMARK.json declares for it.
func (l layerSet) set(name string, v float64) { l[name] = metric{v, unitOf(name)} }

// perLayerNames lists every per-layer metric, so each workload reports the
// same set (0 where a layer does no work on it) and BENCHMARK.json can be
// checked against it.
var perLayerNames = []string{
	"sql.parse_us", "sql.normalize_us",
	"catalyst.compile_us", "catalyst.bind_us", "catalyst.plan_stages_us", "catalyst.stages_per_query",
	"plancache.hit_ratio", "plancache.evictions", "plancache.invalidations",
	"service.admit_wait_us", "service.planning_us", "service.running_ms", "service.fastpath_ratio", "service.lat_p99_ms",
	"driver.run_ms", "driver.residual_ms", "driver.result_rows",
	"sched.slot_wait_us", "sched.tasks_started", "sched.task_ms", "sched.retries",
	"mem.query_peak_mb", "mem.spilled_mb", "mem.pool_hit_ratio",
	"delta.snapshot_ms", "delta.files_scanned", "delta.files_pruned", "delta.commit_ms", "delta.log_bytes", "delta.stored_bytes_per_row",
	"parquet.decode_ms", "parquet.decode_mb_per_s", "parquet.rows_decoded", "parquet.groups_pruned",
	"parquet.encode_ms", "parquet.compress_ms", "parquet.write_ms",
	"lz4.compress_mb_per_s", "lz4.decompress_mb_per_s", "lz4.ratio",
	"exec.scan_self_ms", "exec.filter_project_self_ms", "exec.hashagg_self_ms", "exec.join_build_self_ms",
	"exec.join_probe_self_ms", "exec.sort_self_ms", "exec.exchange_write_self_ms", "exec.exchange_read_self_ms",
	"exec.rows_in", "exec.pipeline_rows",
	"expr.q1_proj_ns_per_row", "expr.q6_pred_ns_per_row", "kernels.dec64_batches", "kernels.dec64_escapes",
	"ht.build_ns_per_row", "ht.probe_ns_per_row",
	"rf.files_pruned", "rf.groups_pruned", "rf.rows_pruned",
	"shuffle.write_mb", "shuffle.write_raw_mb", "shuffle.rows", "shuffle.write_mb_per_s", "shuffle.read_mb_per_s",
	"serde.encode_mb_per_s", "serde.decode_mb_per_s",
	"result.materialize_ms",
	"obs.run_p99_ratio",
	"trace.coverage_frac", "trace.overhead_frac",
}

// runLayers runs the traced pass and returns every per-layer metric.
func runLayers(in *layerInputs, tr *tracer, untraced *recorder) (layerSet, map[string]*classTrace, error) {
	out := layerSet{}
	for _, name := range perLayerNames {
		out.set(name, 0)
	}
	windowCounters(in, untraced, out)
	rp, err := newReplayer(in, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := rp.replayAll(out, untraced); err != nil {
		return nil, nil, err
	}
	if in.replay != nil {
		if err := in.replay.run(out); err != nil {
			return nil, nil, err
		}
	}
	// Profiles last: the join self-time split uses the hash-table replay.
	if err := profilePasses(in, out); err != nil {
		return nil, nil, err
	}
	return out, rp.perClass, nil
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_mb_per_s", "MB/s"}, {"_ns_per_row", "ns"}, {"_bytes_per_row", "B"}, {"_us", "us"}, {"_ms", "ms"}, {"_mb", "MB"},
		{"_ratio", "ratio"}, {"_frac", "ratio"}, {".ratio", "ratio"}, {"_bytes", "B"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// ---- source 2a: the engine's own counters across the untraced window ----

// exportDelta indexes after − before by metric name. Counters and histogram
// counts and sums subtract; quantiles are the session's cumulative ones.
func exportDelta(before, after []obs.MetricSnapshot) map[string]obs.MetricSnapshot {
	prev := map[string]obs.MetricSnapshot{}
	for _, m := range before {
		prev[m.Name] = m
	}
	d := map[string]obs.MetricSnapshot{}
	for _, m := range after {
		p := prev[m.Name]
		m.Value -= p.Value
		m.Count -= p.Count
		m.Sum -= p.Sum
		d[m.Name] = m
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowCounters fills the metrics read from Session.Metrics().Export().
// Counts are per unit (pass, epoch or window), means are per event.
func windowCounters(in *layerInputs, untraced *recorder, out layerSet) {
	d := exportDelta(in.before, in.after)
	count := func(name string) float64 { return float64(d[name].Value) }
	histMean := func(names ...string) float64 { // mean observation, in the histogram's unit
		var sum, n float64
		for _, name := range names {
			sum += float64(d[name].Sum)
			n += float64(d[name].Count)
		}
		return ratio(sum, n)
	}
	perUnit := func(v float64) float64 { return ratio(v, in.units) }
	const mb = 1 << 20

	hits, misses := count("photon_plan_cache_hits_total"), count("photon_plan_cache_misses_total")
	out.set("plancache.hit_ratio", ratio(hits, hits+misses))
	out.set("plancache.evictions", perUnit(count("photon_plan_cache_evictions_total")))
	out.set("plancache.invalidations", perUnit(count("photon_plan_cache_invalidations_total")))

	out.set("service.admit_wait_us", histMean("photon_query_admit_wait_micros"))
	out.set("service.planning_us", histMean(`photon_query_plan_micros{result="hit"}`, `photon_query_plan_micros{result="miss"}`))
	out.set("service.running_ms", histMean("photon_query_run_micros")/1e3)
	out.set("service.fastpath_ratio", ratio(count("photon_fastpath_queries_total"), count("photon_queries_total")))

	out.set("sched.slot_wait_us", histMean("photon_sched_slot_wait_micros"))
	out.set("sched.tasks_started", perUnit(count("photon_sched_tasks_started_total")))
	out.set("sched.task_ms", histMean("photon_sched_task_micros")/1e3)
	out.set("sched.retries", perUnit(count("photon_sched_task_retries_total")))

	out.set("mem.query_peak_mb", histMean("photon_mem_query_peak_bytes")/mb)
	out.set("mem.spilled_mb", perUnit(count("photon_mem_spilled_bytes_total"))/mb)
	poolHits, poolMisses := count("photon_mem_pool_hits_total"), count("photon_mem_pool_misses_total")
	out.set("mem.pool_hit_ratio", ratio(poolHits, poolHits+poolMisses))

	out.set("kernels.dec64_batches", perUnit(count(`photon_decimal_fastpath_batches_total{path="dec64"}`)))
	out.set("kernels.dec64_escapes", perUnit(count(`photon_decimal_fastpath_batches_total{path="escape"}`)))
	out.set("rf.files_pruned", perUnit(count("photon_runtime_filter_files_pruned_total")))
	out.set("rf.groups_pruned", perUnit(count("photon_runtime_filter_row_groups_pruned_total")))
	out.set("rf.rows_pruned", perUnit(count("photon_runtime_filter_rows_pruned_total")))
	// Row groups are skipped only by runtime filters: the scan has no static
	// row-group predicate, so the Parquet count is the runtime-filter count.
	out.set("parquet.groups_pruned", out["rf.groups_pruned"].Value)

	out.set("shuffle.write_mb", perUnit(count("photon_shuffle_write_bytes_total"))/mb)
	out.set("shuffle.write_raw_mb", perUnit(count("photon_shuffle_write_raw_bytes_total"))/mb)
	out.set("shuffle.rows", perUnit(count("photon_shuffle_write_rows_total")))

	// The client's p99 needs ten samples beyond it; a window of a few
	// TPC-H passes has none, and both metrics then stay 0.
	var all []float64
	for _, lat := range untraced.byClass() {
		all = append(all, lat...)
	}
	sort.Float64s(all)
	if p99, ok := percentile(all, 0.99); ok {
		out.set("service.lat_p99_ms", p99)
		out.set("obs.run_p99_ratio", ratio(d["photon_query_run_micros"].P99/1e3, p99))
	}
}

// ---- source 1: layer replay ----

// replayer walks ops through the layers' public functions on its own
// catalog, slot pool, memory manager and registry, mirroring what
// Session.SQLContext does between the caller and driver.Run.
type replayer struct {
	in    *layerInputs
	tr    *tracer
	cat   *catalog.Catalog
	cache map[string]*catalyst.CompiledQuery // normalized SQL → compiled shape
	pool  *sched.Pool
	mm    *mem.Manager
	reg   *obs.Registry
	sc    catalyst.StageConfig
	qid   int

	// Durations summed over replayed ops, and how many ops fed each.
	parse, normalize, compile, bind, planStages, run, residual, root time.Duration
	covered                                                          time.Duration
	ops, compiles, staged                                            int
	stages, rows                                                     int64
	filesScanned, filesPruned                                        int64
	scans                                                            []scanSpec
	perClass                                                         map[string]*classTrace
}

func newReplayer(in *layerInputs, tr *tracer) (*replayer, error) {
	cat, err := in.tables.catalog()
	if err != nil {
		return nil, err
	}
	par := in.cfg.Parallelism
	reg := obs.NewRegistry()
	pool := sched.NewPool(par)
	pool.Instrument(reg)
	return &replayer{
		in: in, tr: tr, cat: cat, cache: map[string]*catalyst.CompiledQuery{}, perClass: map[string]*classTrace{},
		pool: pool, mm: mem.NewManager(0), reg: reg,
		sc: catalyst.StageConfig{Parallelism: par, BroadcastRows: in.cfg.BroadcastRows, RuntimeFilters: true},
	}, nil
}

// fastPathEligible mirrors Session.fastPathEligible at default settings: the
// whole input fits one task and stage planning cannot split the plan.
func (r *replayer) fastPathEligible(cq *catalyst.CompiledQuery) bool {
	if cq.InputRows > photon.DefaultFastPathRows {
		return false
	}
	return !(r.sc.Parallelism > 1 && cq.Stageable && !cq.SingleFragment)
}

// uncached is the session's fallback for shapes that cannot be compiled in
// parameterized form: compile the original text.
func (r *replayer) uncached(text string) (sql.LogicalPlan, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	plan, err := sql.Analyze(r.cat, stmt)
	if err != nil {
		return nil, err
	}
	return catalyst.Optimize(plan)
}

// bindValues adapts the op's literals to the compiled shape's slots, as
// Session.bindCompiled does.
func bindValues(cq *catalyst.CompiledQuery, raws []sql.AstExpr) (map[int]*expr.Literal, bool) {
	if len(raws) != len(cq.ParamTypes) {
		return nil, false
	}
	vals := make(map[int]*expr.Literal, len(raws))
	for i, raw := range raws {
		lit, ok := sql.BindParam(raw, cq.SelfTypes[i], cq.ParamTypes[i])
		if !ok {
			return nil, false
		}
		vals[i] = lit
	}
	return vals, true
}

// op replays one execution of text and returns the root span's duration.
func (r *replayer) op(class, text string) (time.Duration, error) {
	r.qid++
	qid, tr := r.qid, r.tr
	ct := r.perClass[class]
	if ct == nil {
		ct = &classTrace{}
		r.perClass[class] = ct
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	rootStart := time.Now()
	rootID := tr.add(0, qid, "bench", class, rootStart, rootStart) // closed below

	var stmt *sql.SelectStmt
	d, err := tr.timed(rootID, qid, "sql", "sql.Parse", func() (err error) {
		stmt, err = sql.Parse(text)
		return err
	})
	if err != nil {
		return 0, err
	}
	r.parse += d
	ct.ParseUs = us(d)
	covered := d

	var raws []sql.AstExpr
	var norm string
	d, err = tr.timed(rootID, qid, "sql", "sql.Parameterize+NormalizeStmt", func() (err error) {
		raws = sql.Parameterize(stmt)
		norm, err = sql.NormalizeStmt(stmt)
		return err
	})
	r.normalize += d
	ct.NormalizeUs = us(d)
	covered += d
	cacheable := err == nil

	var plan sql.LogicalPlan
	cq := r.cache[norm]
	if !cacheable || cq == nil || r.in.recompile {
		d, err = tr.timed(rootID, qid, "catalyst", "catalyst.Compile", func() (err error) {
			if cacheable {
				if cq, err = catalyst.Compile(r.cat, stmt, raws, r.sc); err == nil {
					r.cache[norm] = cq
					return nil
				}
			}
			cq = nil
			plan, err = r.uncached(text)
			return err
		})
		if err != nil {
			return 0, err
		}
		r.compile += d
		r.compiles++
		ct.CompileUs = us(d)
		covered += d
	}
	fast := false
	if cq != nil {
		d, err = tr.timed(rootID, qid, "catalyst", "CompiledQuery.Bind", func() error {
			vals, ok := bindValues(cq, raws)
			if !ok {
				return fmt.Errorf("literals of %q do not bind to its own compiled shape", text)
			}
			var err error
			plan, err = cq.Bind(vals)
			return err
		})
		if err != nil {
			return 0, err
		}
		r.bind += d
		ct.BindUs = us(d)
		covered += d
		fast = r.fastPathEligible(cq)
	}

	var rs driver.RunStats
	var rows [][]any
	qm := r.mm.Child(fmt.Sprintf("replay%d", qid))
	runStart := time.Now()
	rows, _, err = driver.Run(context.Background(), plan, driver.Options{
		Parallelism: r.sc.Parallelism, Mem: qm, Config: catalyst.Config{Engine: catalyst.EnginePhoton},
		BroadcastRows: r.in.cfg.BroadcastRows, Pool: r.pool, Stats: &rs, Metrics: r.reg,
		SharedVectors: true, FastPath: fast,
	})
	runEnd := time.Now()
	qm.Close()
	if err != nil {
		return 0, fmt.Errorf("driver.Run of %s: %w", class, err)
	}
	runID := tr.add(rootID, qid, "driver", "driver.Run", runStart, runEnd)
	tr.close(rootID, runEnd)
	critical := r.stageSpans(runID, qid, runStart, rs.Profile)
	run := runEnd.Sub(runStart)
	r.run += run
	r.residual += max(run-critical, 0)
	r.root += runEnd.Sub(rootStart)
	r.covered += covered + min(critical, run)
	r.stages += int64(rs.Stages)
	r.rows += int64(len(rows))
	r.ops++
	ct.FastPath, ct.Stages, ct.ResultRows = fast, rs.Stages, len(rows)
	ct.RunMs, ct.CriticalPathMs = float64(run)/1e6, float64(critical)/1e6
	ct.ShuffleBytes = 0
	if rs.Profile != nil {
		for i := range rs.Profile.Stages {
			ct.ShuffleBytes += rs.Profile.Stages[i].ShuffleBytes
		}
	}

	// driver.Run plans stages internally for every op that is not on the
	// fast path; time the same call on a private copy of the bound plan
	// (PlanStages restructures the tree it is given).
	if cq != nil && !fast && r.sc.Parallelism > 1 {
		vals, _ := bindValues(cq, raws)
		if clone, err := cq.Bind(vals); err == nil {
			d, _ := tr.timed(runID, qid, "catalyst", "catalyst.PlanStages (private copy, after the op)", func() error {
				_, err := catalyst.PlanStages(clone, r.sc)
				return err
			})
			r.planStages += d
			r.staged++
		}
	}
	return runEnd.Sub(rootStart), nil
}

// stageSpans lays the critical path's stages under the driver.Run span as
// derived spans (a stage profile has a wall time but no start), deepest
// producer first, and returns the critical path's length.
func (r *replayer) stageSpans(runID, qid int, runStart time.Time, q *driver.QueryProfile) time.Duration {
	path, total := criticalPath(q)
	at := runStart
	for i := len(path) - 1; i >= 0; i-- {
		st := path[i]
		end := at.Add(time.Duration(st.WallNanos))
		r.tr.add(runID, qid, "exec", fmt.Sprintf("stage %d [%s] (derived from StageProfile.WallNanos)", st.ID, st.Label), at, end)
		at = end
	}
	return time.Duration(total)
}

// replayAll replays every class and fills the sql, catalyst, driver and
// trace metrics, then the scan-derived delta metrics.
func (r *replayer) replayAll(out layerSet, untraced *recorder) error {
	var tracedSum, untracedSum float64
	medians := untraced.byClass()
	for c, cl := range r.in.classes {
		if cl.text == nil {
			continue
		}
		var roots []float64
		for i := 0; i < cl.reps; i++ {
			text := cl.text(i)
			d, err := r.op(cl.name, text)
			if err != nil {
				return fmt.Errorf("replay of %s: %w", cl.name, err)
			}
			// The first replay of a cacheable shape compiles; the measured
			// session is warm, so compare like with like.
			if i > 0 || cl.reps == 1 || r.in.recompile {
				roots = append(roots, float64(d)/1e6)
			}
			if i == 0 {
				if err := r.noteScans(text); err != nil {
					return err
				}
			}
		}
		if len(medians[c]) > 0 {
			tracedSum += median(roots)
			untracedSum += median(medians[c])
		}
	}
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }
	ms := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e6, float64(n)) }
	out.set("sql.parse_us", us(r.parse, r.ops))
	out.set("sql.normalize_us", us(r.normalize, r.ops))
	out.set("catalyst.compile_us", us(r.compile, r.compiles))
	out.set("catalyst.bind_us", us(r.bind, r.ops))
	out.set("catalyst.plan_stages_us", us(r.planStages, r.staged))
	out.set("catalyst.stages_per_query", ratio(float64(r.stages), float64(r.ops)))
	out.set("driver.run_ms", ms(r.run, r.ops))
	out.set("driver.residual_ms", ms(r.residual, r.ops))
	out.set("driver.result_rows", float64(r.rows))
	out.set("trace.coverage_frac", ratio(float64(r.covered), float64(r.root)))
	if untracedSum > 0 {
		out.set("trace.overhead_frac", tracedSum/untracedSum-1)
	}
	out.set("delta.files_scanned", float64(r.filesScanned))
	out.set("delta.files_pruned", float64(r.filesPruned))
	if r.in.replay != nil {
		r.in.replay.scans = r.scans
	}
	return nil
}

// scanSpec is one Delta scan a class performs: the files that survive the
// static predicate and the columns read from them.
type scanSpec struct {
	tbl     *delta.Table
	files   []delta.AddFile
	columns []string // nil = all
}

// noteScans compiles text verbatim and records the Delta scans in its
// optimized plan: how many files the pushed-down predicate prunes (the
// same Snapshot.PruneFiles call the scan operator makes) and what the
// isolated decode replay must read.
func (r *replayer) noteScans(text string) error {
	plan, err := r.uncached(text)
	if err != nil {
		return err
	}
	var walk func(n sql.LogicalPlan)
	walk = func(n sql.LogicalPlan) {
		if s, ok := n.(*sql.LScan); ok {
			if t, ok := s.Table.(*catalog.DeltaTable); ok {
				files := t.Snap.PruneFiles(s.Filter)
				r.filesScanned += int64(len(files))
				r.filesPruned += int64(len(t.Snap.Files) - len(files))
				spec := scanSpec{tbl: t.Tbl, files: files}
				for _, c := range s.Projection {
					spec.columns = append(spec.columns, t.Snap.Schema.Field(c).Name)
				}
				r.scans = append(r.scans, spec)
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(plan)
	return nil
}

// ---- source 2b: profiled runs of each class ----

// opCategory maps an operator name to its exec.*_self_ms bucket.
func opCategory(name string) string {
	for _, c := range []struct{ prefix, bucket string }{
		{"MemScan", "scan"}, {"DeltaScan", "scan"},
		{"Filter(", "filter_project"}, {"Project", "filter_project"}, {"RuntimeFilter", "filter_project"},
		{"HashAgg", "hashagg"}, {"HashJoin", "join"},
		{"Sort", "sort"}, {"TopK", "sort"},
		{"ShuffleWrite", "exchange_write"}, {"BroadcastWrite", "exchange_write"},
		{"ShuffleRead", "exchange_read"}, {"BroadcastRead", "exchange_read"},
	} {
		if strings.HasPrefix(name, c.prefix) {
			return c.bucket
		}
	}
	return "other"
}

// execTotals sums operator self time by bucket over profiles.
type execTotals struct {
	selfNs               map[string]int64
	rowsIn, pipelineRows int64
	// Hash joins time build and probe with one timer; their self time is
	// split by rows × the isolated hash-table replay's cost per row.
	joinBuildRows, joinProbeRows int64
}

func (e *execTotals) add(q *driver.QueryProfile) {
	if q == nil {
		return
	}
	for s := range q.Stages {
		st := &q.Stages[s]
		e.pipelineRows += st.PipelineRows
		self := selfNanos(st.Ops)
		for i := range st.Ops {
			op := &st.Ops[i]
			e.selfNs[opCategory(op.Name)] += self[i]
			e.rowsIn += op.RowsIn
			if !strings.HasPrefix(op.Name, "HashJoin") {
				continue
			}
			// Direct children in pre-order: probe (left) first, build second.
			child := 0
			for j := i + 1; j < len(st.Ops) && st.Ops[j].Depth > op.Depth; j++ {
				if st.Ops[j].Depth != op.Depth+1 {
					continue
				}
				if child == 0 {
					e.joinProbeRows += st.Ops[j].RowsOut
				} else {
					e.joinBuildRows += st.Ops[j].RowsOut
				}
				child++
			}
		}
	}
}

// profilePasses runs each class once with fused pipelines off, for operator
// timings, and once on the measured (fused) session, for pipeline rows.
func profilePasses(in *layerInputs, out layerSet) error {
	cfg := in.cfg
	cfg.DisableFusedPipelines = true
	unfused := photon.NewSession(cfg)
	if err := in.tables.install(unfused); err != nil {
		return err
	}
	timed := &execTotals{selfNs: map[string]int64{}}
	fused := &execTotals{selfNs: map[string]int64{}}
	ctx := context.Background()
	for _, cl := range in.classes {
		if cl.text == nil {
			continue
		}
		text := cl.text(0)
		p, err := unfused.SQLWithProfileContext(ctx, text)
		if err != nil {
			return fmt.Errorf("unfused profile of %s: %w", cl.name, err)
		}
		timed.add(p.Plan)
		if p, err = in.sess.SQLWithProfileContext(ctx, text); err != nil {
			return fmt.Errorf("profile of %s: %w", cl.name, err)
		}
		fused.add(p.Plan)
	}
	for _, b := range []string{"scan", "filter_project", "hashagg", "sort", "exchange_write", "exchange_read"} {
		out.set("exec."+b+"_self_ms", float64(timed.selfNs[b])/1e6)
	}
	buildW := float64(timed.joinBuildRows) * max(out["ht.build_ns_per_row"].Value, 1)
	probeW := float64(timed.joinProbeRows) * max(out["ht.probe_ns_per_row"].Value, 1)
	joinMs := float64(timed.selfNs["join"]) / 1e6
	out.set("exec.join_build_self_ms", joinMs*ratio(buildW, buildW+probeW))
	out.set("exec.join_probe_self_ms", joinMs*ratio(probeW, buildW+probeW))
	out.set("exec.rows_in", float64(timed.rowsIn))
	out.set("exec.pipeline_rows", float64(fused.pipelineRows))
	return nil
}

// ---- what each workload hands over ----

func (w *tpchWorkload) session() *photon.Session { return w.sess }

func (w *tpchWorkload) layers(tr *tracer, before, after []obs.MetricSnapshot, untraced *recorder) (layerSet, map[string]*classTrace, error) {
	in := &layerInputs{
		cfg: w.sessionConfig(), sess: w.sess, tables: w.tables,
		units: float64(untraced.attempted()) / float64(len(w.classes())), before: before, after: after,
	}
	for _, q := range tpch.QueryNumbers() {
		text := tpch.Queries[q]
		// Twice: the first replay compiles the shape, the second binds it.
		in.classes = append(in.classes, traceClass{name: tpchClass(q), text: func(int) string { return text }, reps: 2})
	}
	if w.tables.mem != nil {
		in.replay = lineitemReplay(w.tables, w.dataDir)
	}
	return runLayers(in, tr, untraced)
}

func (w *servingWorkload) session() *photon.Session { return w.sess }

func (w *servingWorkload) layers(tr *tracer, before, after []obs.MetricSnapshot, untraced *recorder) (layerSet, map[string]*classTrace, error) {
	// Replay a fixed 200-op sample of the mix, keys from the seeded stream.
	next := servingOps(w.seed+1, 0, w.orderKeys)
	keys := make([][]servingOp, len(servingClasses))
	reps := []int{130, 40, 20, 10}
	for c := range keys {
		for len(keys[c]) < reps[c] {
			if op := next(); op.class == c {
				keys[c] = append(keys[c], op)
			}
		}
	}
	lit := func(q string, key int64) string { return strings.Replace(q, "?", fmt.Sprint(key), 1) }
	texts := []func(op servingOp) string{
		func(op servingOp) string { return lit(pointLookupSQL, op.key) },
		func(op servingOp) string { return lit(joinLookupSQL, op.key) },
		func(op servingOp) string { return groupAggSQL(op.key) },
		func(op servingOp) string { return coldSQL(len(w.streams), op.shape, op.key) }, // an alias no client used
	}
	in := &layerInputs{
		cfg: w.sessionConfig(), sess: w.sess, tables: w.tables,
		units: 1, before: before, after: after, replay: lineitemReplay(w.tables, ""),
	}
	for c, name := range servingClasses {
		c := c
		in.classes = append(in.classes, traceClass{name: name, reps: reps[c],
			text: func(i int) string { return texts[c](keys[c][i]) }})
	}
	return runLayers(in, tr, untraced)
}

func (w *ingestWorkload) session() *photon.Session { return w.sess }

func (w *ingestWorkload) layers(tr *tracer, before, after []obs.MetricSnapshot, untraced *recorder) (layerSet, map[string]*classTrace, error) {
	// The window's last epoch left the table full. Layers are replayed on a
	// fresh half-grown table, the state the median measured cycle saw.
	half := newRecorder(ingestClasses)
	if err := w.runEpoch(max(w.cycles/2, 1), half); err != nil {
		return nil, nil, err
	}
	if half.failed > 0 {
		return nil, nil, fmt.Errorf("half epoch before the replay: %v", half.errs)
	}
	ts := &tableSet{names: []string{"events"}, delta: map[string]string{"events": w.dir}}
	lo := w.firstID
	in := &layerInputs{
		cfg: w.sessionConfig(), sess: w.sess, tables: ts, recompile: true,
		units:  float64(untraced.attempted()) / float64(len(ingestClasses)*w.cycles),
		before: before, after: after,
		classes: []traceClass{
			{name: "append"},
			{name: "scan_agg", reps: 5, text: func(int) string { return scanAggSQL }},
			{name: "wide_select", reps: 5, text: func(i int) string {
				from := lo + int64(i)*ingestSelectRows
				return fmt.Sprintf(wideSelectSQL, from, from+ingestSelectRows-1)
			}},
		},
		replay: eventsReplay(w, filepath.Join(w.dataDir, "replay")),
	}
	return runLayers(in, tr, untraced)
}

// batchBytes is the in-memory size of a batch's active rows: fixed-width
// lanes plus string payloads.
func batchBytes(b *vector.Batch) int64 {
	n := int64(b.NumActive())
	var total int64
	for _, v := range b.Vecs {
		if w := v.Type.FixedWidth(); w > 0 {
			total += n * int64(w)
			continue
		}
		for i := 0; i < b.NumActive(); i++ {
			total += int64(len(v.Str[b.RowIndex(i)]))
		}
	}
	return total
}
