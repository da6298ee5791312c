package photon

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/driver"
	"photon/internal/tpch"
)

// invariantOp reports operator names whose merged RowsOut must be identical
// at any parallelism: scans, filters, projections, join outputs, and full
// sorts process every row exactly once regardless of how rows are split
// across tasks. Excluded by construction: partial/final aggregation halves
// (whose partial outputs depend on the split), per-task TopK/Limit (each task
// keeps its own top N), and exchange reads (broadcast replicates rows into
// every consumer task).
func invariantOp(name string) bool {
	for _, p := range []string{"MemScan", "Filter", "Project", "HashJoin", "Sort"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// filterFreeRows returns RowsOut by (stage, operator ID, name) for every
// invariant operator with no runtime filter anywhere beneath it, its input
// stages included. A runtime-filter operator learns which of its filters to
// probe from the batches its own task sees, so how many rows it lets through
// — and every count above it — depends on how the rows were split.
func filterFreeRows(q *driver.QueryProfile) map[string]int64 {
	isRF := func(op *driver.OpProfile) bool { return strings.HasPrefix(op.Name, "RuntimeFilter(") }
	var stageFree func(id int) bool
	stageFree = func(id int) bool {
		for i := range q.Stage(id).Ops {
			op := &q.Stage(id).Ops[i]
			if isRF(op) || (op.Upstream >= 0 && !stageFree(op.Upstream)) {
				return false
			}
		}
		return true
	}
	out := map[string]int64{}
	for _, st := range q.Stages {
		for i := range st.Ops {
			free := invariantOp(st.Ops[i].Name)
			// Pre-order: the subtree is the run of deeper operators that follows.
			for k := i; free && k < len(st.Ops) && (k == i || st.Ops[k].Depth > st.Ops[i].Depth); k++ {
				free = !isRF(&st.Ops[k]) && (st.Ops[k].Upstream < 0 || stageFree(st.Ops[k].Upstream))
			}
			if free {
				out[fmt.Sprintf("stage %d op %d %s", st.ID, st.Ops[i].ID, st.Ops[i].Name)] = st.Ops[i].RowsOut
			}
		}
	}
	return out
}

// TestDistributedProfileMergeCorrectness is the acceptance gate for the
// distributed EXPLAIN ANALYZE: across all 22 TPC-H queries, the same stage
// plan run with 2 and with 4 tasks a stage must merge to the same row count
// for every partition-invariant operator, position by position, and both must
// return as many rows as the single-task run.
func TestDistributedProfileMergeCorrectness(t *testing.T) {
	single := tpchSession(0.005, Config{Parallelism: 1})
	par2 := tpchSession(0.005, Config{Parallelism: 2})
	par4 := tpchSession(0.005, Config{Parallelism: 4})

	compared := 0
	for _, q := range tpch.QueryNumbers() {
		query := tpch.Queries[q]
		p1, err := single.SQLWithProfile(query)
		if err != nil {
			t.Fatalf("Q%02d par=1: %v", q, err)
		}
		p2, err := par2.SQLWithProfile(query)
		if err != nil {
			t.Fatalf("Q%02d par=2: %v", q, err)
		}
		p4, err := par4.SQLWithProfile(query)
		if err != nil {
			t.Fatalf("Q%02d par=4: %v", q, err)
		}
		if n1, n2, n4 := len(p1.Result.Rows), len(p2.Result.Rows), len(p4.Result.Rows); n1 != n2 || n1 != n4 {
			t.Errorf("Q%02d result rows: par=1 %d, par=2 %d, par=4 %d", q, n1, n2, n4)
		}
		if p2.Plan == nil || p4.Plan == nil {
			t.Fatalf("Q%02d missing structured profile", q)
		}
		r2, r4 := filterFreeRows(p2.Plan), filterFreeRows(p4.Plan)
		if len(r2) != len(r4) {
			t.Errorf("Q%02d: %d comparable operators at par=2, %d at par=4", q, len(r2), len(r4))
		}
		for op, n2 := range r2 {
			if n4, ok := r4[op]; !ok || n4 != n2 {
				t.Errorf("Q%02d %s rows: par=2 %d vs par=4 %d (present=%v)\npar=4 profile:\n%s",
					q, op, n2, n4, ok, p4.Operators)
			} else {
				compared++
			}
		}
	}
	t.Logf("%d operators compared", compared)
	if compared < 44 {
		t.Fatalf("only %d invariant operators compared across 22 queries — predicate too narrow?", compared)
	}
}

// TestExplainAnalyzeTimesEveryOperator: every operator that saw a row
// reports its own time — pipeline steps and their sources as much as the
// breakers above them — at par 1 (the fast path's one task) and at par 4.
func TestExplainAnalyzeTimesEveryOperator(t *testing.T) {
	for _, par := range []int{1, 4} {
		sess := tpchSession(0.01, Config{Parallelism: par})
		for _, q := range []int{3, 9, 18} {
			p, err := sess.SQLWithProfile(tpch.Queries[q])
			if err != nil {
				t.Fatalf("Q%02d par=%d: %v", q, par, err)
			}
			for _, st := range p.Plan.Stages {
				for _, op := range st.Ops {
					if (op.RowsIn > 0 || op.RowsOut > 0) && op.TimeNanos <= 0 {
						t.Errorf("Q%02d par=%d stage %d: %s moved rows but reports time=%v\n%s",
							q, par, st.ID, op.Name, time.Duration(op.TimeNanos), p.Operators)
					}
				}
			}
		}
	}
}

// TestDistributedProfileShape checks the stitched profile of one staged
// query: multiple stages, task merge counts, shuffle volume and encoding
// decisions, and the rendered tree's exchange markers.
func TestDistributedProfileShape(t *testing.T) {
	sess := tpchSession(0.005, Config{Parallelism: 4})
	p, err := sess.SQLWithProfile(tpch.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Plan
	if plan == nil || len(plan.Stages) < 2 {
		t.Fatalf("expected >= 2 stages, got %+v", plan)
	}
	var sawMergedTask, sawShuffle bool
	for _, st := range plan.Stages {
		if st.Label == "" {
			t.Errorf("stage %d missing label", st.ID)
		}
		for _, op := range st.Ops {
			if op.Tasks > 1 {
				sawMergedTask = true
			}
		}
		if st.ShuffleRows > 0 {
			sawShuffle = true
			if st.ShuffleMemRows > st.ShuffleRows {
				t.Errorf("stage %d kept %d of %d shuffled rows in memory", st.ID, st.ShuffleMemRows, st.ShuffleRows)
			}
			// Rows that were not handed over in memory went through files.
			var encs int64
			for _, n := range st.EncCounts {
				encs += n
			}
			if filed := st.ShuffleRows > st.ShuffleMemRows; filed != (st.ShuffleBytes > 0) ||
				filed != (st.ShuffleRawBytes > 0) || filed != (encs > 0) {
				t.Errorf("stage %d shuffle volume disagrees with where its rows went: %+v", st.ID, st)
			}
		}
	}
	if !sawMergedTask {
		t.Error("no operator merged across > 1 task at par=4")
	}
	if !sawShuffle {
		t.Error("no stage recorded shuffle output")
	}
	for _, frag := range []string{"tasks=", "wall=", "<- stage", "shuffle[", "ShuffleRead", "ShuffleWrite"} {
		if !strings.Contains(p.Operators, frag) {
			t.Errorf("rendered profile missing %q:\n%s", frag, p.Operators)
		}
	}
	if bf := p.BoundaryFraction(); bf < 0 || bf > 1 {
		t.Errorf("BoundaryFraction = %v", bf)
	}
}

// TestProfileTraceJSON validates the Chrome trace export: parseable JSON in
// trace-event object form, with stage/task spans and thread metadata.
func TestProfileTraceJSON(t *testing.T) {
	sess := tpchSession(0.005, Config{Parallelism: 4})
	p, err := sess.SQLWithProfile(tpch.Queries[6])
	if err != nil {
		t.Fatal(err)
	}
	js, err := p.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			TID  int64  `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var taskSpans, metaRows int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && strings.Contains(e.Name, "/task-"):
			taskSpans++
			if e.Dur < 1 {
				t.Errorf("task span %q has dur %d", e.Name, e.Dur)
			}
		case e.Ph == "M":
			metaRows++
		}
	}
	if taskSpans == 0 {
		t.Errorf("no task spans in trace:\n%s", js)
	}
	if metaRows == 0 {
		t.Error("no thread-name metadata in trace")
	}
}

// TestSessionMetricsCoverage runs a staged query and checks that the
// session registry exposes every advertised metric family — scheduler
// slots, admission, memory, shuffle, and query lifecycle — through the
// HTTP handler in both exposition formats.
func TestSessionMetricsCoverage(t *testing.T) {
	sess := tpchSession(0.005, Config{Parallelism: 4, MaxConcurrentQueries: 2})
	if _, err := sess.SQL(tpch.Queries[3]); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	sess.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, name := range []string{
		"photon_sched_slots_total", "photon_sched_slots_in_use", "photon_sched_queue_depth",
		"photon_sched_tasks_started_total", "photon_sched_slot_wait_micros",
		"photon_queries_running", "photon_admission_queued",
		"photon_queries_total 1", "photon_queries_succeeded_total 1",
		"photon_mem_limit_bytes", "photon_mem_reserved_bytes", "photon_mem_query_peak_bytes",
		"photon_mem_pool_hits_total", "photon_mem_pool_misses_total",
		"photon_shuffle_write_bytes_total", "photon_shuffle_columns_total{encoding=",
		"photon_runtime_filter_built_total", "photon_runtime_filter_applied_total",
		"photon_runtime_filter_rows_pruned_total",
		"photon_query_run_micros_count 1",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %q", name)
		}
	}
	if !strings.Contains(text, "# TYPE photon_sched_task_micros histogram") {
		t.Error("missing histogram TYPE header")
	}

	rec = httptest.NewRecorder()
	sess.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("JSON exposition invalid: %v", err)
	}
	if v, ok := m["photon_sched_tasks_started_total"].(float64); !ok || v <= 0 {
		t.Errorf("photon_sched_tasks_started_total = %v", m["photon_sched_tasks_started_total"])
	}
}

// TestScanIOIsCounted: a Delta scan reads the footer and the chunks of the
// columns it projects, and says so: a scan of 3 of lineitem's 16 columns
// stays under 40 % of the files' bytes, a scan of all 16 reads them whole,
// and what a scan decodes is more than what it reads (LZ4).
func TestScanIOIsCounted(t *testing.T) {
	sess := tpchSession(0.01, Config{Parallelism: 2})
	dir := t.TempDir()
	fileBytes := lakeCopy(t, sess, "lineitem", dir)
	counter := func(name string) int64 { return sess.Metrics().Counter(name, "").Load() }

	if _, err := sess.SQL("SELECT count(*), min(l_shipdate), max(l_quantity), sum(l_orderkey) FROM lineitem_lake"); err != nil {
		t.Fatal(err)
	}
	read, decoded := counter("photon_scan_read_bytes_total"), counter("photon_scan_decoded_bytes_total")
	if read == 0 || read*100 >= fileBytes*40 {
		t.Errorf("3-of-16-column scan read %d of %d file bytes, want under 40%%", read, fileBytes)
	}
	if decoded <= read {
		t.Errorf("decoded %d bytes from %d read", decoded, read)
	}

	if _, err := sess.SQL("SELECT * FROM lineitem_lake WHERE l_orderkey + l_partkey < 0"); err != nil {
		t.Fatal(err)
	}
	if all := counter("photon_scan_read_bytes_total") - read; all < fileBytes*95/100 || all > fileBytes {
		t.Errorf("full scan read %d of %d file bytes", all, fileBytes)
	}
	// A scan abandoned mid-file — LIMIT is satisfied by the first batch —
	// closes it when the operator tree closes.
	if res, err := sess.SQL("SELECT l_comment FROM lineitem_lake LIMIT 1"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("limit query: %v", err)
	}
	assertNoOpenFiles(t)
}

// TestMetricsConcurrentScrape hammers one session with parallel queries
// while scraping the registry and rendering traces — the -race CI run is
// the real assertion here.
func TestMetricsConcurrentScrape(t *testing.T) {
	sess := peopleSession(t, Config{Parallelism: 2})
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			sess.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := sess.SQLWithProfile("SELECT team, count(*) FROM people WHERE score > 10 GROUP BY team"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	if got := sess.Metrics().Counter("photon_queries_total", "").Load(); got != 32 {
		t.Errorf("photon_queries_total = %d, want 32", got)
	}
}

// TestProfileShowsPassThrough runs a partial aggregation that does not
// reduce (every key unique) at par 2 through the call `photon-sql -analyze`
// makes: the partial stops aggregating, EXPLAIN ANALYZE says how many rows
// it passed through, and the result matches a serial run.
func TestProfileShowsPassThrough(t *testing.T) {
	const n = 100_000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 1000)}
	}
	schema := NewSchema(Col("k", Int64), Col("v", Int64))
	const q = "SELECT k, count(DISTINCT v) d, sum(v) s FROM t GROUP BY k"
	results := map[int][]string{}
	for _, par := range []int{1, 2} {
		sess := NewSession(Config{Parallelism: par})
		if err := sess.RegisterRows("t", schema, rows); err != nil {
			t.Fatal(err)
		}
		p, err := sess.SQLWithProfile(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Result.Rows) != n {
			t.Fatalf("par %d: %d rows, want %d", par, len(p.Result.Rows), n)
		}
		results[par] = renderSorted(p.Result.Rows)
		if par == 1 {
			continue
		}
		var passed int64
		for _, st := range p.Plan.Stages {
			for _, op := range st.Ops {
				passed += op.PassedRows
			}
		}
		// Each of the two tasks aggregates its first rows before it decides.
		if passed == 0 || passed > n || !strings.Contains(p.Operators, fmt.Sprintf("passthrough=%d", passed)) {
			t.Errorf("par 2: %d rows passed through; profile:\n%s", passed, p.Operators)
		}
	}
	if !reflect.DeepEqual(results[1], results[2]) {
		t.Error("par 2 result differs from par 1")
	}
}

// TestProfileShowsBuildLeft runs a Q4-shaped semi join, and its anti and
// outer twins, at par 2: the right input is broadcast and larger than each
// task's left input, so every task builds on its left rows, which the profile
// shows as build=left×2. The rows match par 1, whose join builds on the right.
func TestProfileShowsBuildLeft(t *testing.T) {
	orders := make([][]any, 3000)
	for i := range orders {
		orders[i] = []any{int64(i), fmt.Sprintf("p%d", i%5), int64(i % 100)}
	}
	lines := make([][]any, 30_000)
	for i := range lines {
		lines[i] = []any{int64(i % 2500), int64(i % 7)}
	}
	for _, join := range []string{"LEFT SEMI JOIN", "LEFT ANTI JOIN", "LEFT OUTER JOIN"} {
		q := "SELECT prio, count(*) n FROM o " + join +
			" (SELECT lk FROM l WHERE late < 4) x ON lk = ok WHERE day < 20 GROUP BY prio"
		results := map[int][]string{}
		for _, par := range []int{1, 2} {
			sess := NewSession(Config{Parallelism: par})
			if err := sess.RegisterRows("o", NewSchema(Col("ok", Int64), Col("prio", String), Col("day", Int64)), orders); err != nil {
				t.Fatal(err)
			}
			if err := sess.RegisterRows("l", NewSchema(Col("lk", Int64), Col("late", Int64)), lines); err != nil {
				t.Fatal(err)
			}
			p, err := sess.SQLWithProfile(q)
			if err != nil {
				t.Fatal(err)
			}
			results[par] = renderSorted(p.Result.Rows)
			var built int64
			for _, st := range p.Plan.Stages {
				for _, op := range st.Ops {
					built += op.BuiltLeft
				}
			}
			if want := int64(2 * (par - 1)); built != want || (par == 2) != strings.Contains(p.Operators, "build=left×2") {
				t.Errorf("%s at par %d: %d tasks built on the left input, want %d; profile:\n%s", join, par, built, want, p.Operators)
			}
		}
		if len(results[1]) == 0 || !reflect.DeepEqual(results[1], results[2]) {
			t.Errorf("%s: par 2 rows %v, par 1 rows %v", join, results[2], results[1])
		}
	}
}

// TestPassThroughTPCH runs the TPC-H aggregates whose partials stop reducing
// once a task has read 16 Ki rows — Q21's two count(DISTINCT) partials and
// Q20's shipped — at a scale where they do, and compares par 2, where they
// pass rows through, with par 1, which has no partial aggregate. Inside Q20
// the small part build's runtime filter leaves shipped's partial a few
// thousand rows a task, so its pass-through is checked on the subquery run
// alone, the same aggregate unfiltered.
func TestPassThroughTPCH(t *testing.T) {
	serial := tpchSession(0.05, Config{Parallelism: 1})
	par := tpchSession(0.05, Config{Parallelism: 2})
	const shipped = `SELECT l_partkey lpk, l_suppkey lsk, sum(l_quantity) * 0.5 half_qty
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
GROUP BY l_partkey, l_suppkey`
	for _, c := range []struct {
		q      int
		passes string // the query whose partial passes rows through
	}{{20, shipped}, {21, tpch.Queries[21]}} {
		want, err := serial.SQL(tpch.Queries[c.q])
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.SQL(tpch.Queries[c.q])
		if err != nil {
			t.Fatal(err)
		}
		p, err := par.SQLWithProfile(c.passes)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p.Operators, "passthrough=") {
			t.Errorf("Q%02d: no partial aggregate passed rows through:\n%s", c.q, p.Operators)
		}
		if got, want := renderSorted(got.Rows), renderSorted(want.Rows); !reflect.DeepEqual(got, want) {
			t.Errorf("Q%02d at par 2 differs from par 1: %d rows vs %d", c.q, len(got), len(want))
		}
	}
}

// TestProfileShowsSkippedBatches: an in-memory scan whose filter rules out
// stored batches by their min/max shows how many as skipped=K/N in the merged
// profile, counted once per table whatever the parallelism, and returns what
// a scan of every batch returns.
func TestProfileShowsSkippedBatches(t *testing.T) {
	rows := make([][]any, 10_000) // five stored batches of up to 2,048 rows
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 7)}
	}
	for _, c := range []struct {
		q       string
		count   int64
		skipped string
	}{
		{"SELECT count(*) FROM t WHERE k < 100", 100, "skipped=4/5"},
		{"SELECT count(*) FROM t WHERE k BETWEEN 2047 AND 2048 OR k IN (9999, 20000)", 3, "skipped=2/5"},
		{"SELECT count(*) FROM t WHERE v = 3", 1429, ""},
	} {
		for _, par := range []int{1, 2} {
			sess := NewSession(Config{Parallelism: par})
			if err := sess.RegisterRows("t", NewSchema(Col("k", Int64), Col("v", Int64)), rows); err != nil {
				t.Fatal(err)
			}
			p, err := sess.SQLWithProfile(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Result.Rows[0][0].(int64); got != c.count {
				t.Errorf("%s at par %d: count %d, want %d", c.q, par, got, c.count)
			}
			if c.skipped == "" && strings.Contains(p.Operators, "skipped=") || !strings.Contains(p.Operators, c.skipped) {
				t.Errorf("%s at par %d: want %q in the profile:\n%s", c.q, par, c.skipped, p.Operators)
			}
		}
	}
}
