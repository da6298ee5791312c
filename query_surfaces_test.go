package photon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"photon/internal/fault"
)

// clockText matches the durations a lifecycle line prints.
var clockText = regexp.MustCompile(`(queued|planning|running)=[^ ]+`)

// clockKeys are the surface fields that hold a clock reading or a span
// between two; the pin prints them as <t>.
var clockKeys = map[string]bool{
	"submit": true, "elapsed_micros": true, "queue_wait_micros": true,
	"plan_micros": true, "run_micros": true, "wall_micros": true,
	"wall": true, "queue_wait": true, "time": true,
}

// maskedValue renders one surface value, masking clock readings.
func maskedValue(key string, v any) string {
	if clockKeys[key] {
		return "<t>"
	}
	return fmt.Sprintf("%v", v)
}

// maskedMap renders a JSON object's keys and values, sorted by key.
func maskedMap(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + maskedValue(k, m[k])
	}
	return strings.Join(parts, " ")
}

// setOrZero prints whether a timestamp was stamped.
func setOrZero(t time.Time) string {
	if t.IsZero() {
		return "zero"
	}
	return "set"
}

// htmlRows returns the <tr> rows of an HTML table whose first cell is id,
// with the cell at masked (0-based) replaced by <t>.
func htmlRows(page string, id int64, masked int) []string {
	var out []string
	prefix := fmt.Sprintf("<tr><td>%d</td>", id)
	for _, row := range strings.Split(page, "</tr>") {
		i := strings.Index(row, prefix)
		if i < 0 {
			continue
		}
		cells := strings.Split(strings.TrimPrefix(row[i:], "<tr><td>"), "</td><td>")
		cells[masked] = "<t>"
		out = append(out, strings.Join(cells, " | "))
	}
	return out
}

// debugPage fetches /debug/queries as JSON and as HTML.
func debugPage(t *testing.T, sess *Session) (active, history []map[string]any, html string) {
	t.Helper()
	h := sess.DebugHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	var page struct {
		Active  []map[string]any `json:"active"`
		History []map[string]any `json:"history"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("/debug/queries JSON: %v", err)
	}
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/queries", nil)
	req.Header.Set("Accept", "text/html")
	h.ServeHTTP(rec, req)
	return page.Active, page.History, rec.Body.String()
}

// TestQuerySurfacesPin holds every surface that reports on a query to a
// golden file: the lifecycle (Profile.Lifecycle and the stats that
// SQLContextStats returns), QueryHistory, photon_queries, an observer's
// photon_active_queries rows, the /debug/queries JSON entries and HTML
// rows, the slow-query log and the EXPLAIN ANALYZE header. Its four
// queries are a plan-cache hit on the fast path, an analysis failure, an
// admission rejection and a staged aggregation that QueryTimeout cancels
// while its tasks wait at start. Clock readings print as <t>; every other
// value is exact. Run with -update only for a change meant to move these
// outputs.
func TestQuerySurfacesPin(t *testing.T) {
	const path = "testdata/query_surfaces.golden"
	var logBuf bytes.Buffer
	sess := peopleSession(t, Config{
		Parallelism:        2,
		QueryTimeout:       time.Second,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       slog.New(slog.NewJSONHandler(&logBuf, nil)),
		Tenants:            map[string]TenantConfig{"solo": {MaxConcurrent: 1, MaxQueued: -1}},
	})
	ctx := context.Background()
	var b strings.Builder
	lifecycle := func(name string, st *QueryStats, err error) {
		fmt.Fprintf(&b, "# lifecycle: %s\nerr: %v\nstring: %s\n", name, err, clockText.ReplaceAllString(st.String(), "$1=<t>"))
		fmt.Fprintf(&b, "tenant=%s rows=%d slotsPeak=%d cached=%t fastpath=%t degraded=%t\n",
			st.Tenant, st.Rows, st.SlotsHeldPeak, st.Cached, st.FastPath, st.Degraded)
	}

	// Queries 1 and 2: one shape twice; the second binds the cached plan
	// and runs on the fast path.
	if _, err := sess.SQL("SELECT name FROM people WHERE score > 80"); err != nil {
		t.Fatal(err)
	}
	p, err := sess.SQLWithProfileContext(ctx, "SELECT name FROM people WHERE score > 90")
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(p.Operators, "\n")
	fmt.Fprintf(&b, "# EXPLAIN ANALYZE header\n%s\n", header)
	lifecycle("cached fast path", p.Lifecycle, nil)

	// Query 3 fails at analysis.
	_, st, err := sess.SQLContextStats(ctx, "SELECT nope FROM people")
	lifecycle("analysis failure", st, err)

	// Query 4 runs as the one-query tenant; its two stage-one tasks wait at
	// start until QueryTimeout cancels it.
	reg := fault.NewRegistry(1)
	reg.Arm(fault.TaskStart, fault.Policy{Latency: time.Hour, LatencyN: 2})
	defer fault.Activate(reg)()
	type outcome struct {
		st  *QueryStats
		err error
	}
	cancelled := make(chan outcome, 1)
	go func() {
		_, st, err := sess.SQLContextStats(WithTenant(ctx, "solo"), "SELECT team, count(*) FROM people GROUP BY team")
		cancelled <- outcome{st, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); reg.Fires(fault.TaskStart) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the staged query's tasks never started")
		}
	}

	// Query 5: the tenant is at its quota and may not queue.
	_, st, err = sess.SQLContextStats(WithTenant(ctx, "solo"), "SELECT count(*) FROM people")
	lifecycle("admission rejection", st, err)

	active, _, html := debugPage(t, sess)
	b.WriteString("# /debug/queries active\n")
	for _, a := range active {
		fmt.Fprintf(&b, "%s\n", maskedMap(a))
	}
	for _, row := range htmlRows(html, 4, 3) {
		fmt.Fprintf(&b, "html: %s\n", row)
	}

	// Query 6 observes the in-flight set, itself included (its snapshot is
	// taken at bind; it then waits for a slot until query 4 ends).
	res, err := sess.SQL("SELECT * FROM photon_active_queries")
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# photon_active_queries (observer)\n")
	for _, row := range res.Rows {
		for i, f := range res.Schema.Fields {
			fmt.Fprintf(&b, "%s=%s ", f.Name, maskedValue(f.Name, row[i]))
		}
		b.WriteString("\n")
	}

	out := <-cancelled
	lifecycle("QueryTimeout after stages started", out.st, out.err)

	b.WriteString("# QueryHistory\n")
	hist := sess.QueryHistory()
	sort.Slice(hist, func(i, j int) bool { return hist[i].ID < hist[j].ID })
	for i := range hist {
		r := &hist[i]
		fmt.Fprintf(&b, "id=%d sql=%q tenant=%s submit=%s admitted=%s planned=%s done=%s status=%s error=%q\n",
			r.ID, r.SQL, r.Tenant, setOrZero(r.Submit), setOrZero(r.Admitted), setOrZero(r.Planned), setOrZero(r.Done), r.Status, r.Error)
		fmt.Fprintf(&b, "  cached=%t fastpath=%t rows=%d peakMem=%d spilled=%d shuffleBytes=%d shuffleRows=%d retries=%d speculated=%d recovered=%d slotsPeak=%d\n",
			r.Cached, r.FastPath, r.Rows, r.PeakMemBytes, r.SpilledBytes, r.ShuffleBytes, r.ShuffleRows, r.Retries, r.Speculated, r.Recovered, r.SlotsHeldPeak)
		for _, s := range r.Stages {
			fmt.Fprintf(&b, "  stage id=%d label=%s tasks=%d wall=<t> rows=%d shuffleRows=%d\n", s.ID, s.Label, s.Tasks, s.Rows, s.ShuffleRows)
		}
	}

	res, err = sess.SQL("SELECT * FROM photon_queries")
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("# photon_queries\n")
	for _, f := range res.Schema.Fields {
		fmt.Fprintf(&b, "%s %s null=%t\n", f.Name, f.Type, f.Nullable)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][0].(int64) < res.Rows[j][0].(int64) })
	for _, row := range res.Rows {
		for i, f := range res.Schema.Fields {
			fmt.Fprintf(&b, "%s=%s ", f.Name, maskedValue(f.Name, row[i]))
		}
		b.WriteString("\n")
	}

	_, history, html := debugPage(t, sess)
	b.WriteString("# /debug/queries history\n")
	sort.Slice(history, func(i, j int) bool { return history[i]["id"].(float64) < history[j]["id"].(float64) })
	for _, h := range history {
		id := int64(h["id"].(float64))
		fmt.Fprintf(&b, "%s\n", maskedMap(h))
		for _, row := range htmlRows(html, id, 5) {
			fmt.Fprintf(&b, "html: %s\n", row)
		}
	}

	b.WriteString("# slow-query log\n")
	var lines []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("slow-query line %q: %v", line, err)
		}
		lines = append(lines, m)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i]["query_id"].(float64) < lines[j]["query_id"].(float64) })
	for _, m := range lines {
		fmt.Fprintf(&b, "%s\n", maskedMap(m))
	}

	got := b.String()
	if *updatePin {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n  got:  %s\n  want: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestLifecycleSpansMatchRecord: the lifecycle a caller gets back and the
// query's flight record are read from the same clock readings, so their
// queue, plan and run spans agree to the nanosecond, and sum to the wall
// time whichever phase the query ended in.
func TestLifecycleSpansMatchRecord(t *testing.T) {
	sess := peopleSession(t, Config{Parallelism: 2})
	spansText := regexp.MustCompile(`queued=\S+ planning=\S+ running=\S+`)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx context.Context
		q   string
	}{
		{context.Background(), "SELECT name FROM people WHERE score > 80"},
		{context.Background(), "SELECT name FROM people WHERE score > 90"},        // cached, fast path
		{context.Background(), "SELECT team, count(*) FROM people GROUP BY team"}, // staged
		{context.Background(), "SELECT nope FROM people"},                         // fails at analysis
		{cancelled, "SELECT name FROM people"},                                    // never admitted
	} {
		_, st, _ := sess.SQLContextStats(c.ctx, c.q)
		hist := sess.QueryHistory()
		r := &hist[len(hist)-1]
		got := spansText.FindString(st.String())
		want := fmt.Sprintf("queued=%s planning=%s running=%s", r.QueueWait(), r.PlanTime(), r.RunTime())
		if got != want {
			t.Errorf("%s: lifecycle %s, flight record %s", c.q, got, want)
		}
		if sum := r.QueueWait() + r.PlanTime() + r.RunTime(); sum != r.Wall() {
			t.Errorf("%s: phases sum to %s, wall %s", c.q, sum, r.Wall())
		}
	}
}
