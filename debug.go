package photon

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// DebugHandler returns the session's live debug surface, mountable
// wherever the application serves HTTP (photon-sql -http serves it
// standalone):
//
//	/metrics                  Prometheus text (JSON via .json or Accept)
//	/debug/queries            flight recorder + in-flight queries (JSON;
//	                          minimal HTML when the client accepts it)
//	/debug/queries/{id}/trace one recorded query as Chrome trace-event
//	                          JSON, loadable in ui.perfetto.dev
//	/debug/pprof/...          standard Go profiling endpoints
func (s *Session) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/metrics.json", s.reg.Handler())
	mux.HandleFunc("/debug/queries", s.serveQueries)
	mux.HandleFunc("/debug/queries/{id}/trace", s.serveQueryTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// queriesPage is the /debug/queries JSON document. Each entry holds the
// columns of photon_active_queries or photon_queries, NULLs left out; a
// history entry also links its trace.
type queriesPage struct {
	Active  []map[string]any `json:"active"`
	History []map[string]any `json:"history"` // newest first
	Total   int64            `json:"total_recorded"`
	Cap     int              `json:"history_capacity"`
}

// entryOf reads one source's columns into a JSON object.
func entryOf[T any](cols []column[T], src *T) map[string]any {
	m := make(map[string]any, len(cols)+1)
	for _, c := range cols {
		if v := c.val(src); v != nil {
			m[c.Name] = v
		}
	}
	return m
}

// serveQueries renders the recorder: JSON by default, a minimal HTML table
// when the client prefers text/html (a browser hitting the endpoint raw).
func (s *Session) serveQueries(w http.ResponseWriter, r *http.Request) {
	page := queriesPage{
		Active:  []map[string]any{},
		History: []map[string]any{},
		Total:   s.rec.Total(),
		Cap:     s.rec.Cap(),
	}
	active := s.rec.Active()
	for i := range active {
		page.Active = append(page.Active, entryOf(activeColumns, &active[i]))
	}
	records := s.rec.Records()
	for i := len(records) - 1; i >= 0; i-- { // newest first
		e := entryOf(queryColumns, &records[i])
		e["trace"] = fmt.Sprintf("/debug/queries/%d/trace", records[i].ID)
		page.History = append(page.History, e)
	}
	if strings.Contains(r.Header.Get("Accept"), "text/html") {
		writeQueriesHTML(w, &page)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&page)
}

// The browser view's columns, by name, in order.
var (
	activeHTML  = []string{"id", "tenant", "phase", "elapsed_micros", "rows", "sql"}
	historyHTML = []string{"id", "tenant", "status", "cached", "fastpath", "wall_micros", "rows", "peak_mem_bytes", "trace", "sql"}
)

// writeQueriesHTML is the browser view: two plain tables, no assets.
func writeQueriesHTML(w http.ResponseWriter, page *queriesPage) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><title>photon queries</title>
<style>body{font:13px monospace}table{border-collapse:collapse}td,th{border:1px solid #999;padding:2px 6px;text-align:left}</style>
<h2>Active queries (%d)</h2>`, len(page.Active))
	writeHTMLTable(w, activeHTML, page.Active)
	fmt.Fprintf(w, `<h2>History (%d of %d recorded, cap %d)</h2>`, len(page.History), page.Total, page.Cap)
	writeHTMLTable(w, historyHTML, page.History)
}

// writeHTMLTable writes the named columns of entries as one table: a
// *_micros value as a duration, a trace as its link.
func writeHTMLTable(w http.ResponseWriter, names []string, entries []map[string]any) {
	fmt.Fprint(w, "<table><tr>")
	for _, n := range names {
		fmt.Fprintf(w, "<th>%s</th>", n)
	}
	fmt.Fprint(w, "</tr>")
	for _, e := range entries {
		fmt.Fprint(w, "<tr>")
		for _, n := range names {
			var cell string
			switch v := e[n]; {
			case n == "trace":
				cell = fmt.Sprintf(`<a href="%s">trace</a>`, v)
			case strings.HasSuffix(n, "_micros"):
				cell = (time.Duration(v.(int64)) * time.Microsecond).String()
			default:
				cell = html.EscapeString(fmt.Sprint(v))
			}
			fmt.Fprintf(w, "<td>%s</td>", cell)
		}
		fmt.Fprint(w, "</tr>")
	}
	fmt.Fprint(w, "</table>")
}

// serveQueryTrace renders one recorded query as Perfetto-loadable Chrome
// trace-event JSON.
func (s *Session) serveQueryTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad query id", http.StatusBadRequest)
		return
	}
	rec, ok := s.rec.Record(id)
	if !ok {
		http.Error(w, "query not in the flight recorder", http.StatusNotFound)
		return
	}
	out, err := rec.ChromeTrace()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
}
