package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one replayed op share a query id;
// parent is the id of the span that caused this one (0 for an op's root).
type span struct {
	ID      int
	Parent  int
	QueryID int
	Layer   string // the engine module the time belongs to
	Name    string
	Start   time.Time
	End     time.Time
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent, queryID int, layer, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, queryID, layer, name, start, end})
	return id
}

// close sets the end of a span opened with add (an op's root span, whose
// children are recorded while it is open).
func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs f as a child span of parent and returns how long it took.
func (t *tracer) timed(parent, queryID int, layer, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(parent, queryID, layer, name, start, end)
	return end.Sub(start), err
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one row per replayed op, spans
// nested by time, layer as the category, parent and query id in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"` // microseconds since the tracer started
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.QueryID,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "query_id": s.QueryID},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
