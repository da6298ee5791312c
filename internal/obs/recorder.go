package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Query flight recorder: an always-on, bounded ring buffer of completed
// query records plus a registry of in-flight queries. The paper's answer
// to "what is the engine doing?" is per-operator metrics surfaced in the
// Spark UI (§3.3); this is the engine-side half of that story — every
// query leaves a compact record of its lifecycle (submit → admit → plan →
// run → done), routing decisions (plan-cache hit, fast path), resource
// footprint (peak memory, spill, shuffle volume), and fault-tolerance
// activity (retries, speculation, lineage recovery), cheap enough to keep
// on in production. Writes happen only on lifecycle transitions — never
// on the per-batch hot path — so the recorder's cost is a handful of
// mutex acquisitions per query.
//
// The recorder is the data source behind the SQL-queryable system tables
// (photon_queries, photon_active_queries) and the /debug/queries HTTP
// surface; in-flight rows/bytes counters are fed by the same per-task
// progress reports the straggler detector reads.

// DefaultHistorySize is the ring capacity when NewRecorder is given a
// non-positive size: the last 1024 queries, ~a few hundred bytes each.
const DefaultHistorySize = 1024

// QueryPhase is an in-flight query's lifecycle phase.
type QueryPhase int32

// Lifecycle phases, in order.
const (
	PhaseQueued QueryPhase = iota
	PhasePlanning
	PhaseRunning
)

// String renders the phase name.
func (p QueryPhase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhasePlanning:
		return "planning"
	case PhaseRunning:
		return "running"
	}
	return "unknown"
}

// StageSummary is one stage's compact footprint inside a QueryRecord —
// enough to see where a query's time and rows went without retaining the
// full per-operator profile.
type StageSummary struct {
	ID          int
	Label       string
	Tasks       int
	WallMicros  int64
	Rows        int64 // root-operator output rows
	ShuffleRows int64
}

// QueryRecord is the one record of a query. The session fills it from
// submission (Begin) to completion (End); the caller's lifecycle stats
// (photon.QueryStats) are this struct, and the ring, the system tables,
// /debug/queries and the slow-query log all read it.
type QueryRecord struct {
	ID  int64
	SQL string // normalized when available, raw text otherwise
	// Tenant is the tenant the query was admitted under ("default" when
	// the session runs single-tenant).
	Tenant string

	// Lifecycle clock readings, one per phase boundary: Submit (arrival),
	// Admitted (past the gate), Planned (compile and bind finished), Done.
	// Phases never reached hold the zero time; a query that ends at a
	// boundary (rejected, or failed at analysis) has its Done read there.
	// Every duration the query reports is a span between two of these.
	Submit   time.Time
	Admitted time.Time
	Planned  time.Time
	Done     time.Time

	Status string // ok | failed | cancelled | timeout | rejected
	Error  string

	// Cached: the compile phase was served from the plan cache. FastPath:
	// execution ran the whole plan as one task. Degraded: admitted under
	// memory pressure with a shrunken (spill-first) grant.
	Cached   bool
	FastPath bool
	Degraded bool

	Rows          int64
	PeakMemBytes  int64 // the query's memory-reservation high-water mark
	SpilledBytes  int64
	ShuffleBytes  int64
	ShuffleRows   int64
	Retries       int64
	Speculated    int64
	Recovered     int64
	SlotsHeldPeak int
	// StageCount is the number of scheduler stages the query planned,
	// counted even when it failed after planning them.
	StageCount int

	// Stages is the compact per-stage profile of a query that completed
	// (nil otherwise). Per-operator timings are not retained; the full
	// profile is available on demand via EXPLAIN ANALYZE.
	Stages []StageSummary
}

// QueueWait is the time spent in the admission gate: until admission, or
// until Done for a query the gate never admitted. So the three phases
// always sum to Wall.
func (r *QueryRecord) QueueWait() time.Duration {
	if r.Admitted.IsZero() {
		return span(r.Submit, r.Done)
	}
	return span(r.Submit, r.Admitted)
}

// PlanTime covers the compile + bind phases.
func (r *QueryRecord) PlanTime() time.Duration { return span(r.Admitted, r.Planned) }

// RunTime covers execution.
func (r *QueryRecord) RunTime() time.Duration { return span(r.Planned, r.Done) }

// Wall is submit-to-done.
func (r *QueryRecord) Wall() time.Duration { return span(r.Submit, r.Done) }

func span(from, to time.Time) time.Duration {
	if from.IsZero() || to.IsZero() || to.Before(from) {
		return 0
	}
	return to.Sub(from)
}

// String renders a one-line lifecycle summary.
func (r *QueryRecord) String() string {
	return fmt.Sprintf("tenant=%s queued=%s planning=%s running=%s stages=%d slotsPeak=%d peakMem=%d cached=%t fastpath=%t degraded=%t",
		r.Tenant, r.QueueWait(), r.PlanTime(), r.RunTime(), r.StageCount, r.SlotsHeldPeak, r.PeakMemBytes, r.Cached, r.FastPath, r.Degraded)
}

// ChromeTrace renders the record's lifecycle and stage envelope as Chrome
// trace-event JSON (loadable in chrome://tracing or ui.perfetto.dev):
// one lifecycle row with queued/planning/running spans, one row per
// stage. Stage spans share the running phase's start — the record keeps
// durations, not absolute task times.
func (r *QueryRecord) ChromeTrace() ([]byte, error) {
	us := func(t time.Time) int64 { return t.Sub(r.Submit).Microseconds() }
	clamp := func(d int64) int64 {
		if d < 1 {
			return 1
		}
		return d
	}
	events := []TraceEvent{
		{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "lifecycle"}},
		{Name: "query", Cat: "query", Ph: "X", TS: 0, Dur: clamp(us(r.Done)), PID: 1, TID: 0,
			Args: map[string]any{
				"id": r.ID, "sql": r.SQL, "status": r.Status,
				"cached": r.Cached, "fastpath": r.FastPath, "rows": r.Rows,
			}},
	}
	add := func(name string, from, to time.Time, args map[string]any) {
		if from.IsZero() || to.IsZero() {
			return
		}
		events = append(events, TraceEvent{Name: name, Cat: "lifecycle", Ph: "X",
			TS: us(from), Dur: clamp(to.Sub(from).Microseconds()), PID: 1, TID: 0, Args: args})
	}
	add("queued", r.Submit, r.Admitted, nil)
	add("planning", r.Admitted, r.Planned, map[string]any{"cached": r.Cached})
	add("running", r.Planned, r.Done, map[string]any{"fastpath": r.FastPath})
	runStart := r.Planned
	if runStart.IsZero() {
		runStart = r.Submit
	}
	for i, st := range r.Stages {
		tid := int64(i + 1)
		events = append(events,
			TraceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": "stage-" + strconv.Itoa(st.ID) + " " + st.Label}},
			TraceEvent{Name: "stage " + strconv.Itoa(st.ID), Cat: "stage", Ph: "X",
				TS: us(runStart), Dur: clamp(st.WallMicros), PID: 1, TID: tid,
				Args: map[string]any{"tasks": st.Tasks, "rows": st.Rows}})
	}
	return json.MarshalIndent(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
}

// ActiveQuery is the in-flight registry's handle for one submitted
// query: its record, whose ID, Tenant and Submit stay fixed while it is in
// flight, the text it was submitted as, and its phase and progress, which
// change atomically; the recorder lock is only taken at Begin and End.
type ActiveQuery struct {
	rec *QueryRecord
	sql string

	phase atomic.Int32
	rows  atomic.Int64
	bytes atomic.Int64
}

// SetPhase advances the query's lifecycle phase. Nil-safe.
func (a *ActiveQuery) SetPhase(p QueryPhase) {
	if a != nil {
		a.phase.Store(int32(p))
	}
}

// Progress accumulates rows/bytes processed — the same batch-boundary feed
// the scheduler's straggler detector reads. Nil-safe, two atomic adds.
func (a *ActiveQuery) Progress(rows, bytes int64) {
	if a == nil {
		return
	}
	if rows != 0 {
		a.rows.Add(rows)
	}
	if bytes != 0 {
		a.bytes.Add(bytes)
	}
}

// ActiveInfo is a point-in-time snapshot of one in-flight query; Elapsed
// is measured from its Submit to the snapshot.
type ActiveInfo struct {
	ID      int64
	SQL     string
	Tenant  string
	Phase   QueryPhase
	Submit  time.Time
	Elapsed time.Duration
	Rows    int64
	Bytes   int64
}

// Recorder is the query flight recorder: a fixed-capacity ring of the most
// recent QueryRecords plus the in-flight query registry. All methods are
// nil-safe so a disabled recorder costs one branch per lifecycle
// transition and nothing per batch.
type Recorder struct {
	seq atomic.Int64

	mu     sync.Mutex
	ring   []QueryRecord
	next   int // ring slot the next record lands in
	count  int // filled slots (≤ len(ring))
	total  int64
	active map[int64]*ActiveQuery
}

// NewRecorder creates a recorder keeping the last size completed queries
// (size <= 0 uses DefaultHistorySize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultHistorySize
	}
	return &Recorder{ring: make([]QueryRecord, size), active: map[int64]*ActiveQuery{}}
}

// Begin numbers rec and registers it in flight, returning its handle.
// rec's SQL, Tenant and Submit must be set. Nil-safe: a nil recorder
// returns a nil handle whose methods all no-op.
func (r *Recorder) Begin(rec *QueryRecord) *ActiveQuery {
	if r == nil {
		return nil
	}
	rec.ID = r.seq.Add(1)
	a := &ActiveQuery{rec: rec, sql: rec.SQL}
	r.mu.Lock()
	r.active[rec.ID] = a
	r.mu.Unlock()
	return a
}

// End completes an in-flight query: the handle leaves the active registry
// and a copy of its record enters the ring, evicting the oldest record
// once full. Nil-safe.
func (r *Recorder) End(a *ActiveQuery) {
	if r == nil || a == nil {
		return
	}
	r.mu.Lock()
	delete(r.active, a.rec.ID)
	r.ring[r.next] = *a.rec
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Records returns the retained history oldest-first. Nil-safe (nil).
func (r *Recorder) Records() []QueryRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QueryRecord, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Record looks up a retained record by query ID. Nil-safe.
func (r *Recorder) Record(id int64) (QueryRecord, bool) {
	if r == nil {
		return QueryRecord{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.count; i++ {
		if rec := &r.ring[i]; rec.ID == id {
			return *rec, true
		}
	}
	return QueryRecord{}, false
}

// Active snapshots the in-flight queries, ordered by ID (arrival).
// Nil-safe (nil).
func (r *Recorder) Active() []ActiveInfo {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	out := make([]ActiveInfo, 0, len(r.active))
	for _, a := range r.active {
		out = append(out, ActiveInfo{
			ID: a.rec.ID, SQL: a.sql, Tenant: a.rec.Tenant, Phase: QueryPhase(a.phase.Load()),
			Submit: a.rec.Submit, Elapsed: now.Sub(a.rec.Submit), Rows: a.rows.Load(), Bytes: a.bytes.Load(),
		})
	}
	r.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Len reports the number of retained records. Nil-safe (0).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// ActiveCount reports the number of in-flight queries. Nil-safe (0).
func (r *Recorder) ActiveCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Total reports how many queries have ever been recorded (including those
// the ring has since evicted). Nil-safe (0).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap reports the ring capacity. Nil-safe (0).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}
