package obs

import (
	"encoding/json"
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
	ID          int    `json:"id"`
	Label       string `json:"label"`
	Tasks       int    `json:"tasks"`
	WallMicros  int64  `json:"wall_micros"`
	Rows        int64  `json:"rows"` // root-operator output rows
	ShuffleRows int64  `json:"shuffle_rows,omitempty"`
}

// QueryRecord is one completed (or rejected/failed) query's flight record.
type QueryRecord struct {
	ID  int64  `json:"id"`
	SQL string `json:"sql"` // normalized when available, raw text otherwise
	// Tenant is the tenant the query was admitted under ("default" when
	// the session runs single-tenant).
	Tenant string `json:"tenant,omitempty"`

	// Lifecycle timestamps: Submit (arrival), Admitted (past the gate),
	// Planned (compile+bind finished / execution started), Done.
	// Phases never reached hold the zero time.
	Submit   time.Time `json:"submit"`
	Admitted time.Time `json:"admitted,omitzero"`
	Planned  time.Time `json:"planned,omitzero"`
	Done     time.Time `json:"done"`

	Status string `json:"status"` // ok | failed | cancelled | timeout | rejected
	Error  string `json:"error,omitempty"`

	Cached   bool `json:"cached"`
	FastPath bool `json:"fastpath"`

	Rows          int64 `json:"rows"`
	PeakMemBytes  int64 `json:"peak_mem_bytes"`
	SpilledBytes  int64 `json:"spilled_bytes"`
	ShuffleBytes  int64 `json:"shuffle_bytes"`
	ShuffleRows   int64 `json:"shuffle_rows"`
	Retries       int64 `json:"retries"`
	Speculated    int64 `json:"speculated"`
	Recovered     int64 `json:"recovered"`
	SlotsHeldPeak int   `json:"slots_held_peak"`

	// Stages is the compact per-stage profile (nil for rejected queries
	// and plans that failed before execution). Per-operator timings are
	// not retained; the full profile is available on demand via EXPLAIN
	// ANALYZE.
	Stages []StageSummary `json:"stages,omitempty"`
}

// QueueWait is the time spent in the admission gate.
func (r *QueryRecord) QueueWait() time.Duration { return span(r.Submit, r.Admitted) }

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
				Args: map[string]any{"name": "stage-" + itoa(st.ID) + " " + st.Label}},
			TraceEvent{Name: "stage " + itoa(st.ID), Cat: "stage", Ph: "X",
				TS: us(runStart), Dur: clamp(st.WallMicros), PID: 1, TID: tid,
				Args: map[string]any{"tasks": st.Tasks, "rows": st.Rows}})
	}
	return json.MarshalIndent(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
}

// itoa avoids pulling strconv into the event-building hot loop signature
// churn; records render rarely.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ActiveQuery is the in-flight registry's handle for one admitted-or-queued
// query. Phase transitions and progress updates are atomic; the recorder
// lock is only taken at Begin and End.
type ActiveQuery struct {
	id     int64
	sql    string
	tenant string
	submit time.Time

	phase atomic.Int32
	rows  atomic.Int64
	bytes atomic.Int64
}

// ID returns the query's recorder-assigned ID. Nil-safe (0).
func (a *ActiveQuery) ID() int64 {
	if a == nil {
		return 0
	}
	return a.id
}

// SQL returns the query text the handle was registered with. Nil-safe.
func (a *ActiveQuery) SQL() string {
	if a == nil {
		return ""
	}
	return a.sql
}

// Tenant returns the tenant the query was registered under. Nil-safe.
func (a *ActiveQuery) Tenant() string {
	if a == nil {
		return ""
	}
	return a.tenant
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

// ActiveInfo is a point-in-time snapshot of one in-flight query.
type ActiveInfo struct {
	ID     int64      `json:"id"`
	SQL    string     `json:"sql"`
	Tenant string     `json:"tenant,omitempty"`
	Phase  QueryPhase `json:"-"`
	Name   string     `json:"phase"`
	Submit time.Time  `json:"submit"`
	Rows   int64      `json:"rows"`
	Bytes  int64      `json:"bytes"`
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

// Begin registers an in-flight query under a tenant and returns its
// handle. Nil-safe: a nil recorder returns a nil handle whose methods all
// no-op.
func (r *Recorder) Begin(sqlText, tenant string) *ActiveQuery {
	if r == nil {
		return nil
	}
	a := &ActiveQuery{id: r.seq.Add(1), sql: sqlText, tenant: tenant, submit: time.Now()}
	r.mu.Lock()
	r.active[a.id] = a
	r.mu.Unlock()
	return a
}

// End completes an in-flight query: the handle leaves the active registry
// and rec (stamped with the handle's ID, SQL, and submit time when unset)
// enters the ring, evicting the oldest record once full. Nil-safe.
func (r *Recorder) End(a *ActiveQuery, rec QueryRecord) {
	if r == nil || a == nil {
		return
	}
	rec.ID = a.id
	if rec.SQL == "" {
		rec.SQL = a.sql
	}
	if rec.Tenant == "" {
		rec.Tenant = a.tenant
	}
	if rec.Submit.IsZero() {
		rec.Submit = a.submit
	}
	if rec.Done.IsZero() {
		rec.Done = time.Now()
	}
	r.mu.Lock()
	delete(r.active, a.id)
	r.ring[r.next] = rec
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
	r.mu.Lock()
	out := make([]ActiveInfo, 0, len(r.active))
	for _, a := range r.active {
		p := QueryPhase(a.phase.Load())
		out = append(out, ActiveInfo{
			ID: a.id, SQL: a.sql, Tenant: a.tenant, Phase: p, Name: p.String(),
			Submit: a.submit, Rows: a.rows.Load(), Bytes: a.bytes.Load(),
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
