// Package photon is a Go reproduction of Photon, the vectorized query
// engine for Lakehouse systems described in "Photon: A Fast Query Engine
// for Lakehouse Systems" (Behm et al., SIGMOD 2022).
//
// A Session is the entry point: register in-memory tables or open Delta
// tables, then run SQL. Queries execute on the vectorized Photon engine by
// default, with the paper's baseline row engine ("DBR") selectable per
// session for comparison, the partial-rollout fallback mechanism
// (transition nodes) available for unsupported operators, and parallel
// execution over the driver/stage/task scheduler when Parallelism > 1.
//
//	sess := photon.NewSession()
//	sess.RegisterRows("people", schema, rows)
//	res, err := sess.SQL("SELECT name, count(*) FROM people GROUP BY name")
package photon

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/catalog"
	"photon/internal/driver"
	"photon/internal/exec"
	"photon/internal/mem"
	"photon/internal/obs"
	"photon/internal/sched"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/storage/delta"
	"photon/internal/types"
	"photon/internal/vector"
)

// Engine selects the execution backend for a session.
type Engine = catalyst.Engine

// Engine values.
const (
	// EnginePhoton is the vectorized engine (default).
	EnginePhoton = catalyst.EnginePhoton
	// EngineDBR is the baseline row engine with whole-stage-codegen-style
	// compiled closures.
	EngineDBR = catalyst.EngineDBRCompiled
	// EngineDBRInterpreted is the baseline row engine's Volcano
	// interpreted mode.
	EngineDBRInterpreted = catalyst.EngineDBRInterpreted
)

// Re-exported type aliases so applications need only this package.
type (
	// Schema describes a table's columns.
	Schema = types.Schema
	// Field is one column of a Schema.
	Field = types.Field
	// DataType is a column type.
	DataType = types.DataType
	// Batch is a column batch (advanced/zero-copy ingestion).
	Batch = vector.Batch
)

// Common data types.
var (
	Bool      = types.BoolType
	Int32     = types.Int32Type
	Int64     = types.Int64Type
	Float64   = types.Float64Type
	String    = types.StringType
	Date      = types.DateType
	Timestamp = types.TimestampType
)

// Decimal builds a decimal type.
func Decimal(precision, scale int) DataType { return types.DecimalType(precision, scale) }

// Config controls a session.
type Config struct {
	// Engine selects the backend (default EnginePhoton).
	Engine Engine
	// MemoryLimit bounds execution memory in bytes; operators spill to
	// SpillDir under pressure (0 = unlimited).
	MemoryLimit int64
	// SpillDir receives spill and shuffle files ("" = temp dirs).
	SpillDir string
	// Parallelism > 1 executes every query as a DAG of parallel stages on
	// the task scheduler: partitioned scans, shuffle/broadcast joins, split
	// aggregations, parallel DISTINCT, and two-phase parallel sorts.
	// Queries the stage planner cannot split, and plans with row-engine
	// parts, run as a job of one stage with one task.
	Parallelism int
	// BroadcastRows caps the estimated build-side row count for broadcast
	// hash joins; larger build sides shuffle both inputs instead. 0 uses
	// the default (4Mi rows); negative disables broadcast joins.
	BroadcastRows int64
	// DisableFusedPipelines is read nowhere and selects nothing: Filter,
	// Project and RuntimeFilter only ever run as steps of a fused pipeline.
	// It stays while bench/layers.go's profile pass still sets it
	// (cfg.DisableFusedPipelines = true) and goes with that line.
	DisableFusedPipelines bool
	// PhotonUnsupported forces row-engine fallback for the listed logical
	// node kinds ("filter", "project", "aggregate", "join", "sort",
	// "limit"), demonstrating partial rollout (§3.5).
	PhotonUnsupported []string

	// ---- Prepare/bind/execute lifecycle (plan cache + fast path) ----

	// PlanCacheSize bounds the session plan cache (LRU over normalized
	// query shapes): 0 = DefaultPlanCacheSize, negative = cache disabled
	// (every query recompiles from scratch and routes through classic
	// staged execution — fast-path eligibility is part of the compiled
	// classification).
	PlanCacheSize int

	// ---- Concurrent query service (admission control + lifecycle) ----

	// MaxConcurrentQueries caps in-flight (admitted, unfinished) queries
	// per session; 0 = unlimited. Excess queries queue (or are rejected,
	// see AdmissionQueue) in FIFO order.
	MaxConcurrentQueries int
	// AdmissionQueue bounds the admission wait queue: 0 = unbounded,
	// n > 0 = at most n queued queries (further arrivals get
	// ErrQueryRejected), negative = reject immediately at capacity.
	AdmissionQueue int
	// AdmissionQueueMemory bounds the estimated memory footprint of the
	// whole admission queue: every queued query accounts for
	// max(MinQueryMemory, 1 MiB), and arrivals that would push the sum
	// past the bound are rejected (ErrQueryRejected) instead of queued.
	// 0 disables the bound. A defense against unbounded queue growth
	// under overload — a queue of ten thousand heavy queries is a promise
	// the session cannot keep.
	AdmissionQueueMemory int64
	// MinQueryMemory is the minimum reservable memory (bytes) required to
	// admit a query: admission waits until at least this much of
	// MemoryLimit is unreserved. 0 disables the memory predicate. It is
	// also the floor degraded queries' memory grants shrink toward under
	// pressure: with less than a quarter of MemoryLimit unreserved at
	// admission, a new query gets its fair share of what remains, floored
	// here, and spills its own operators first when it outgrows it.
	MinQueryMemory int64

	// ---- Multi-tenant isolation (weighted fairness + quotas) ----

	// Tenant names the session's default tenant for fair slot dispatch,
	// per-tenant quotas, and observability labels ("" = "default"). Every
	// query can override it per call with photon.WithTenant(ctx, name).
	Tenant string
	// Tenants configures per-tenant weights and admission quotas, keyed
	// by tenant name. Tenants absent from the map run with defaults
	// (weight 1, no per-tenant quota). The map is read at NewSession and
	// must not be mutated afterwards.
	Tenants map[string]TenantConfig
	// QueryTimeout cancels each query after the given duration (0 = no
	// timeout). Cancellation takes effect at operator batch boundaries.
	QueryTimeout time.Duration
	// TaskMaxAttempts caps executions per task (primary + retries) when a
	// task fails transiently (classified I/O errors, injected faults).
	// Retries use full-jitter exponential backoff. 0 uses the scheduler
	// default (2: one retry).
	TaskMaxAttempts int

	// ---- Introspection (query flight recorder + system tables) ----

	// QueryHistorySize bounds the query flight recorder's ring buffer:
	// 0 = obs.DefaultHistorySize (1024) recent queries, negative = recorder
	// disabled (the system tables stay registered but empty). Each record
	// is a few hundred bytes, so the default bound is ~<1 MB per session.
	QueryHistorySize int
	// SlowQueryThreshold, when > 0, logs one structured slog line (query
	// id, normalized SQL, wall time, queue wait, peak memory, spilled
	// bytes, status) for every query whose wall time reaches it. Off by
	// default.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query records (nil = slog.Default()).
	SlowQueryLog *slog.Logger
}

// TenantConfig is one tenant's fair-share weight and admission quota.
type TenantConfig struct {
	// Weight is the tenant's fair share of executor slots under
	// contention: a weight-3 tenant receives ~3× the slot-seconds of a
	// weight-1 tenant when both have queued work (0 = 1). Idle tenants
	// cost nothing — dispatch is work-conserving.
	Weight int
	// MaxConcurrent caps the tenant's admitted, unfinished queries
	// (0 = bounded only by the session's MaxConcurrentQueries). An
	// over-quota query queues behind its own tenant without blocking
	// other tenants' admissions.
	MaxConcurrent int
	// MaxQueued bounds the tenant's admission queue: 0 = unbounded,
	// n > 0 = at most n queued queries (further arrivals get a
	// tenant-scoped ErrQueryRejected), negative = reject immediately at
	// the tenant's capacity.
	MaxQueued int
}

// tenantCtxKey keys the per-call tenant override in a context.
type tenantCtxKey struct{}

// WithTenant returns a context that attributes queries run under it to
// the named tenant, overriding Config.Tenant. It applies to every entry
// point taking a context: SQLContext, SQLContextStats,
// SQLWithProfileContext, and PreparedStatement.Execute.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext reports the tenant override installed by WithTenant.
func TenantFromContext(ctx context.Context) (string, bool) {
	if ctx == nil {
		return "", false
	}
	t, ok := ctx.Value(tenantCtxKey{}).(string)
	return t, ok && t != ""
}

// Session owns a catalog and executes queries. Sessions are safe for
// concurrent use: queries admitted through the session share one executor
// slot pool and the session memory limit, each inside its own per-query
// memory scope (see service.go).
type Session struct {
	cfg Config
	cat *catalog.Catalog
	mm  *mem.Manager

	// reg is the session's observability registry: memory, scheduler,
	// admission, shuffle, and query-lifecycle metrics all resolve on it.
	reg *obs.Registry
	svc *serviceMetrics

	// Concurrent query service state.
	gate     *admission
	pool     *sched.Pool
	poolOnce sync.Once

	// Prepare/bind/execute lifecycle state.
	id    int64        // session number, for memory-scope naming
	qseq  atomic.Int64 // per-session query counter
	cache *planCache   // nil when PlanCacheSize < 0
	fp    string       // planner-config fingerprint, folded into cache keys

	// rec is the query flight recorder (nil when QueryHistorySize < 0);
	// all its methods are nil-safe.
	rec *obs.Recorder
}

// NewSession creates a session with the given (optional) config.
func NewSession(cfg ...Config) *Session {
	var c Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	mm := mem.NewManager(c.MemoryLimit)
	reg := obs.NewRegistry()
	mm.Instrument(reg)
	gate := newAdmission(c, mm, reg)
	s := &Session{cfg: c, cat: catalog.New(), mm: mm, reg: reg, gate: gate}
	s.svc = newServiceMetrics(reg, gate)
	s.id = sessionSeq.Add(1)
	size := c.PlanCacheSize
	if size == 0 {
		size = DefaultPlanCacheSize
	}
	if size > 0 {
		s.cache = newPlanCache(size)
	}
	s.fp = s.fingerprintConfig()
	if c.QueryHistorySize >= 0 {
		s.rec = obs.NewRecorder(c.QueryHistorySize)
	}
	s.registerSystemTables()
	s.registerServingGauges()
	return s
}

// registerServingGauges binds the serving-surface gauges sampled at scrape
// time, so Prometheus and the photon_metrics system table agree with the
// plan cache and flight recorder.
func (s *Session) registerServingGauges() {
	s.reg.GaugeFunc("photon_plan_cache_entries",
		"Plan-cache entries (normalized query shapes) currently cached.",
		func() int64 { return int64(s.PlanCacheLen()) })
	s.reg.GaugeFunc("photon_query_history_size",
		"Completed queries retained in the flight recorder's ring buffer.",
		func() int64 { return int64(s.rec.Len()) })
	s.reg.GaugeFunc("photon_active_queries",
		"In-flight (submitted, unfinished) queries in the flight recorder.",
		func() int64 { return int64(s.rec.ActiveCount()) })
}

// QueryHistory returns the flight recorder's retained records, oldest
// first (empty when the recorder is disabled).
func (s *Session) QueryHistory() []obs.QueryRecord { return s.rec.Records() }

// ActiveQueries snapshots the in-flight queries (id, SQL, phase, live
// rows/bytes progress), ordered by arrival.
func (s *Session) ActiveQueries() []obs.ActiveInfo { return s.rec.Active() }

// Metrics returns the session's observability registry (always non-nil):
// live counters, gauges, and histograms covering scheduler slots, the
// admission queue, the unified memory manager, shuffle volume/encodings,
// and query lifecycle.
func (s *Session) Metrics() *obs.Registry { return s.reg }

// MetricsHandler returns an http.Handler serving the session's metrics:
// Prometheus text exposition by default, JSON when the request path ends in
// ".json" or the Accept header prefers application/json. Mount it wherever
// the application serves HTTP:
//
//	http.Handle("/metrics", sess.MetricsHandler())
func (s *Session) MetricsHandler() http.Handler { return s.reg.Handler() }

// Result is a fully materialized query result.
type Result struct {
	Schema *Schema
	Rows   [][]any
}

// String renders the result as an aligned table (capped for readability).
func (r *Result) String() string {
	var sb strings.Builder
	for i, f := range r.Schema.Fields {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(f.Name)
	}
	sb.WriteByte('\n')
	limit := min(len(r.Rows), 50)
	for _, row := range r.Rows[:limit] {
		for c, v := range row {
			if c > 0 {
				sb.WriteString(" | ")
			}
			if v == nil {
				sb.WriteString("NULL")
			} else if d, ok := v.(types.Decimal128); ok {
				sb.WriteString(types.FormatDecimal(d, r.Schema.Field(c).Type.Scale))
			} else if r.Schema.Field(c).Type.ID == types.Date {
				sb.WriteString(types.FormatDate(v.(int32)))
			} else if r.Schema.Field(c).Type.ID == types.Timestamp {
				sb.WriteString(types.FormatTimestamp(v.(int64)))
			} else {
				fmt.Fprintf(&sb, "%v", v)
			}
		}
		sb.WriteByte('\n')
	}
	if len(r.Rows) > limit {
		fmt.Fprintf(&sb, "... (%d rows total)\n", len(r.Rows))
	}
	return sb.String()
}

// NewSchema builds a schema.
func NewSchema(fields ...Field) *Schema { return types.NewSchema(fields...) }

// Col builds a nullable field.
func Col(name string, t DataType) Field { return Field{Name: name, Type: t, Nullable: true} }

// RegisterRows registers an in-memory table from materialized rows
// (nil = NULL). Rows that do not fit the schema are an error, and nothing
// is registered.
func (s *Session) RegisterRows(name string, schema *Schema, rows [][]any) error {
	batches, err := exec.PivotRows(schema, rows, vector.DefaultBatchSize)
	if err != nil {
		return fmt.Errorf("table %s: %w", name, err)
	}
	s.cat.Register(&catalog.MemTable{TableName: name, Sch: schema, Batches: batches})
	return nil
}

// RegisterBatches registers an in-memory table from column batches
// (zero-copy ingestion path). Registration hands the batches to the engine:
// the caller must not change them afterwards, and the engine may repoint a
// string column's rows at one packed copy of their payloads.
func (s *Session) RegisterBatches(name string, schema *Schema, batches []*Batch) {
	s.cat.Register(&catalog.MemTable{TableName: name, Sch: schema, Batches: batches})
}

// CreateDeltaTable creates a Delta table on disk and registers it.
func (s *Session) CreateDeltaTable(name, path string, schema *Schema) (*DeltaTable, error) {
	tbl, err := delta.Create(path, schema, nil)
	if err != nil {
		return nil, err
	}
	dt := &DeltaTable{sess: s, name: name, tbl: tbl}
	return dt, dt.refresh()
}

// OpenDeltaTable opens an existing Delta table at its latest snapshot and
// registers it.
func (s *Session) OpenDeltaTable(name, path string) (*DeltaTable, error) {
	tbl, err := delta.Open(path)
	if err != nil {
		return nil, err
	}
	dt := &DeltaTable{sess: s, name: name, tbl: tbl}
	return dt, dt.refresh()
}

// DeltaTable is a session-registered transactional table.
type DeltaTable struct {
	sess *Session
	name string
	tbl  *delta.Table
}

// AppendRows writes rows as a new file in one ACID commit. Rows that do not
// fit the table's schema are an error, and nothing is written.
func (d *DeltaTable) AppendRows(rows [][]any) error {
	snap, err := d.tbl.Snapshot(-1)
	if err != nil {
		return err
	}
	batches, err := exec.PivotRows(snap.Schema, rows, vector.DefaultBatchSize)
	if err != nil {
		return fmt.Errorf("table %s: %w", d.name, err)
	}
	if err := d.tbl.Append(batches, nil); err != nil {
		return err
	}
	return d.refresh()
}

// Overwrite replaces the table contents in one ACID commit. Rows that do not
// fit the table's schema are an error, and nothing is written.
func (d *DeltaTable) Overwrite(rows [][]any) error {
	snap, err := d.tbl.Snapshot(-1)
	if err != nil {
		return err
	}
	batches, err := exec.PivotRows(snap.Schema, rows, vector.DefaultBatchSize)
	if err != nil {
		return fmt.Errorf("table %s: %w", d.name, err)
	}
	if err := d.tbl.Overwrite(batches); err != nil {
		return err
	}
	return d.refresh()
}

// AsOf re-registers the table pinned to an historical version
// (time travel).
func (d *DeltaTable) AsOf(version int64) error {
	snap, err := d.tbl.Snapshot(version)
	if err != nil {
		return err
	}
	d.sess.cat.Register(&catalog.DeltaTable{TableName: d.name, Tbl: d.tbl, Snap: snap})
	return nil
}

// Version returns the currently registered snapshot version.
func (d *DeltaTable) Version() (int64, error) {
	snap, err := d.tbl.Snapshot(-1)
	if err != nil {
		return -1, err
	}
	return snap.Version, nil
}

// refresh re-registers the latest snapshot.
func (d *DeltaTable) refresh() error { return d.AsOf(-1) }

// plannerConfig lowers session config to the physical planner's.
func (s *Session) plannerConfig() catalyst.Config {
	cfg := catalyst.Config{Engine: s.cfg.Engine}
	if len(s.cfg.PhotonUnsupported) > 0 {
		cfg.PhotonUnsupported = map[string]bool{}
		for _, k := range s.cfg.PhotonUnsupported {
			cfg.PhotonUnsupported[strings.ToLower(k)] = true
		}
	}
	return cfg
}

// SQL executes a query and materializes the result. It is
// SQLContext(context.Background(), query): the query passes through the
// session's admission gate and runs inside its own memory scope.
func (s *Session) SQL(query string) (*Result, error) {
	return s.SQLContext(context.Background(), query)
}

// Explain renders the optimized logical plan.
func (s *Session) Explain(query string) (string, error) {
	plan, err := s.uncachedPlan(func() (*sql.SelectStmt, error) { return sql.Parse(query) })
	if err != nil {
		return "", err
	}
	return sql.ExplainPlan(plan), nil
}

// Tables lists registered table names.
func (s *Session) Tables() []string { return s.cat.Names() }

// ParseDate parses a "YYYY-MM-DD" literal into the DATE physical value
// (days since the Unix epoch).
func ParseDate(s string) (int32, error) { return types.ParseDate(s) }

// ParseTimestamp parses a SQL timestamp literal into microseconds since
// the Unix epoch.
func ParseTimestamp(s string) (int64, error) { return types.ParseTimestamp(s) }

// ParseDecimal parses a decimal literal at the given scale.
func ParseDecimal(s string, scale int) (types.Decimal128, error) {
	return types.ParseDecimal(s, scale)
}

// FormatDecimal renders a decimal value at the given scale.
func FormatDecimal(d types.Decimal128, scale int) string {
	return types.FormatDecimal(d, scale)
}

// Profile is the per-operator metrics report of one executed query — the
// vectorized model's observability story (§3.3): operator boundaries
// survive execution, so each operator reports its own rows, batches, time,
// spills, and peak memory, like the live metrics Photon feeds the Spark UI.
// Parallel queries report the distributed form: per-task metrics merged
// across each stage's tasks and stitched back into the query's shape at
// exchange boundaries (distributed EXPLAIN ANALYZE).
type Profile struct {
	Result *Result
	// Operators renders one line per operator, indented by plan depth; for
	// staged runs every line is the merge of that operator across the
	// stage's parallel tasks.
	Operators string
	// Plan is the structured profile behind Operators: per-stage merged
	// operator rows, shuffle volume, and §4.6 encoding decisions.
	Plan *driver.QueryProfile
	// Transitions counts engine-boundary nodes in the plan (§6.3).
	Transitions int
	// Lifecycle reports the query's service-level statistics: admission
	// wait, planning and running durations, slots held, and the peak of
	// its memory reservation scope.
	Lifecycle *QueryStats
	// Trace is the query's span tree (query → stage → task → operator).
	Trace *obs.Trace
}

// TraceJSON renders the query trace in Chrome trace-event JSON, loadable
// directly in chrome://tracing or https://ui.perfetto.dev.
func (p *Profile) TraceJSON() ([]byte, error) { return p.Trace.ChromeJSON() }

// BoundaryFraction reports the fraction of operator time spent crossing
// the row<->column engine boundary (Adapter/Transition nodes, §6.3).
func (p *Profile) BoundaryFraction() float64 {
	if p.Plan == nil {
		return 0
	}
	return p.Plan.BoundaryFraction()
}

// SQLWithProfile executes a query and returns the result along with
// per-operator metrics, merged per stage across its tasks. It is SQLWithProfileContext with a background
// context.
func (s *Session) SQLWithProfile(query string) (*Profile, error) {
	return s.SQLWithProfileContext(context.Background(), query)
}
