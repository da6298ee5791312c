package photon

import (
	"photon/internal/catalog"
	"photon/internal/exec"
	"photon/internal/obs"
	"photon/internal/sql"
	"photon/internal/types"
)

// SQL-queryable system tables: the session registers four virtual tables
// backed by the flight recorder, the admission gate, the slot pool, and
// the metrics registry, so diagnostics run through the engine's own
// scan/filter/aggregate path —
//
//	SELECT status, count(*), max(wall_micros) FROM photon_queries GROUP BY status
//	SELECT * FROM photon_active_queries
//	SELECT tenant, running, queued, slot_seconds FROM photon_tenants
//	SELECT name, p99 FROM photon_metrics WHERE kind = 'histogram'
//
// Each virtual table materializes a point-in-time snapshot; the bind phase
// pins that snapshot into the bound plan (pinVirtualScans), so every task
// of one query sees identical data even while the recorder keeps moving.

// column is one column of a system table over the flight recorder: its
// schema field and how to read its value from one row's source. A nil
// value is SQL NULL, so only a nullable column may return one.
type column[T any] struct {
	types.Field
	val func(*T) any
}

// col is a non-nullable column.
func col[T any](name string, typ types.DataType, val func(*T) any) column[T] {
	return column[T]{types.Field{Name: name, Type: typ}, val}
}

// queryColumns are photon_queries' columns, one per line, read from the
// query's record; /debug/queries shows the same list. A new per-query
// field is a QueryRecord field and one line here.
var queryColumns = []column[obs.QueryRecord]{
	col("id", types.Int64Type, func(r *obs.QueryRecord) any { return r.ID }),
	col("sql", types.StringType, func(r *obs.QueryRecord) any { return r.SQL }),
	col("tenant", types.StringType, func(r *obs.QueryRecord) any { return r.Tenant }),
	col("status", types.StringType, func(r *obs.QueryRecord) any { return r.Status }),
	{types.Field{Name: "error", Type: types.StringType, Nullable: true}, func(r *obs.QueryRecord) any {
		if r.Error == "" {
			return nil
		}
		return r.Error
	}},
	col("cached", types.BoolType, func(r *obs.QueryRecord) any { return r.Cached }),
	col("fastpath", types.BoolType, func(r *obs.QueryRecord) any { return r.FastPath }),
	col("submit", types.TimestampType, func(r *obs.QueryRecord) any { return r.Submit.UnixMicro() }),
	col("queue_wait_micros", types.Int64Type, func(r *obs.QueryRecord) any { return r.QueueWait().Microseconds() }),
	col("plan_micros", types.Int64Type, func(r *obs.QueryRecord) any { return r.PlanTime().Microseconds() }),
	col("run_micros", types.Int64Type, func(r *obs.QueryRecord) any { return r.RunTime().Microseconds() }),
	col("wall_micros", types.Int64Type, func(r *obs.QueryRecord) any { return r.Wall().Microseconds() }),
	col("rows", types.Int64Type, func(r *obs.QueryRecord) any { return r.Rows }),
	col("peak_mem_bytes", types.Int64Type, func(r *obs.QueryRecord) any { return r.PeakMemBytes }),
	col("spilled_bytes", types.Int64Type, func(r *obs.QueryRecord) any { return r.SpilledBytes }),
	col("shuffle_bytes", types.Int64Type, func(r *obs.QueryRecord) any { return r.ShuffleBytes }),
	col("shuffle_rows", types.Int64Type, func(r *obs.QueryRecord) any { return r.ShuffleRows }),
	col("stages", types.Int64Type, func(r *obs.QueryRecord) any { return int64(len(r.Stages)) }),
	col("retries", types.Int64Type, func(r *obs.QueryRecord) any { return r.Retries }),
	col("speculated", types.Int64Type, func(r *obs.QueryRecord) any { return r.Speculated }),
	col("recovered", types.Int64Type, func(r *obs.QueryRecord) any { return r.Recovered }),
}

// activeColumns are photon_active_queries' columns, read from a snapshot
// of one in-flight query; /debug/queries shows the same list.
var activeColumns = []column[obs.ActiveInfo]{
	col("id", types.Int64Type, func(a *obs.ActiveInfo) any { return a.ID }),
	col("sql", types.StringType, func(a *obs.ActiveInfo) any { return a.SQL }),
	col("tenant", types.StringType, func(a *obs.ActiveInfo) any { return a.Tenant }),
	col("phase", types.StringType, func(a *obs.ActiveInfo) any { return a.Phase.String() }),
	col("submit", types.TimestampType, func(a *obs.ActiveInfo) any { return a.Submit.UnixMicro() }),
	col("elapsed_micros", types.Int64Type, func(a *obs.ActiveInfo) any { return a.Elapsed.Microseconds() }),
	col("rows", types.Int64Type, func(a *obs.ActiveInfo) any { return a.Rows }),
	col("bytes", types.Int64Type, func(a *obs.ActiveInfo) any { return a.Bytes }),
}

// schemaOf is a column list's table schema.
func schemaOf[T any](cols []column[T]) *types.Schema {
	fields := make([]types.Field, len(cols))
	for i, c := range cols {
		fields[i] = c.Field
	}
	return types.NewSchema(fields...)
}

// rowsOf reads every column of each source into one row.
func rowsOf[T any](cols []column[T], srcs []T) [][]any {
	rows := make([][]any, len(srcs))
	for i := range srcs {
		rows[i] = make([]any, len(cols))
		for j, c := range cols {
			rows[i][j] = c.val(&srcs[i])
		}
	}
	return rows
}

var (
	queriesSchema = schemaOf(queryColumns)
	activeSchema  = schemaOf(activeColumns)
)

var tenantsSchema = types.NewSchema(
	types.Field{Name: "tenant", Type: types.StringType},
	types.Field{Name: "weight", Type: types.Int64Type},
	types.Field{Name: "max_concurrent", Type: types.Int64Type},
	types.Field{Name: "max_queued", Type: types.Int64Type},
	types.Field{Name: "running", Type: types.Int64Type},
	types.Field{Name: "queued", Type: types.Int64Type},
	types.Field{Name: "admitted", Type: types.Int64Type},
	types.Field{Name: "rejected", Type: types.Int64Type},
	types.Field{Name: "shed", Type: types.Int64Type},
	types.Field{Name: "degraded", Type: types.Int64Type},
	types.Field{Name: "slot_seconds", Type: types.Float64Type},
)

var metricsSchema = types.NewSchema(
	types.Field{Name: "name", Type: types.StringType},
	types.Field{Name: "kind", Type: types.StringType},
	types.Field{Name: "value", Type: types.Int64Type, Nullable: true},
	types.Field{Name: "count", Type: types.Int64Type, Nullable: true},
	types.Field{Name: "sum", Type: types.Int64Type, Nullable: true},
	types.Field{Name: "p50", Type: types.Float64Type, Nullable: true},
	types.Field{Name: "p95", Type: types.Float64Type, Nullable: true},
	types.Field{Name: "p99", Type: types.Float64Type, Nullable: true},
)

// registerSystemTables installs the photon_* virtual tables in the
// session catalog. They stay registered (and just scan empty) when the
// recorder is disabled.
func (s *Session) registerSystemTables() {
	rec, reg := s.rec, s.reg
	s.cat.Register(&catalog.VirtualTable{
		TableName: "photon_queries",
		Sch:       queriesSchema,
		Batches: exec.VirtualSource(queriesSchema, func() [][]any {
			return rowsOf(queryColumns, rec.Records())
		}),
		EstRows: func() int64 { return int64(rec.Len()) },
	})
	s.cat.Register(&catalog.VirtualTable{
		TableName: "photon_active_queries",
		Sch:       activeSchema,
		Batches: exec.VirtualSource(activeSchema, func() [][]any {
			return rowsOf(activeColumns, rec.Active())
		}),
		EstRows: func() int64 { return int64(rec.ActiveCount()) },
	})
	s.cat.Register(&catalog.VirtualTable{
		TableName: "photon_tenants",
		Sch:       tenantsSchema,
		Batches: exec.VirtualSource(tenantsSchema, func() [][]any {
			// Admission-side state (quotas, queue, lifetime counters) joined
			// with the slot pool's slot-second integrals by tenant name.
			slotSecs := map[string]float64{}
			for _, u := range s.slotPool().TenantUsages() {
				slotSecs[u.Name] = u.SlotSeconds
			}
			snap := s.gate.tenantSnapshot()
			rows := make([][]any, 0, len(snap))
			for _, t := range snap {
				rows = append(rows, []any{
					t.Name, int64(t.Weight),
					int64(t.MaxConcurrent), int64(t.MaxQueued),
					int64(t.Running), int64(t.Queued),
					t.Admitted, t.Rejected, t.Shed, t.Degraded,
					slotSecs[t.Name],
				})
			}
			return rows
		}),
		EstRows: func() int64 { return 4 },
	})
	s.cat.Register(&catalog.VirtualTable{
		TableName: "photon_metrics",
		Sch:       metricsSchema,
		Batches: exec.VirtualSource(metricsSchema, func() [][]any {
			snaps := reg.Export()
			rows := make([][]any, 0, len(snaps))
			for _, m := range snaps {
				if m.Kind == "histogram" {
					rows = append(rows, []any{
						m.Name, m.Kind, nil, m.Count, m.Sum, m.P50, m.P95, m.P99,
					})
				} else {
					rows = append(rows, []any{
						m.Name, m.Kind, m.Value, nil, nil, nil, nil, nil,
					})
				}
			}
			return rows
		}),
		EstRows: func() int64 { return int64(len(reg.Names())) },
	})
}

// pinVirtualScans replaces every virtual-table scan leaf in a bound plan
// with a one-shot MemTable snapshot, so all tasks of the query — including
// partitioned parallel scans — read identical data. The bound plan is
// always private (fresh compile or deep-copied cache hit), so mutating the
// leaf is safe.
func pinVirtualScans(plan sql.LogicalPlan) {
	if scan, ok := plan.(*sql.LScan); ok {
		if vt, ok := scan.Table.(*catalog.VirtualTable); ok {
			scan.Table = vt.Snapshot()
		}
		return
	}
	for _, c := range plan.Children() {
		pinVirtualScans(c)
	}
}
