package photon

import (
	"time"

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

var queriesSchema = types.NewSchema(
	types.Field{Name: "id", Type: types.Int64Type},
	types.Field{Name: "sql", Type: types.StringType},
	types.Field{Name: "tenant", Type: types.StringType},
	types.Field{Name: "status", Type: types.StringType},
	types.Field{Name: "error", Type: types.StringType, Nullable: true},
	types.Field{Name: "cached", Type: types.BoolType},
	types.Field{Name: "fastpath", Type: types.BoolType},
	types.Field{Name: "submit", Type: types.TimestampType},
	types.Field{Name: "queue_wait_micros", Type: types.Int64Type},
	types.Field{Name: "plan_micros", Type: types.Int64Type},
	types.Field{Name: "run_micros", Type: types.Int64Type},
	types.Field{Name: "wall_micros", Type: types.Int64Type},
	types.Field{Name: "rows", Type: types.Int64Type},
	types.Field{Name: "peak_mem_bytes", Type: types.Int64Type},
	types.Field{Name: "spilled_bytes", Type: types.Int64Type},
	types.Field{Name: "shuffle_bytes", Type: types.Int64Type},
	types.Field{Name: "shuffle_rows", Type: types.Int64Type},
	types.Field{Name: "stages", Type: types.Int64Type},
	types.Field{Name: "retries", Type: types.Int64Type},
	types.Field{Name: "speculated", Type: types.Int64Type},
	types.Field{Name: "recovered", Type: types.Int64Type},
)

var activeSchema = types.NewSchema(
	types.Field{Name: "id", Type: types.Int64Type},
	types.Field{Name: "sql", Type: types.StringType},
	types.Field{Name: "tenant", Type: types.StringType},
	types.Field{Name: "phase", Type: types.StringType},
	types.Field{Name: "submit", Type: types.TimestampType},
	types.Field{Name: "elapsed_micros", Type: types.Int64Type},
	types.Field{Name: "rows", Type: types.Int64Type},
	types.Field{Name: "bytes", Type: types.Int64Type},
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
			records := rec.Records()
			rows := make([][]any, 0, len(records))
			for i := range records {
				rows = append(rows, queryRow(&records[i]))
			}
			return rows
		}),
		EstRows: func() int64 { return int64(rec.Len()) },
	})
	s.cat.Register(&catalog.VirtualTable{
		TableName: "photon_active_queries",
		Sch:       activeSchema,
		Batches: exec.VirtualSource(activeSchema, func() [][]any {
			now := time.Now()
			active := rec.Active()
			rows := make([][]any, 0, len(active))
			for _, a := range active {
				rows = append(rows, []any{
					a.ID, a.SQL, a.Tenant, a.Name, a.Submit.UnixMicro(),
					now.Sub(a.Submit).Microseconds(), a.Rows, a.Bytes,
				})
			}
			return rows
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

// queryRow flattens one flight record into a photon_queries row.
func queryRow(r *obs.QueryRecord) []any {
	var errv any
	if r.Error != "" {
		errv = r.Error
	}
	return []any{
		r.ID, r.SQL, r.Tenant, r.Status, errv, r.Cached, r.FastPath,
		r.Submit.UnixMicro(),
		r.QueueWait().Microseconds(), r.PlanTime().Microseconds(),
		r.RunTime().Microseconds(), r.Wall().Microseconds(),
		r.Rows, r.PeakMemBytes, r.SpilledBytes,
		r.ShuffleBytes, r.ShuffleRows,
		int64(len(r.Stages)), r.Retries, r.Speculated, r.Recovered,
	}
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
