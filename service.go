package photon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/driver"
	"photon/internal/mem"
	"photon/internal/obs"
	"photon/internal/sched"
	"photon/internal/sql"
)

// This file is the session's concurrent-query service: Photon runs inside a
// multi-tenant service where many queries share executor task slots and a
// unified memory manager (§2.2, §5.3). A Session therefore admits queries
// through a configurable gate (max concurrency + minimum reservable
// memory, queue-or-reject), runs them on one shared executor slot pool
// with per-query cancellation/timeout, scopes each query's memory in a
// child reservation released atomically at query end, and reports
// lifecycle statistics (queued/planning/running durations, slots held,
// peak reserved bytes).
//
// Query lifecycle state machine:
//
//	submitted → queued → admitted → planning → running → done
//	                  ↘ rejected            ↘ failed  ↘ cancelled
//
// Cancellation (ctx cancel or QueryTimeout) takes effect at operator batch
// boundaries: a cancelled query stops within one batch, its memory quota
// is released in full, and its private shuffle/spill directory is removed.

// ErrQueryRejected is returned when admission control turns a query away
// (the gate is at capacity and the wait queue is full or disabled).
var ErrQueryRejected = errors.New("photon: query rejected by admission control")

// QueryStats is the per-query lifecycle report: the query's one record,
// which the flight recorder, the system tables, /debug/queries and the
// slow-query log read too.
type QueryStats = obs.QueryRecord

// queueMemFloor is the per-queued-query memory estimate when
// MinQueryMemory is unset, for the AdmissionQueueMemory bound.
const queueMemFloor = 1 << 20

// serviceTimeAlpha is the EWMA decay for the gate's service-time estimate
// (new = old*(1-1/8) + sample/8), the input to deadline-aware shedding.
const serviceTimeAlpha = 8

// tenantGate is one tenant's admission state: quota, live queue/running
// counts, and lifetime counters (all guarded by admission.mu; the obs
// counters are themselves atomic and resolved once per tenant).
type tenantGate struct {
	name          string
	weight        int
	maxConcurrent int // 0 = bounded only by the global cap
	maxQueued     int // 0 = unbounded, < 0 = reject at tenant capacity

	running int
	queued  int

	// Lifetime counters for photon_tenants and /debug.
	admitted, rejected, shed, degraded int64

	// Obs mirrors (nil-safe when the gate has no registry).
	queuedC, rejectedC, shedC *obs.Counter
}

// admission is the session's query gate: per-tenant FIFO queue-or-reject
// over global predicates (running-query count, minimum reservable memory,
// queue-memory bound) and per-tenant quotas (max concurrent, max queued).
// An over-quota tenant queues behind itself — its waiters never block
// another tenant's admission — and a query whose deadline cannot outlast
// the estimated queue wait is shed at admission instead of queued.
type admission struct {
	maxConcurrent int   // 0 = unlimited
	queueLimit    int   // 0 = unbounded queue, < 0 = reject at capacity
	queueMem      int64 // 0 = no queue-memory bound
	minMemory     int64 // 0 = no memory predicate
	mm            *mem.Manager
	reg           *obs.Registry
	tenantCfg     map[string]TenantConfig

	mu        sync.Mutex
	running   int
	queuedMem int64
	waiters   []*admitWaiter // global arrival (FIFO) order, tenant-tagged
	tenants   map[string]*tenantGate
	// avgServiceNanos is an EWMA of gate-hold durations (admit → release),
	// the per-query service-time estimate behind deadline shedding.
	avgServiceNanos int64
}

type admitWaiter struct {
	ready   chan struct{}
	granted bool
	tg      *tenantGate
	memEst  int64
}

func newAdmission(cfg Config, mm *mem.Manager, reg *obs.Registry) *admission {
	a := &admission{
		maxConcurrent: cfg.MaxConcurrentQueries,
		queueLimit:    cfg.AdmissionQueue,
		queueMem:      cfg.AdmissionQueueMemory,
		minMemory:     cfg.MinQueryMemory,
		mm:            mm,
		reg:           reg,
		tenantCfg:     cfg.Tenants,
		tenants:       map[string]*tenantGate{},
	}
	// Pre-create configured tenants so photon_tenants shows them (with
	// their weights and quotas) before any traffic arrives.
	for name := range cfg.Tenants {
		a.mu.Lock()
		a.tenantLocked(name)
		a.mu.Unlock()
	}
	return a
}

// tenantLocked returns the tenant's gate, creating it from config (or
// defaults) on first sight.
func (a *admission) tenantLocked(name string) *tenantGate {
	if name == "" {
		name = sched.DefaultTenant
	}
	tg := a.tenants[name]
	if tg != nil {
		return tg
	}
	tc := a.tenantCfg[name]
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	tg = &tenantGate{
		name: name, weight: tc.Weight,
		maxConcurrent: tc.MaxConcurrent, maxQueued: tc.MaxQueued,
	}
	if a.reg != nil {
		label := `{tenant="` + name + `"}`
		tg.queuedC = a.reg.Counter("photon_tenant_queued_total"+label,
			"Queries that waited in the admission queue, by tenant.")
		tg.rejectedC = a.reg.Counter("photon_tenant_rejected_total"+label,
			"Queries rejected by admission control, by tenant.")
		tg.shedC = a.reg.Counter("photon_tenant_shed_total"+label,
			"Queries shed at admission because their deadline could not outlast the estimated queue wait, by tenant.")
	}
	a.tenants[name] = tg
	return tg
}

// canAdmitLocked evaluates the global predicates plus tg's quota.
func (a *admission) canAdmitLocked(tg *tenantGate) bool {
	if a.maxConcurrent > 0 && a.running >= a.maxConcurrent {
		return false
	}
	if tg.maxConcurrent > 0 && tg.running >= tg.maxConcurrent {
		return false
	}
	if a.minMemory > 0 && a.mm.Available() < a.minMemory {
		return false
	}
	return true
}

// estWaitLocked estimates how long a newly queued query of tg would wait:
// the EWMA service time × the number of admission "waves" ahead of it
// under whichever cap (global or tenant) binds tighter. Deliberately
// coarse — it only needs to be right enough that a query with a 10 ms
// deadline behind a minute of queue is shed instead of parked.
func (a *admission) estWaitLocked(tg *tenantGate) time.Duration {
	avg := time.Duration(atomic.LoadInt64(&a.avgServiceNanos))
	if avg <= 0 {
		return 0 // no history yet: never shed on a cold gate
	}
	slots, ahead := 0, 0
	if a.maxConcurrent > 0 {
		slots, ahead = a.maxConcurrent, len(a.waiters)
	}
	if tg.maxConcurrent > 0 && (slots == 0 || tg.maxConcurrent < slots) {
		slots, ahead = tg.maxConcurrent, tg.queued
	}
	if slots <= 0 {
		return 0
	}
	return avg * time.Duration(ahead/slots+1)
}

// noteServiceTime folds one gate-hold duration into the EWMA.
func (a *admission) noteServiceTime(d time.Duration) {
	for {
		old := atomic.LoadInt64(&a.avgServiceNanos)
		var next int64
		if old == 0 {
			next = d.Nanoseconds()
		} else {
			next = old - old/serviceTimeAlpha + d.Nanoseconds()/serviceTimeAlpha
		}
		if atomic.CompareAndSwapInt64(&a.avgServiceNanos, old, next) {
			return
		}
	}
}

// admit blocks until the query is admitted, admission sheds or rejects
// it, or ctx is done. Per-tenant FIFO: later arrivals of one tenant never
// overtake its earlier waiters, but an eligible tenant is never blocked
// by another tenant's over-quota queue.
func (a *admission) admit(ctx context.Context, tenant string) (*tenantGate, error) {
	// Fast-fail: a context already cancelled or past its deadline never
	// enters the queue — no waiter allocation, no wakeup, classified as
	// cancelled/timeout (never rejected).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	tg := a.tenantLocked(tenant)
	if tg.queued == 0 && a.canAdmitLocked(tg) {
		a.running++
		tg.running++
		tg.admitted++
		a.mu.Unlock()
		return tg, nil
	}

	// Cannot run now. Shed before queueing when the deadline cannot
	// outlast the estimated wait: a cheap fast-fail that burns no slot.
	if dl, ok := ctx.Deadline(); ok {
		if est := a.estWaitLocked(tg); est > 0 && time.Now().Add(est).After(dl) {
			tg.shed++
			tg.shedC.Inc()
			a.mu.Unlock()
			return nil, fmt.Errorf("photon: tenant %q query shed at admission: estimated queue wait %s exceeds the deadline: %w",
				tg.name, est.Round(time.Millisecond), context.DeadlineExceeded)
		}
	}

	// Queue-or-reject: the global queue bounds (count and memory), then
	// the tenant's own queue bound.
	reject := func(format string, args ...any) (*tenantGate, error) {
		tg.rejected++
		tg.rejectedC.Inc()
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: "+format, append([]any{ErrQueryRejected}, args...)...)
	}
	if a.queueLimit < 0 {
		return reject("at capacity (%d running), queueing disabled", a.maxConcurrent)
	}
	if a.queueLimit > 0 && len(a.waiters) >= a.queueLimit {
		return reject("at capacity (%d running), queue full (%d waiting)", a.maxConcurrent, a.queueLimit)
	}
	memEst := a.minMemory
	if memEst <= 0 {
		memEst = queueMemFloor
	}
	if a.queueMem > 0 && a.queuedMem+memEst > a.queueMem {
		return reject("admission queue memory bound reached (%d of %d bytes queued)", a.queuedMem, a.queueMem)
	}
	if tg.maxQueued < 0 {
		return reject("tenant %q at capacity (%d running), queueing disabled for tenant", tg.name, tg.running)
	}
	if tg.maxQueued > 0 && tg.queued >= tg.maxQueued {
		return reject("tenant %q at capacity (%d running), tenant queue full (%d waiting)", tg.name, tg.running, tg.queued)
	}

	w := &admitWaiter{ready: make(chan struct{}), tg: tg, memEst: memEst}
	a.waiters = append(a.waiters, w)
	tg.queued++
	a.queuedMem += memEst
	tg.queuedC.Inc()
	a.mu.Unlock()

	select {
	case <-w.ready:
		return tg, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Admission raced with cancellation: give the grant back.
			a.releaseLocked(tg)
			a.mu.Unlock()
			return nil, ctx.Err()
		}
		for i, q := range a.waiters {
			if q == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				break
			}
		}
		tg.queued--
		a.queuedMem -= w.memEst
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release frees one admission of tg and wakes eligible waiters. Called
// after the query's memory quota is released, so the memory predicate is
// re-evaluated against up-to-date availability. held is the gate-hold
// duration, folded into the shedding estimator (pass 0 to skip).
func (a *admission) release(tg *tenantGate, held time.Duration) {
	if held > 0 {
		a.noteServiceTime(held)
	}
	a.mu.Lock()
	a.releaseLocked(tg)
	a.mu.Unlock()
}

func (a *admission) releaseLocked(tg *tenantGate) {
	a.running--
	tg.running--
	a.wakeLocked()
}

// wakeLocked grants every currently eligible waiter in global FIFO order.
// A waiter whose tenant is at quota is skipped without blocking later
// waiters of other tenants (per-tenant head-of-line only).
func (a *admission) wakeLocked() {
	for i := 0; i < len(a.waiters); {
		w := a.waiters[i]
		if !a.canAdmitLocked(w.tg) {
			i++
			continue
		}
		a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
		a.running++
		w.tg.running++
		w.tg.admitted++
		w.tg.queued--
		a.queuedMem -= w.memEst
		w.granted = true
		close(w.ready)
	}
}

// Running reports the number of admitted, unfinished queries.
func (a *admission) Running() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running
}

// Queued reports the number of queries waiting in the admission queue.
func (a *admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// TenantAdmission is a point-in-time snapshot of one tenant's gate state,
// the admission half of the photon_tenants system table.
type TenantAdmission struct {
	Name          string
	Weight        int
	MaxConcurrent int
	MaxQueued     int
	Running       int
	Queued        int
	Admitted      int64
	Rejected      int64
	Shed          int64
	Degraded      int64
}

// tenantSnapshot lists every tenant the gate has seen, sorted by name.
func (a *admission) tenantSnapshot() []TenantAdmission {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TenantAdmission, 0, len(a.tenants))
	for _, tg := range a.tenants {
		out = append(out, TenantAdmission{
			Name: tg.name, Weight: tg.weight,
			MaxConcurrent: tg.maxConcurrent, MaxQueued: tg.maxQueued,
			Running: tg.running, Queued: tg.queued,
			Admitted: tg.admitted, Rejected: tg.rejected,
			Shed: tg.shed, Degraded: tg.degraded,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// noteDegraded counts one degraded admission for tg (nil-safe).
func (a *admission) noteDegraded(tg *tenantGate) {
	if tg == nil {
		return
	}
	a.mu.Lock()
	tg.degraded++
	a.mu.Unlock()
}

// serviceMetrics is the session's query-lifecycle metric bundle: the
// admission gate and the lifecycle state machine report into it, and two
// gauge functions sample the gate live at scrape time.
type serviceMetrics struct {
	AdmitWaitMicros *obs.Histogram
	// Planning time is split by plan-cache outcome: a hit is bind-only
	// (deep copy + value substitution), a miss pays the full compile.
	PlanMicrosHit  *obs.Histogram
	PlanMicrosMiss *obs.Histogram
	RunMicros      *obs.Histogram

	Queries   *obs.Counter
	Admitted  *obs.Counter
	Rejected  *obs.Counter
	Succeeded *obs.Counter
	Failed    *obs.Counter
	Degraded  *obs.Counter

	CacheHits          *obs.Counter
	CacheMisses        *obs.Counter
	CacheEvictions     *obs.Counter
	CacheInvalidations *obs.Counter
	FastPathQueries    *obs.Counter
}

// newServiceMetrics registers the photon_query_* / photon_admission_*
// metric family on r and binds the gate's live gauges.
func newServiceMetrics(r *obs.Registry, gate *admission) *serviceMetrics {
	m := &serviceMetrics{
		AdmitWaitMicros: r.Histogram("photon_query_admit_wait_micros",
			"Time queries spent waiting in the admission gate (microseconds)."),
		PlanMicrosHit: r.Histogram(`photon_query_plan_micros{result="hit"}`,
			"Planning duration per query served from the plan cache (microseconds)."),
		PlanMicrosMiss: r.Histogram(`photon_query_plan_micros{result="miss"}`,
			"Planning duration per query compiled from scratch (microseconds)."),
		RunMicros: r.Histogram("photon_query_run_micros",
			"Execution duration per query (microseconds)."),
		Queries: r.Counter("photon_queries_total",
			"Queries submitted to the session."),
		Admitted: r.Counter("photon_queries_admitted_total",
			"Queries admitted past the gate."),
		Rejected: r.Counter("photon_queries_rejected_total",
			"Queries rejected by admission control."),
		Succeeded: r.Counter("photon_queries_succeeded_total",
			"Queries that completed successfully."),
		Failed: r.Counter("photon_queries_failed_total",
			"Queries that failed, were cancelled, or timed out (post-admission)."),
		Degraded: r.Counter("photon_queries_degraded_total",
			"Queries admitted under memory pressure with a shrunken (spill-first) grant."),
		CacheHits: r.Counter("photon_plan_cache_hits_total",
			"Queries whose compile phase was served from the plan cache."),
		CacheMisses: r.Counter("photon_plan_cache_misses_total",
			"Queries that compiled from scratch (cold shape, stale entry, or unbindable values)."),
		CacheEvictions: r.Counter("photon_plan_cache_evictions_total",
			"Plan-cache entries evicted by the LRU capacity bound."),
		CacheInvalidations: r.Counter("photon_plan_cache_invalidations_total",
			"Plan-cache entries dropped because the catalog generation moved (snapshot refresh)."),
		FastPathQueries: r.Counter("photon_fastpath_queries_total",
			"Queries executed on the small-query fast path."),
	}
	r.GaugeFunc("photon_queries_running",
		"Admitted, unfinished queries right now.",
		func() int64 { return int64(gate.Running()) })
	r.GaugeFunc("photon_admission_queued",
		"Queries currently waiting in the admission queue.",
		func() int64 { return int64(gate.Queued()) })
	return m
}

// slotPool lazily creates the session's shared executor slot pool (all
// concurrent queries of the session draw tasks from it), instrumented on
// the session registry.
func (s *Session) slotPool() *sched.Pool {
	s.poolOnce.Do(func() {
		s.pool = sched.NewPool(s.cfg.Parallelism)
		if s.cfg.TaskMaxAttempts > 0 {
			s.pool.SetOptions(sched.PoolOptions{MaxAttempts: s.cfg.TaskMaxAttempts})
		}
		s.pool.Instrument(s.reg)
	})
	return s.pool
}

// sessionSeq numbers sessions process-wide; combined with the session's
// own query counter it names per-query memory scopes uniquely ("s3q17")
// even when several sessions share a process.
var sessionSeq atomic.Int64

// resolveTenant picks the query's tenant identity: the WithTenant context
// override wins, then Config.Tenant, then the shared default.
func (s *Session) resolveTenant(ctx context.Context) string {
	if t, ok := TenantFromContext(ctx); ok {
		return t
	}
	if s.cfg.Tenant != "" {
		return s.cfg.Tenant
	}
	return sched.DefaultTenant
}

// SQLContext executes a query under ctx with admission control, a
// per-query timeout (Config.QueryTimeout), per-query memory scoping, and
// cancellation honored at operator batch boundaries.
func (s *Session) SQLContext(ctx context.Context, query string) (*Result, error) {
	res, _, err := s.SQLContextStats(ctx, query)
	return res, err
}

// SQLContextStats is SQLContext returning the query's lifecycle
// statistics. Stats are valid (for the phases reached) even when the query
// fails, is rejected, or is cancelled.
func (s *Session) SQLContextStats(ctx context.Context, query string) (*Result, *QueryStats, error) {
	p, err := s.run(ctx, query, parser(query), nil)
	return p.Result, p.Lifecycle, err
}

// SQLWithProfileContext executes a query through the full service
// lifecycle (admission, timeout, per-query memory) and returns per-operator
// metrics plus the lifecycle stats and span trace. With Parallelism > 1 the
// profile is the distributed EXPLAIN ANALYZE: each operator row is the
// merge of that operator across its stage's tasks, and producer stages are
// stitched back in under the exchange reads that consume them.
func (s *Session) SQLWithProfileContext(ctx context.Context, query string) (*Profile, error) {
	p, err := s.run(ctx, query, parser(query), obs.NewTrace())
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// parser parses query afresh on every call, as bindQuery's parse must.
func parser(query string) func() (*sql.SelectStmt, error) {
	return func() (*sql.SelectStmt, error) { return sql.Parse(query) }
}

// run is the one query lifecycle behind every entry point: admission →
// compile and bind (plan cache) → running → record, with timeout, a
// per-query memory scope (released atomically), and stats and the flight
// record filed on every exit path. parse must return a pristine AST per
// call. The returned profile's Lifecycle holds the stats of the phases
// reached, and its Result is nil when the query failed; it is a value, so
// a run no one profiles allocates none. A non-nil trace makes the run
// profiled: it records the span tree and renders Operators.
func (s *Session) run(ctx context.Context, text string, parse func() (*sql.SelectStmt, error), trace *obs.Trace) (Profile, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	// State: queued. The flight recorder tracks the record from submission;
	// aq is nil (and every use no-ops) when the recorder is disabled.
	rec := &QueryStats{SQL: text, Tenant: s.resolveTenant(ctx), Submit: time.Now()}
	p := Profile{Lifecycle: rec}
	aq := s.rec.Begin(rec)
	s.svc.Queries.Inc()
	tg, err := s.gate.admit(ctx, rec.Tenant)
	if err != nil {
		rec.Done = time.Now()
		if errors.Is(err, ErrQueryRejected) {
			s.svc.Rejected.Inc()
		}
		s.finish(aq, rec, err)
		return p, err
	}
	rec.Admitted = time.Now()
	// Admission released only after the memory quota is returned, so the
	// gate's memory predicate sees up-to-date availability; the hold
	// duration feeds the deadline-shedding service-time estimate.
	defer func() { s.gate.release(tg, time.Since(rec.Admitted)) }()
	s.svc.AdmitWaitMicros.Observe(rec.QueueWait().Microseconds())
	s.svc.Admitted.Inc()

	// State: planning — the compile phase (served bind-only on a plan-cache
	// hit) followed by value binding.
	aq.SetPhase(obs.PhasePlanning)
	bq, err := s.bindQuery(parse)
	rec.Planned = time.Now()
	if bq != nil && bq.norm != "" {
		rec.SQL = bq.norm
	}
	if bq != nil && bq.cached {
		s.svc.PlanMicrosHit.Observe(rec.PlanTime().Microseconds())
	} else {
		s.svc.PlanMicrosMiss.Observe(rec.PlanTime().Microseconds())
	}
	if err != nil {
		rec.Done = rec.Planned
		s.svc.Failed.Inc()
		s.finish(aq, rec, err)
		return p, err
	}
	rec.Cached, rec.FastPath = bq.cached, bq.fastPath
	if bq.fastPath {
		s.svc.FastPathQueries.Inc()
	}
	// Pin virtual-table scans (system tables) to a point-in-time snapshot:
	// the bound plan is private, so leaf mutation cannot leak into the plan
	// cache, and every task of this query sees identical data.
	pinVirtualScans(bq.plan)

	// State: running, inside a per-query memory scope. Close releases the
	// query's whole remaining quota atomically — including after
	// cancellation or failure.
	aq.SetPhase(obs.PhaseRunning)
	qm := s.mm.Child(fmt.Sprintf("s%dq%d", s.id, s.qseq.Add(1)))
	defer qm.Close()
	// Graceful degradation: under memory pressure (less than a quarter of
	// the session limit unreserved), shrink this query's grant to its fair
	// share — floored at MinQueryMemory — so it spills toward the floor
	// instead of failing or forcing siblings out. Advisory: the soft limit
	// never fails a reservation.
	if s.mm.Limited() {
		if avail := s.mm.Available(); avail < s.mm.Limit()/4 {
			running := int64(s.gate.Running())
			if running < 1 {
				running = 1
			}
			grant := avail / running
			if grant < s.cfg.MinQueryMemory {
				grant = s.cfg.MinQueryMemory
			}
			if grant > 0 {
				qm.SetSoftLimit(grant)
				rec.Degraded = true
				s.svc.Degraded.Inc()
				s.gate.noteDegraded(tg)
			}
		}
	}
	var progress func(rows, bytes int64)
	if aq != nil {
		progress = aq.Progress
	}
	var rs driver.RunStats
	rows, schema, err := driver.Run(ctx, bq.plan, driver.Options{
		Progress:      progress,
		Parallelism:   s.cfg.Parallelism,
		ShuffleDir:    s.cfg.SpillDir,
		Mem:           qm,
		Config:        s.plannerConfig(),
		BroadcastRows: s.cfg.BroadcastRows,
		Pool:          s.slotPool(),
		Stats:         &rs,
		Metrics:       s.reg,
		Trace:         trace,
		SharedVectors: true,
		FastPath:      bq.fastPath,
		Tenant:        rec.Tenant,
		TenantWeight:  tg.weight,
	})
	rec.Done = time.Now()
	s.svc.RunMicros.Observe(rec.RunTime().Microseconds())
	rec.PeakMemBytes, rec.SpilledBytes = qm.PeakBytes(), qm.SpilledBytes
	rec.SlotsHeldPeak, rec.StageCount = rs.SlotsHeldPeak, rs.Stages
	if err != nil {
		s.svc.Failed.Inc()
	} else {
		s.svc.Succeeded.Inc()
		rec.Rows = int64(len(rows))
		p.Result = &Result{Schema: schema, Rows: rows}
		p.Plan, p.Transitions = rs.Profile, rs.Transitions
		rec.Stages = make([]obs.StageSummary, 0, len(rs.Profile.Stages))
		for i := range rs.Profile.Stages {
			st := &rs.Profile.Stages[i]
			rec.ShuffleBytes += st.ShuffleBytes
			rec.ShuffleRows += st.ShuffleRows
			rec.Retries += st.Retries
			rec.Speculated += st.Speculated
			rec.Recovered += st.Recovered
			var rows int64
			if len(st.Ops) > 0 {
				rows = st.Ops[0].RowsOut
			}
			rec.Stages = append(rec.Stages, obs.StageSummary{
				ID: st.ID, Label: st.Label, Tasks: st.TasksRun,
				WallMicros: st.WallNanos / 1000, Rows: rows,
				ShuffleRows: st.ShuffleRows,
			})
		}
		if trace != nil {
			p.Operators, p.Trace = routeHeader(rec)+rs.Profile.Render(), trace
		}
	}
	s.finish(aq, rec, err)
	return p, err
}

// routeHeader is the EXPLAIN ANALYZE line naming a query's route, empty
// when it compiled and ran staged.
func routeHeader(rec *QueryStats) string {
	switch {
	case rec.Cached && rec.FastPath:
		return "Plan: cached fast-path\n"
	case rec.Cached:
		return "Plan: cached\n"
	case rec.FastPath:
		return "Plan: fast-path\n"
	}
	return ""
}

// queryStatus classifies a lifecycle exit for the flight record and the
// labeled latency series.
func queryStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrQueryRejected):
		return "rejected"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	default:
		return "failed"
	}
}

// finish closes out a query on every exit path, once its Done is read:
// it feeds the labeled run-latency histograms, files the flight record
// (the recorder is written only here, never on the per-batch hot path),
// and emits the slow-query log line when configured.
func (s *Session) finish(aq *obs.ActiveQuery, rec *QueryStats, err error) {
	rec.Status = queryStatus(err)
	if err != nil {
		rec.Error = err.Error()
	}
	if rec.Status != "rejected" {
		for _, h := range s.runHistograms(rec) {
			h.Observe(rec.RunTime().Microseconds())
		}
	}
	s.rec.End(aq)
	if thr := s.cfg.SlowQueryThreshold; thr > 0 && rec.Status != "rejected" && rec.Wall() >= thr {
		lg := s.cfg.SlowQueryLog
		if lg == nil {
			lg = slog.Default()
		}
		lg.Warn("photon slow query",
			"query_id", rec.ID,
			"tenant", rec.Tenant,
			"sql", rec.SQL,
			"wall", rec.Wall(),
			"queue_wait", rec.QueueWait(),
			"peak_mem_bytes", rec.PeakMemBytes,
			"spilled_bytes", rec.SpilledBytes,
			"status", rec.Status)
	}
}

// runKey names one query's pair of labeled run-latency series.
type runKey struct {
	cached, fastPath bool
	status, tenant   string
}

// runHistograms returns the query's labeled run-latency series: by
// plan-cache outcome, fast-path routing and status, and by tenant (a
// family of its own, so tenants do not multiply the first family's
// series). Each pair is resolved once; later queries look it up without
// building its names.
func (s *Session) runHistograms(rec *QueryStats) [2]*obs.Histogram {
	key := runKey{rec.Cached, rec.FastPath, rec.Status, rec.Tenant}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	h, ok := s.runHists[key]
	if !ok {
		h = [2]*obs.Histogram{
			s.reg.Histogram(`photon_query_run_micros{cached="`+strconv.FormatBool(rec.Cached)+
				`",fastpath="`+strconv.FormatBool(rec.FastPath)+`",status="`+rec.Status+`"}`,
				"Execution duration per query by plan-cache outcome, fast-path routing, and completion status (microseconds)."),
			s.reg.Histogram(`photon_tenant_run_micros{tenant="`+rec.Tenant+`"}`,
				"Execution duration per query by tenant (microseconds)."),
		}
		s.runHists[key] = h
	}
	return h
}
