// Package driver runs optimized logical plans on the cluster substrate:
// the driver node plans stages (§2.2/§2.3), launches parallel tasks that
// evaluate scan→filter→join pipelines and partial aggregation per data
// partition, exchanges rows through the shuffle layer with adaptive
// encodings, and finishes on the driver (gather, k-way merge, limit).
// Stage boundaries are blocking, so per-stage shuffle statistics are
// available for adaptive decisions (AQE partition coalescing, §5.5).
package driver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/exec"
	"photon/internal/expr"
	"photon/internal/mem"
	"photon/internal/obs"
	"photon/internal/rf"
	"photon/internal/sched"
	"photon/internal/shuffle"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/types"
	"photon/internal/vector"
)

// Options configure a distributed run.
type Options struct {
	Parallelism int
	ShuffleDir  string
	Mem         *mem.Manager
	Config      catalyst.Config
	// BroadcastRows is the broadcast-join build-side ceiling passed to the
	// stage planner (0 = default, negative = never broadcast).
	BroadcastRows int64
	// Pool is the executor slot pool shared by concurrent queries; nil
	// uses a private pool of Parallelism slots (single-query behavior).
	Pool *sched.Pool
	// Tenant labels this run's slot usage for the pool's weighted-fair
	// dispatch ("" = sched.DefaultTenant); TenantWeight is the tenant's
	// fair-share weight (<= 0 = 1).
	Tenant       string
	TenantWeight int
	// Stats, when non-nil, receives the query's run statistics, including
	// the merged distributed EXPLAIN ANALYZE profile.
	Stats *RunStats
	// Metrics, when non-nil, is the observability registry the run's
	// shuffle readers and writers report into (volume and §4.6 encoding
	// decisions). Scheduler-pool and memory metrics attach at session
	// level, not per run.
	Metrics *obs.Registry
	// Trace, when non-nil, records the query's span tree
	// (query → stage → task → operator) for Chrome trace-event export.
	Trace *obs.Trace
	// SharedVectors marks table vectors as shared across concurrent
	// queries/tasks: per-vector metadata caches are computed per call
	// instead of written back. Required whenever two queries can touch
	// the same registered tables concurrently.
	SharedVectors bool
	// Progress, when non-nil, receives batch-boundary (rows, bytes) deltas
	// from every running task — the live feed behind the session's in-flight
	// query registry. It must be cheap and concurrency-safe (atomic adds);
	// it is called from task goroutines.
	Progress func(rows, bytes int64)

	// FastPath requests small-query execution: no stage planning, so the
	// whole plan runs as a one-fragment job — one task on one pool slot.
	// Callers set it only for plans the compile phase classified as
	// single-fragment with input fitting one task.
	FastPath bool

	// dir is the run's private spill/shuffle directory under ShuffleDir,
	// made by the first file written into it (set by Run).
	dir *shuffle.QueryDir

	// testTaskStart, when non-nil, runs at the start of every non-recovery
	// task attempt with the fragment, task ID, and the job. Test-only seam
	// for corruption-injection fixtures: write the job's exchange store out
	// (Spill), then damage the files once a consumer starts; drop a runtime
	// filter between a map task's run and its lineage re-run.
	testTaskStart func(f *catalyst.Fragment, taskID int, j *stagedJob)
	// testNoRuntimeFilters plans stages without runtime filters, for tests
	// whose exchange and operator counts must not depend on how soon a
	// filter arrives.
	testNoRuntimeFilters bool
}

// RunStats reports one query run's scheduling footprint and profile.
type RunStats struct {
	// SlotsHeldPeak is the maximum number of executor slots held at once.
	SlotsHeldPeak int
	// Stages is the number of scheduler stages the query planned (1 for a
	// one-fragment job).
	Stages int
	// Profile is the merged distributed EXPLAIN ANALYZE profile: per-task
	// operator metrics merged across each stage's tasks and stitched back
	// into the query's shape at exchange boundaries.
	Profile *QueryProfile
	// Transitions counts column-to-row engine boundary nodes in the physical
	// plan (§6.3). Staged fragments are pure Photon, so only a one-fragment
	// job over a hybrid plan has any.
	Transitions int
}

// newTaskCtx builds a task context with the exec and expr defaults; ctx is
// the query context operators observe at batch boundaries.
func (o *Options) newTaskCtx(ctx context.Context) *exec.TaskCtx {
	tc := exec.NewTaskCtx(o.Mem, 0)
	tc.Ctx = ctx
	tc.MakeSpillDir = o.dir.Ensure
	tc.Expr.SharedVectors = o.SharedVectors
	return tc
}

// shuffleSeq numbers exchanges process-wide so concurrent queries sharing a
// shuffle directory never collide (replacing the old pointer-formatted ID).
var shuffleSeq atomic.Int64

// nextExchangeID returns a process-unique shuffle identifier.
func nextExchangeID() string {
	return fmt.Sprintf("x%d", shuffleSeq.Add(1))
}

// Run executes the plan under ctx as a job of stages on the (possibly
// shared) slot pool. With Parallelism > 1, a pure-Photon config and no
// FastPath request, the stage planner decomposes the plan into an exchange
// DAG whose stages run as parallel tasks. Otherwise — and for plans the
// stage planner cannot split — the job is one fragment: the whole plan in
// one task, which may hold row-engine parts behind an adapter.
//
// A run's spill and shuffle files go into a private per-query directory,
// made when the first of them is and removed before Run returns — success,
// error, or cancellation — so no query can leak shuffle or spill files, and
// a query that writes none makes no directory.
func Run(ctx context.Context, plan sql.LogicalPlan, opts Options) ([][]any, *types.Schema, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if reg := opts.Metrics; reg != nil {
		// Once per data file a scan finishes with, never per batch.
		opts.Config.OnScanIO = func(read, decoded int64) {
			reg.Counter("photon_scan_read_bytes_total",
				"Bytes Delta scans read from data files: footers and the projected chunks of unpruned row groups.").Add(read)
			reg.Counter("photon_scan_decoded_bytes_total",
				"Bytes those chunks held once decompressed.").Add(decoded)
		}
	}
	opts.dir = shuffle.NewQueryDir(opts.ShuffleDir)
	// Guaranteed cleanup on every exit path (cancel, error, success).
	defer opts.dir.Remove()
	return runJob(ctx, planJob(plan, opts), opts)
}

// planJob picks the fragment DAG a query runs as. Only pure-Photon configs
// stage: a fragment's tasks have no row-engine fallback.
func planJob(plan sql.LogicalPlan, opts Options) *catalyst.Fragment {
	staged := opts.Parallelism > 1 && !opts.FastPath && opts.Config.Engine == catalyst.EnginePhoton
	for _, v := range opts.Config.PhotonUnsupported {
		staged = staged && !v
	}
	if staged {
		frag, err := catalyst.PlanStages(plan, catalyst.StageConfig{
			Parallelism:    opts.Parallelism,
			BroadcastRows:  opts.BroadcastRows,
			RuntimeFilters: !opts.testNoRuntimeFilters,
		})
		if err == nil {
			return frag
		}
		// Unstageable shape (interior sort or limit): one fragment.
	}
	return &catalyst.Fragment{Root: plan, Out: catalyst.ExchangeGather, TailLimit: -1}
}

// notePoolMetrics folds a finished task's batch-pool hit/miss counts into
// the registry (the pool itself is task-local and lock-free).
func notePoolMetrics(reg *obs.Registry, tc *exec.TaskCtx) {
	if tc.Pool == nil {
		return
	}
	reg.Counter("photon_mem_pool_hits_total",
		"Batch pool hits: Get served by a recycled batch.").Add(tc.Pool.Hits)
	reg.Counter("photon_mem_pool_misses_total",
		"Batch pool misses: Get allocated a fresh batch.").Add(tc.Pool.Misses)
}

// noteDec64Metrics folds a finished task's narrow-decimal dispatch counts
// into the registry, split by the path each decimal batch took.
func noteDec64Metrics(reg *obs.Registry, e *expr.Ctx) {
	const help = "Batches of a raw decimal sum/avg aggregate or a decimal cast, by execution path: int64 fast path (dec64), 128-bit kernels (dec128), or mid-batch overflow escape."
	if e.Dec64Batches > 0 {
		reg.Counter(`photon_decimal_fastpath_batches_total{path="dec64"}`, help).Add(e.Dec64Batches)
	}
	if e.Dec128Batches > 0 {
		reg.Counter(`photon_decimal_fastpath_batches_total{path="dec128"}`, help).Add(e.Dec128Batches)
	}
	if e.Dec64Escapes > 0 {
		reg.Counter(`photon_decimal_fastpath_batches_total{path="escape"}`, help).Add(e.Dec64Escapes)
	}
}

// rfCounters are the runtime-filter observability handles (no-ops when the
// run is uninstrumented — a nil registry returns nil-safe handles).
type rfCounters struct {
	built, applied, rowsPruned *obs.Counter
}

func newRFCounters(reg *obs.Registry) rfCounters {
	return rfCounters{
		built: reg.Counter("photon_runtime_filter_built_total",
			"Runtime filters built and published by join build stages."),
		applied: reg.Counter("photon_runtime_filter_applied_total",
			"Runtime filter applications by consuming probe-side tasks."),
		rowsPruned: reg.Counter("photon_runtime_filter_rows_pruned_total",
			"Probe-side rows dropped by runtime filters."),
	}
}

// emitTaskTrace records one task's span plus per-operator sub-slices. The
// engine's operator timers mix self and inclusive time (a Filter times only
// its own work; a Sort's consume loop includes its child), so operator
// slices share the task's start and nest by duration inside the task span —
// an attribution approximation, not an exact timeline.
func emitTaskTrace(tr *obs.Trace, tid int64, name string, start time.Time, wall time.Duration, snaps []OpProfile) {
	tr.Span(name, "task", tid, start, wall, nil)
	for _, s := range snaps {
		d := time.Duration(s.TimeNanos)
		if d > wall {
			d = wall
		}
		tr.Span(s.Name, "operator", tid, start, d, map[string]any{
			"rowsIn": s.RowsIn, "rowsOut": s.RowsOut, "batches": s.BatchesOut,
		})
	}
}

// stageInfo pairs a plan fragment with its scheduler stage and the
// exchange state that crosses its boundaries.
type stageInfo struct {
	frag   *catalyst.Fragment
	stage  *sched.Stage
	schema *types.Schema // fragment output schema, resolved at plan time

	// Producer side: this fragment's shuffle output.
	exID     string
	rowsMu   sync.Mutex
	partRows []int64 // rows per hash partition; a broadcast writes partition 0

	// Consumer side: which hash partitions each task reads, derived from
	// the input stages' row statistics once they complete (AQE §5.5).
	assignOnce  sync.Once
	assignments [][]int

	// Profile accumulation across the stage's committed tasks (distributed
	// EXPLAIN ANALYZE, fold): the stage's profile, its tasks' wall-clock
	// envelope, and the engine boundary nodes in one task's plan (identical
	// across tasks).
	profMu              sync.Mutex
	prof                StageProfile
	firstStart, lastEnd time.Time
	transitions         int

	// Commit-once guard: with speculative duplicates, exactly one attempt
	// of each task may publish its output (atomic shuffle rename, gather
	// results, profile accumulation). commitMu serializes the publish
	// critical section per task; done marks the task committed.
	commitMu []sync.Mutex
	done     []bool

	// Lineage recovery: recMu serializes producer re-runs per map task so
	// concurrent consumers repairing the same output do the work once;
	// recAttempts bounds repeated repairs; recGen counts completed repairs
	// per map task (consumers that failed before a repair landed skip the
	// redundant re-run); recovered counts successful re-runs of this stage's
	// map tasks (EXPLAIN ANALYZE).
	recMu       []sync.Mutex
	recAttempts []int
	recGen      []atomic.Int64 // written under recMu, read lock-free
	recovered   atomic.Int64
}

// fold adds one committed task to the stage's profile: its operator rows,
// wall-clock envelope and engine boundary count, its output exchange's
// totals (w is nil when it has none) and its narrow-decimal tallies. It
// returns the rows the task's runtime filters dropped.
func (si *stageInfo) fold(ops []OpProfile, start, end time.Time, tc *exec.TaskCtx, w *shuffle.Writer) (rfPruned int64) {
	si.profMu.Lock()
	defer si.profMu.Unlock()
	sp := &si.prof
	pipeOps := 0
	for i := range ops {
		o := &ops[i]
		if o.Fused > 0 {
			pipeOps += o.Fused
			sp.PipelineBatches += o.BatchesOut
			sp.PipelineRows += o.RowsOut
		}
		if strings.HasPrefix(o.Name, "RuntimeFilter(") {
			rfPruned += o.RowsIn - o.RowsOut
		}
	}
	sp.PipelineOps = max(sp.PipelineOps, pipeOps)
	sp.RFRowsPruned += rfPruned
	sp.Ops = mergeSnapshots(sp.Ops, ops)
	sp.TasksRun++
	si.transitions = tc.Transitions
	if si.firstStart.IsZero() || start.Before(si.firstStart) {
		si.firstStart = start
	}
	if end.After(si.lastEnd) {
		si.lastEnd = end
	}
	if w != nil {
		sp.ShuffleRawBytes += w.RawBytes
		sp.ShuffleBytes += w.Bytes
		sp.ShuffleRows += w.Rows
		sp.ShuffleMemRows += w.MemRows
		for i, n := range w.EncCounts {
			sp.EncCounts[i] += n
		}
	}
	sp.Dec64Batches += tc.Expr.Dec64Batches
	sp.Dec64Escapes += tc.Expr.Dec64Escapes
	return rfPruned
}

// stagedJob lowers a fragment DAG onto the scheduler.
type stagedJob struct {
	opts Options
	par  int
	// store holds the exchange output that is not in files; what is goes
	// under opts.dir.
	store *shuffle.Store

	stages map[*catalyst.Fragment]*stageInfo
	// byExID addresses producer stages by their shuffle/broadcast exchange
	// ID — the lineage lookup for corrupt-block recovery.
	byExID map[string]*stageInfo

	// sm mirrors shuffle reader/writer volume into the metrics registry
	// (nil when the run is uninstrumented).
	sm *shuffle.Metrics

	// rfReg collects runtime filters published by build stages; probe-side
	// tasks resolve filters from it at plan-build time (their stages are
	// scheduled after every producer, so lookups see complete filters).
	rfReg *rf.Registry
	rfc   rfCounters

	// Root gather output.
	results [][]*vector.Batch
}

// runJob executes the fragment DAG: the one path every query runs on.
func runJob(ctx context.Context, root *catalyst.Fragment, opts Options) ([][]any, *types.Schema, error) {
	if opts.Mem == nil {
		opts.Mem = mem.NewManager(0)
	}
	j := &stagedJob{
		opts:   opts,
		par:    opts.Parallelism,
		stages: map[*catalyst.Fragment]*stageInfo{},
	}
	rootInfo := j.stageFor(root)
	// Every task has returned when the job has: nothing reads the store then.
	defer j.store.Close()
	j.results = make([][]*vector.Batch, rootInfo.stage.NumTasks)

	var drv *sched.Driver
	if opts.Pool != nil {
		drv = sched.NewDriverOnPool(opts.Pool)
	} else {
		drv = sched.NewDriver(j.par)
	}
	drv.Tenant, drv.TenantWeight = opts.Tenant, opts.TenantWeight
	jobStart := time.Now()
	jobStats, err := drv.RunJobStats(ctx, rootInfo.stage)
	if opts.Stats != nil {
		*opts.Stats = RunStats{SlotsHeldPeak: jobStats.SlotsHeldPeak, Stages: len(j.stages)}
		if err == nil {
			opts.Stats.Profile = j.buildProfile(root)
			for _, si := range j.stages {
				opts.Stats.Transitions += si.transitions
			}
		}
	}
	if opts.Trace != nil {
		j.emitStageSpans(opts.Trace)
	}
	if err != nil {
		return nil, nil, err
	}

	// Driver tail: merge ordered per-task runs or concatenate, then apply
	// the global limit. Traced as the driver's own span.
	tailStart := time.Now()
	if opts.Trace != nil {
		defer func() {
			tid := opts.Trace.NextTID()
			opts.Trace.NameThread(tid, "driver")
			opts.Trace.Span("job", "driver", tid, jobStart, time.Since(jobStart),
				map[string]any{"stages": len(j.stages)})
			opts.Trace.Span("gather/merge", "driver", tid, tailStart, time.Since(tailStart), nil)
		}()
	}
	schema := root.Root.Schema()
	if len(root.MergeKeys) > 0 {
		rows, err := exec.MergeSortedRuns(ctx, j.results, execSortKeys(root.MergeKeys), root.TailLimit)
		if err != nil {
			return nil, nil, err
		}
		return rows, schema, nil
	}
	var rows [][]any
	for _, bs := range j.results {
		for _, b := range bs {
			rows = append(rows, b.Rows()...)
		}
	}
	if root.TailLimit >= 0 && int64(len(rows)) > root.TailLimit {
		rows = rows[:root.TailLimit]
	}
	return rows, schema, nil
}

// stageFor memoizes the scheduler stage for a fragment, wiring exchange
// dependencies. Task counts are static: fragments with a partitioned scan
// or a hash-exchange input run Parallelism tasks (hash readers with fewer
// coalesced partition groups than tasks no-op the excess); pure broadcast
// builds and constant fragments run one task.
func (j *stagedJob) stageFor(f *catalyst.Fragment) *stageInfo {
	if si, ok := j.stages[f]; ok {
		return si
	}
	si := &stageInfo{frag: f}
	// Resolve every lazily-memoized logical schema on this single-threaded
	// planning path: tasks of a stage share the fragment's plan nodes, and
	// concurrent first calls to Schema() would race on the memo writes.
	warmSchemas(f.Root)
	si.schema = f.Root.Schema()
	if f.Out == catalyst.ExchangeHash || f.Out == catalyst.ExchangeBroadcast {
		si.partRows = make([]int64, j.par)
	}
	j.stages[f] = si

	// Dependencies: exchange inputs plus runtime-filter producers (the
	// latter are usually already exchange inputs; deduplicate). The driver
	// runs stages in dependency order, so every filter a task consults is
	// complete before the task plans.
	var deps []*sched.Stage
	depSeen := map[*catalyst.Fragment]bool{}
	for _, in := range append(append([]*catalyst.Fragment(nil), f.Inputs...), f.RFInputs...) {
		if depSeen[in] {
			continue
		}
		depSeen[in] = true
		deps = append(deps, j.stageFor(in).stage)
	}
	numTasks := 1
	if f.PartitionedScan || f.ReadsHash {
		numTasks = j.par
	}
	// Exchange and runtime-filter state is made for the first fragment that
	// needs it, so a one-fragment job makes none.
	if f.RFKeys != nil {
		if j.rfReg == nil {
			j.rfReg, j.rfc = rf.NewRegistry(), newRFCounters(j.opts.Metrics)
		}
		j.rfReg.Expect(f.ID, numTasks)
	}
	if f.Out != catalyst.ExchangeGather {
		if j.store == nil {
			j.sm = shuffle.NewMetrics(j.opts.Metrics)
			j.store = shuffle.NewStore(j.opts.dir, j.opts.Mem, shuffle.EncoderOptions{Adaptive: true}, j.sm)
			j.byExID = map[string]*stageInfo{}
		}
		si.exID = nextExchangeID()
		j.byExID[si.exID] = si
		si.recMu = make([]sync.Mutex, numTasks)
		si.recAttempts = make([]int, numTasks)
		si.recGen = make([]atomic.Int64, numTasks)
	}
	si.commitMu = make([]sync.Mutex, numTasks)
	si.done = make([]bool, numTasks)
	si.prof = StageProfile{ID: f.ID, Label: f.Label(), Out: f.Out.String(), TasksPlanned: numTasks}
	si.stage = &sched.Stage{
		Name:     fmt.Sprintf("stage-%d-%s", f.ID, f.Out),
		NumTasks: numTasks,
		Deps:     deps,
		Run:      func(ctx context.Context, taskID int) error { return j.runTaskRecover(ctx, si, taskID) },
	}
	return si
}

// runTaskRecover runs one task attempt and, when the attempt fails because a
// consumed shuffle/broadcast block is corrupt or missing, performs lineage
// recovery: re-run the *producing* map task to republish the lost output,
// then surface a retryable error so the scheduler re-runs this consumer with
// a fresh operator tree (§2.2 task retry on top of lineage, the classic
// "recompute the lost partition" path).
func (j *stagedJob) runTaskRecover(ctx context.Context, si *stageInfo, taskID int) error {
	snap := j.snapshotRecovery()
	err := j.runTask(ctx, si, taskID, false)
	var cbe *shuffle.CorruptBlockError
	if err == nil || !errors.As(err, &cbe) {
		return err
	}
	if rerr := j.recoverProducer(ctx, cbe, snap, 0); rerr != nil {
		return fmt.Errorf("driver: unrecoverable shuffle corruption: %w (recovery: %v)", err, rerr)
	}
	// Producer output republished; retry this consumer from scratch.
	return sched.Retryable(err)
}

// recSnapshot records each producer stage's per-map-task repair generation at
// the moment a consumer attempt starts. If the consumer later reports a
// corrupt block whose map task was repaired *after* the snapshot, the corrupt
// read raced an in-flight repair and the re-run is skipped — the retry will
// read the already-republished files. Without this, N consumers of one lost
// output would burn N of its bounded repair attempts on identical re-runs.
type recSnapshot map[*stageInfo][]int64

func (j *stagedJob) snapshotRecovery() recSnapshot {
	snap := make(recSnapshot, len(j.byExID))
	for _, pi := range j.byExID {
		gens := make([]int64, len(pi.recGen))
		for m := range pi.recGen {
			gens[m] = pi.recGen[m].Load()
		}
		snap[pi] = gens
	}
	return snap
}

// Lineage-recovery bounds: how deep a corrupt-block chain may recurse (a
// producer re-run can itself hit a corrupt input from *its* producer) and how
// often one map task's output may be repaired before we give up.
const (
	maxRecoveryDepth    = 4
	maxRecoveryAttempts = 3
)

// recoverProducer re-runs the map task that produced a corrupt/missing
// shuffle block, addressed by (exchange ID, map task) lineage. Re-runs are
// serialized per map task so concurrent consumers of the same lost output
// repair it once; recovery-mode runs republish shuffle files but skip every
// stats/profile/filter side effect (the original attempt already counted).
func (j *stagedJob) recoverProducer(ctx context.Context, cbe *shuffle.CorruptBlockError, snap recSnapshot, depth int) error {
	pi, ok := j.byExID[cbe.ShuffleID]
	if !ok {
		return fmt.Errorf("driver: no producer stage for shuffle %s", cbe.ShuffleID)
	}
	if cbe.MapTask < 0 || cbe.MapTask >= len(pi.recMu) {
		return fmt.Errorf("driver: map task %d out of range for shuffle %s", cbe.MapTask, cbe.ShuffleID)
	}
	pi.recMu[cbe.MapTask].Lock()
	defer pi.recMu[cbe.MapTask].Unlock()
	if gens, ok := snap[pi]; ok && cbe.MapTask < len(gens) && pi.recGen[cbe.MapTask].Load() > gens[cbe.MapTask] {
		// Another consumer already repaired this map task after our attempt
		// began: the corrupt read raced the repair. Skip the redundant re-run
		// and let the caller retry against the republished files.
		return nil
	}
	for {
		if pi.recAttempts[cbe.MapTask] >= maxRecoveryAttempts {
			return fmt.Errorf("driver: map task %d of shuffle %s failed recovery %d times",
				cbe.MapTask, cbe.ShuffleID, maxRecoveryAttempts)
		}
		pi.recAttempts[cbe.MapTask]++
		err := j.runTask(ctx, pi, cbe.MapTask, true)
		if err == nil {
			pi.recGen[cbe.MapTask].Add(1)
			pi.recovered.Add(1)
			if j.sm != nil {
				j.sm.BlocksRecovered.Inc()
			}
			return nil
		}
		// The producer's own inputs may be corrupt too: recurse up the
		// lineage, then retry this level.
		var nested *shuffle.CorruptBlockError
		if errors.As(err, &nested) && depth < maxRecoveryDepth {
			if rerr := j.recoverProducer(ctx, nested, snap, depth+1); rerr != nil {
				return rerr
			}
			continue
		}
		if sched.IsRetryable(err) && ctx.Err() == nil {
			continue
		}
		return err
	}
}

// warmSchemas forces schema resolution over a whole plan tree. Several
// logical nodes memoize Schema() lazily; warming them before tasks launch
// keeps the shared plan read-only during parallel execution.
func warmSchemas(n sql.LogicalPlan) {
	if n == nil {
		return
	}
	n.Schema()
	for _, c := range n.Children() {
		warmSchemas(c)
	}
}

// rows returns the exact number of rows the finished stage wrote to the
// given partitions (a broadcast writes partition 0).
func (si *stageInfo) rows(parts []int) int64 {
	si.rowsMu.Lock()
	defer si.rowsMu.Unlock()
	var n int64
	for _, p := range parts {
		n += si.partRows[p]
	}
	return n
}

// assignmentsFor lazily computes the consumer's partition groups from the
// *summed* row statistics of all its hash inputs — a shuffle join must
// coalesce both sides identically so partition i of the probe side meets
// partition i of the build side in one task. Input stages have completed
// (blocking boundaries), so the statistics are final.
func (j *stagedJob) assignmentsFor(si *stageInfo) [][]int {
	si.assignOnce.Do(func() {
		sum := make([]int64, j.par)
		for _, in := range si.frag.Inputs {
			if in.Out != catalyst.ExchangeHash {
				continue
			}
			pi := j.stages[in]
			pi.rowsMu.Lock()
			for p, n := range pi.partRows {
				sum[p] += n
			}
			pi.rowsMu.Unlock()
		}
		si.assignments = coalescePartitions(sum)
	})
	return si.assignments
}

// runTask executes one task of a stage: build the fragment's operator tree
// (exchange leaves resolve to this task's shuffle/broadcast readers), then
// dispose of the output per the fragment's exchange kind. ctx is the job's
// (or this attempt's) context: operators observe it at batch boundaries, so
// a cancelled query or losing speculative twin stops within one batch. After
// a successful run the task snapshots its operator metrics into the stage's
// merged profile and emits its trace row.
//
// With speculative duplicates, two attempts of the same task can race to
// this function's tail; the per-task commit guard admits exactly one
// publisher (shuffle rename, gather results, profile/filter side effects) —
// the loser aborts its staged files and returns success without counting.
//
// recovery marks a lineage-recovery re-run: it republishes the task's
// shuffle output unconditionally (overwriting the corrupt files) and skips
// every stats, trace, filter, and result side effect, because the original
// committed attempt already produced them.
func (j *stagedJob) runTask(ctx context.Context, si *stageInfo, taskID int, recovery bool) error {
	f := si.frag
	if h := j.opts.testTaskStart; h != nil && !recovery {
		h(f, taskID, j)
	}

	var parts []int // hash partitions this task consumes
	if f.ReadsHash {
		asg := j.assignmentsFor(si)
		if taskID >= len(asg) {
			// Coalescing produced fewer groups than the static task count.
			// A coalesced-away producer task still counts toward its runtime
			// filter's completeness (it contributes no rows).
			if f.RFKeys != nil && !recovery {
				j.rfReg.Publish(f.ID, taskID, nil)
			}
			// Committed map outputs are the reader's integrity invariant —
			// a missing one means lost data. So even a no-op task publishes
			// an (empty) output for its exchange.
			if f.Out == catalyst.ExchangeHash || f.Out == catalyst.ExchangeBroadcast {
				if err := j.publishEmpty(si, taskID, recovery); err != nil {
					return err
				}
			}
			if tr := j.opts.Trace; tr != nil && !recovery {
				tr.Instant(fmt.Sprintf("stage-%d/task-%d coalesced away", f.ID, taskID),
					"task", 0, time.Now(), nil)
			}
			return nil
		}
		parts = asg[taskID]
	}

	cfg := j.opts.Config
	if f.PartitionedScan && si.stage.NumTasks > 1 {
		cfg.ScanPartitions = si.stage.NumTasks
		cfg.ScanPartition = taskID
	}

	// Runtime-filter consumer wiring: resolve published filters for this
	// fragment's RuntimeFilterPlan nodes. Producer stages completed before
	// this task was scheduled, so lookups are final; a nil resolution
	// (dropped filter) degrades to a pass-through.
	if len(f.RFInputs) > 0 {
		cfg.RuntimeFilterSource = func(id int) *rf.Filter {
			flt := j.rfReg.Filter(id)
			if flt.Usable() {
				j.rfc.applied.Inc()
			}
			return flt
		}
	}
	tc := j.opts.newTaskCtx(ctx)
	// The tasks of a job share in-memory table batches read-only; a job of
	// one task keeps the caller's choice.
	if len(j.stages) > 1 || si.stage.NumTasks > 1 {
		tc.Expr.SharedVectors = true
	}
	// Feed batch-boundary progress to the scheduler's straggler detector
	// (the attempt context carries the per-task progress sink) and, when
	// set, the caller's live-query registry.
	if p := sched.ProgressFromContext(ctx); p != nil {
		if ext := j.opts.Progress; ext != nil {
			report := p.Report
			tc.Progress = func(rows, bytes int64) {
				report(rows, bytes)
				ext(rows, bytes)
			}
		} else {
			tc.Progress = p.Report
		}
	} else {
		tc.Progress = j.opts.Progress
	}

	cfg.ExchangeSource = func(er *catalyst.ExchangeRead) (exec.Operator, error) {
		in := er.Frag
		pi, ok := j.stages[in]
		if !ok {
			return nil, fmt.Errorf("driver: exchange read of unplanned stage %d", in.ID)
		}
		schema := pi.schema
		mapTasks := pi.stage.NumTasks
		if er.Broadcast {
			name := fmt.Sprintf("BroadcastRead(stage=%d)", in.ID)
			op := exec.NewBroadcastRead(name, schema, func() ([]exec.ShuffleSource, error) {
				r := j.store.NewBroadcastReader(pi.exID, mapTasks, schema)
				r.Ctx = ctx
				return []exec.ShuffleSource{r}, nil
			})
			op.Stats().SetUpstream(in.ID)
			op.SetRows(pi.rows([]int{0}))
			return op, nil
		}
		name := fmt.Sprintf("ShuffleRead(stage=%d)", in.ID)
		myParts := parts
		op := exec.NewShuffleRead(name, schema, func() ([]exec.ShuffleSource, error) {
			srcs := make([]exec.ShuffleSource, 0, len(myParts))
			for _, p := range myParts {
				r := j.store.NewReader(pi.exID, mapTasks, p, schema)
				r.Ctx = ctx
				srcs = append(srcs, r)
			}
			return srcs, nil
		})
		op.Stats().SetUpstream(in.ID)
		op.SetRows(pi.rows(myParts))
		return op, nil
	}

	op, err := catalyst.BuildOperator(f.Root, cfg, tc)
	if err != nil {
		return err
	}

	// Runtime-filter producer wiring: a RuntimeFilterBuild step folds the
	// build stage's output into a per-task partial filter, published once
	// the task drains successfully.
	// Every task sizes from the same RFExpectRows estimate so the partial
	// Blooms union word-for-word.
	var built *rf.Filter
	if f.RFKeys != nil {
		keyTypes := make([]types.DataType, len(f.RFKeys))
		for i, c := range f.RFKeys {
			keyTypes[i] = si.schema.Field(c).Type
		}
		built = rf.NewFilter(keyTypes, f.RFExpectRows)
		op = exec.NewRuntimeFilterBuild(op, f.RFKeys, built)
	}

	// Wrap the output exchange (if any) so the whole per-task tree —
	// including the ShuffleWrite sink — is profiled and traced uniformly.
	// Writers keep an attempt's output private — batches of their own, temp
	// files — and only a committing attempt publishes it (store entry, atomic
	// rename); every other exit path — error, cancellation, losing a
	// speculative race — aborts it, so duplicate attempts never clobber a
	// committed twin.
	var root exec.Operator = op
	var w *shuffle.Writer
	committed := false
	defer func() {
		if w != nil && !committed {
			w.Abort()
		}
	}()
	switch f.Out {
	case catalyst.ExchangeHash:
		w = j.store.NewWriter(si.exID, taskID, j.par)
		w.Ctx = ctx
		var split exec.PartitionFunc
		if len(f.HashCols) > 0 {
			split = shuffle.NewPartitioner(j.par, f.HashCols).Split
		}
		// nil split: keyless aggregation — every row reduces in partition 0.
		root = exec.NewShuffleWrite(op, w, split)
	case catalyst.ExchangeBroadcast:
		w = j.store.NewBroadcastWriter(si.exID, taskID)
		w.Ctx = ctx
		root = exec.NewShuffleWrite(op, w, nil)
	}

	// Stable pre-order IDs: every task of the stage builds the identical
	// tree, so IDs are the cross-task merge key.
	exec.AssignStatsIDs(root)
	start := time.Now()
	var batches []*vector.Batch
	if f.Out == catalyst.ExchangeGather {
		batches, err = exec.CollectAll(root, tc)
		if err != nil {
			return err
		}
	} else if err := exec.Drain(root, tc); err != nil {
		return err
	}
	end := time.Now()

	if recovery {
		// Lineage re-run: republish the shuffle output over the lost or
		// corrupt one and nothing else — the original committed attempt already
		// produced the stats, filters, and results.
		if w != nil {
			if err := w.Commit(); err != nil {
				return err
			}
			committed = true
		}
		return nil
	}

	// Commit-once: exactly one attempt (original or speculative duplicate)
	// publishes. The loser blocks here until the winner's publish completes,
	// then returns success without side effects; its deferred Abort drops
	// what it staged.
	si.commitMu[taskID].Lock()
	if si.done[taskID] {
		si.commitMu[taskID].Unlock()
		return nil
	}
	if w != nil {
		if err := w.Commit(); err != nil {
			si.commitMu[taskID].Unlock()
			return err
		}
		committed = true
	}
	if f.Out == catalyst.ExchangeGather {
		j.results[taskID] = batches
	}
	si.done[taskID] = true
	si.commitMu[taskID].Unlock()

	if w != nil {
		if si.partRows != nil {
			si.rowsMu.Lock()
			for p, n := range w.PartRows {
				si.partRows[p] += n
			}
			si.rowsMu.Unlock()
		}
	}
	// Publish the task's partial runtime filter only on the committing path:
	// a failed (and possibly retried) attempt never contributes, so the
	// merged filter reflects exactly one complete pass over the build input.
	if built != nil {
		j.rfReg.Publish(f.ID, taskID, built)
		if taskID == 0 {
			j.rfc.built.Inc()
		}
	}
	// The trace reads the task's rows before fold hands them to the stage.
	ops := exec.SnapshotStats(root)
	if tr := j.opts.Trace; tr != nil {
		tid := tr.NextTID()
		label := fmt.Sprintf("stage-%d/task-%d", f.ID, taskID)
		tr.NameThread(tid, label)
		emitTaskTrace(tr, tid, label, start, end.Sub(start), ops)
	}
	notePoolMetrics(j.opts.Metrics, tc)
	noteDec64Metrics(j.opts.Metrics, tc.Expr)
	j.rfc.rowsPruned.Add(si.fold(ops, start, end, tc, w))
	return nil
}

// publishEmpty commits an empty shuffle/broadcast output for a map task that
// produced no rows (coalesced away), preserving the invariant that every
// committed map task has an output: an entry in the store, and no file.
func (j *stagedJob) publishEmpty(si *stageInfo, taskID int, recovery bool) error {
	if !recovery {
		si.commitMu[taskID].Lock()
		defer si.commitMu[taskID].Unlock()
		if si.done[taskID] {
			return nil
		}
	}
	parts := 1
	if si.frag.Out == catalyst.ExchangeHash {
		parts = j.par
	}
	w := j.store.NewWriter(si.exID, taskID, parts)
	if err := w.Commit(); err != nil {
		w.Abort()
		return err
	}
	if !recovery {
		si.done[taskID] = true
	}
	return nil
}

// buildProfile assembles the stages' folded profiles into the query's
// stitched EXPLAIN ANALYZE profile, ordered by stage ID, stamping what the
// scheduler owns: wall time, speculation, retries, recoveries, and the keys
// of the runtime filter a stage published. Every task has returned, so the
// stages' profiles are final and the query profile takes them as they are.
func (j *stagedJob) buildProfile(root *catalyst.Fragment) *QueryProfile {
	q := &QueryProfile{Root: root.ID, Stages: make([]StageProfile, 0, len(j.stages))}
	for f, si := range j.stages {
		si.profMu.Lock()
		sp := si.prof
		si.profMu.Unlock()
		st := si.stage.Stats()
		sp.WallNanos = int64(st.WallTime)
		sp.Speculated = st.Speculated.Load()
		sp.SpecWins = st.SpecWins.Load()
		sp.Retries = st.Retries.Load()
		sp.Recovered = si.recovered.Load()
		if flt := j.rfReg.Filter(f.ID); flt != nil {
			sp.RFKeys, sp.RFSizedFor, sp.RFExact = flt.Keys()
		}
		q.Stages = append(q.Stages, sp)
	}
	slices.SortFunc(q.Stages, func(a, b StageProfile) int { return a.ID - b.ID })
	return q
}

// emitStageSpans records one span per stage covering its tasks' wall-clock
// envelope (first task start to last task end).
func (j *stagedJob) emitStageSpans(tr *obs.Trace) {
	infos := make([]*stageInfo, 0, len(j.stages))
	for _, si := range j.stages {
		infos = append(infos, si)
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].frag.ID < infos[b].frag.ID })
	for _, si := range infos {
		si.profMu.Lock()
		start, end, n := si.firstStart, si.lastEnd, si.prof.TasksRun
		si.profMu.Unlock()
		if n == 0 || start.IsZero() {
			continue
		}
		tid := tr.NextTID()
		tr.NameThread(tid, fmt.Sprintf("stage-%d %s", si.frag.ID, si.frag.Label()))
		tr.Span(fmt.Sprintf("stage %d", si.frag.ID), "stage", tid, start, end.Sub(start),
			map[string]any{"tasks": n, "label": si.frag.Label()})
	}
}

func execSortKeys(keys []sql.SortKeyPlan) []exec.SortKey {
	out := make([]exec.SortKey, len(keys))
	for i, k := range keys {
		out[i] = exec.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return out
}

// coalescePartitions groups shuffle partitions into reduce tasks so each
// task handles about an even share of the input's rows or more (the AQE
// partition-coalescing heuristic, §5.5). It counts rows, which a partition
// has whether it is a file or in memory and which do not change with how
// compactly a block encodes; and nine tenths of an even share count as one,
// because hash partitions of a large input are that even, and which side of
// exactly even the first falls on must not decide whether a stage runs one
// task or two. Partitions stay in order; every partition is assigned
// exactly once.
func coalescePartitions(partRows []int64) [][]int {
	var total int64
	for _, n := range partRows {
		total += n
	}
	// Target: keep all tasks busy, but merge partitions much smaller than
	// an even share.
	target := total / int64(len(partRows))
	if target < 1 {
		target = 1
	}
	var out [][]int
	var cur []int
	var curRows int64
	for p, n := range partRows {
		cur = append(cur, p)
		curRows += n
		if curRows*10 >= target*9 {
			out = append(out, cur)
			cur = nil
			curRows = 0
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}
