// Package sched implements the execution framework's task model (§2.2): a
// driver decomposes jobs into stages, stages into tasks running the same
// code over different data partitions, with blocking stage boundaries (the
// next stage starts only after the previous ends, enabling fault tolerance
// by task retry and adaptive decisions at boundaries). Executor slots are a
// process-wide Pool standing in for the executor processes' task threads;
// concurrent jobs share the pool under fair FIFO-with-job-interleaving
// dispatch. Every job carries a context.Context: cancelling it (or a
// permanent task failure) fail-fasts the whole job — queued sibling tasks
// are skipped, in-flight tasks observe the context at batch boundaries.
//
// Fault tolerance (§2.2 "the service retries failed tasks and re-launches
// stragglers"): transient failures — sched.Retryable wrappers, injected
// fault.Error marked transient, classified transient OS I/O — are retried
// with full-jitter exponential backoff; and once a stage is mostly complete
// a straggler detector launches one speculative duplicate of any task whose
// wall time exceeds a multiple of the median, first finisher wins, the
// loser is cancelled through its per-attempt context.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/fault"
)

// Task is one unit of stage work; taskID indexes the data partition. The
// context is the job's: tasks must observe cancellation promptly (operator
// batch boundaries) and return ctx.Err().
type Task func(ctx context.Context, taskID int) error

// ErrRetryable marks an error as transient: the scheduler retries tasks
// failing with an error matching errors.Is(err, ErrRetryable) up to
// MaxAttempts with a small backoff. Everything else — planner errors,
// casts, divide-by-zero, cancellation — is permanent and fails the task
// (and then the job) on first occurrence.
var ErrRetryable = errors.New("retryable")

// Retryable wraps err so the scheduler classifies it as transient.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err}
}

type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }
func (e *retryableError) Is(target error) bool {
	return target == ErrRetryable
}

// IsRetryable reports whether the scheduler would retry err. Cancellation
// is never retryable, even when wrapped. Injected faults (and transient OS
// I/O errors classified by fault.ClassifyIO) follow their Transient flag.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrRetryable) {
		return true
	}
	var fe *fault.Error
	if errors.As(err, &fe) {
		return fe.Transient
	}
	return false
}

// Stage is a set of identical tasks over different partitions.
type Stage struct {
	Name     string
	NumTasks int
	Run      Task
	// Deps must complete before this stage starts (stage boundaries are
	// blocking, §2.2).
	Deps []*Stage

	stats StageStats
	done  bool
}

// StageStats carries per-stage runtime statistics, the inputs to
// AQE-style re-planning decisions at stage boundaries (§5.5).
type StageStats struct {
	TaskTime []time.Duration
	Attempts atomic.Int64
	Failures atomic.Int64
	// Skipped counts tasks that never ran (or were abandoned before
	// completing) because a sibling's permanent failure or the job's
	// cancellation fail-fasted the stage.
	Skipped  atomic.Int64
	RowsOut  atomic.Int64
	BytesOut atomic.Int64
	// Speculated counts straggler tasks for which a duplicate attempt was
	// launched; SpecWins counts tasks whose duplicate finished first.
	Speculated atomic.Int64
	SpecWins   atomic.Int64
	// Retries counts extra attempts after transient task failures (the
	// per-stage view of Metrics.TaskRetries).
	Retries  atomic.Int64
	WallTime time.Duration
}

// Stats returns the stage's statistics (valid after the stage completes).
func (s *Stage) Stats() *StageStats { return &s.stats }

// Driver schedules stages on an executor slot pool.
type Driver struct {
	// Parallelism sizes the private pool when Pool is nil (0 = NumCPU).
	Parallelism int
	// MaxAttempts per task (task retry is the fault-tolerance unit); only
	// retryable errors (see ErrRetryable) consume extra attempts. Pool
	// options (PoolOptions.MaxAttempts) override when set.
	MaxAttempts int
	// Pool is the executor slot pool; nil makes RunJob create a private
	// pool of Parallelism slots (the single-job case). Share one Pool
	// across drivers/jobs for process-wide slot accounting.
	Pool *Pool
	// RetryBackoff is the base delay between attempts; the actual sleep is
	// full-jitter: uniform in [0, min(cap, base<<attempt)] so synchronized
	// retries from sibling tasks spread out instead of thundering-herding
	// the slot pool. Default 1ms; tests may set it to 0. Pool options
	// override base and cap when set.
	RetryBackoff time.Duration
	// RetryBackoffCap bounds a single backoff sleep (0 = 100ms default).
	RetryBackoffCap time.Duration
	// Tenant labels this driver's jobs for the pool's weighted-fair
	// dispatch ("" = DefaultTenant); TenantWeight is the tenant's
	// fair-share weight (<= 0 = 1).
	Tenant       string
	TenantWeight int

	mu   sync.Mutex
	jobs int64
}

// NewDriver builds a driver with a private pool of `parallelism` slots.
func NewDriver(parallelism int) *Driver {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	return &Driver{Parallelism: parallelism, MaxAttempts: 2, RetryBackoff: time.Millisecond}
}

// NewDriverOnPool builds a driver sharing an existing slot pool.
func NewDriverOnPool(pool *Pool) *Driver {
	return &Driver{Parallelism: pool.Slots(), MaxAttempts: 2, Pool: pool, RetryBackoff: time.Millisecond}
}

// JobStats reports one job's slot usage.
type JobStats struct {
	// SlotsHeldPeak is the maximum number of executor slots the job held
	// concurrently.
	SlotsHeldPeak int
}

// runConfig is the per-job resolution of driver fields and pool options.
type runConfig struct {
	maxAttempts int
	backoffBase time.Duration
	backoffCap  time.Duration
	spec        SpeculationOptions
}

func (d *Driver) resolve(pool *Pool) runConfig {
	po := pool.Options()
	cfg := runConfig{
		maxAttempts: d.MaxAttempts,
		backoffBase: d.RetryBackoff,
		backoffCap:  d.RetryBackoffCap,
		spec:        po.Speculation.withDefaults(),
	}
	if po.MaxAttempts > 0 {
		cfg.maxAttempts = po.MaxAttempts
	}
	if cfg.maxAttempts < 1 {
		cfg.maxAttempts = 1
	}
	if po.RetryBackoff > 0 {
		cfg.backoffBase = po.RetryBackoff
	}
	if po.RetryBackoffCap > 0 {
		cfg.backoffCap = po.RetryBackoffCap
	}
	if cfg.backoffCap <= 0 {
		cfg.backoffCap = 100 * time.Millisecond
	}
	return cfg
}

// RunJob executes the stage DAG reachable from the final stages, honoring
// dependencies. It blocks until the job completes, a task fails
// permanently, or ctx is cancelled. On the first permanent failure the
// job's context is cancelled: queued sibling tasks are skipped and
// in-flight tasks stop at their next batch boundary (fail-fast).
func (d *Driver) RunJob(ctx context.Context, finals ...*Stage) error {
	_, err := d.RunJobStats(ctx, finals...)
	return err
}

// RunJobStats is RunJob returning the job's slot statistics.
func (d *Driver) RunJobStats(ctx context.Context, finals ...*Stage) (JobStats, error) {
	d.mu.Lock()
	d.jobs++
	d.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}

	pool := d.Pool
	if pool == nil {
		pool = NewPool(d.Parallelism)
	}
	tok := pool.NewJobFor(d.Tenant, d.TenantWeight)
	if m := pool.Metrics(); m != nil {
		m.JobsRun.Inc()
	}
	cfg := d.resolve(pool)

	order, err := topoSort(finals)
	if err != nil {
		return JobStats{}, err
	}

	// The job context: cancelled on the first permanent task failure so
	// every queued and in-flight task of the job stops.
	jobCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	for _, st := range order {
		if err := jobCtx.Err(); err != nil {
			return JobStats{SlotsHeldPeak: tok.SlotsHeldPeak()}, jobCause(jobCtx)
		}
		if err := d.runStage(jobCtx, cancel, pool, tok, st, cfg); err != nil {
			return JobStats{SlotsHeldPeak: tok.SlotsHeldPeak()},
				fmt.Errorf("sched: stage %q: %w", st.Name, err)
		}
	}
	return JobStats{SlotsHeldPeak: tok.SlotsHeldPeak()}, nil
}

// jobCause extracts the most specific error from a cancelled job context.
func jobCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// topoSort orders stages dependencies-first, detecting cycles.
func topoSort(finals []*Stage) ([]*Stage, error) {
	var order []*Stage
	state := map[*Stage]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(s *Stage) error
	visit = func(s *Stage) error {
		switch state[s] {
		case 1:
			return fmt.Errorf("sched: dependency cycle at stage %q", s.Name)
		case 2:
			return nil
		}
		state[s] = 1
		deps := append([]*Stage(nil), s.Deps...)
		sort.SliceStable(deps, func(i, j int) bool { return deps[i].Name < deps[j].Name })
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[s] = 2
		order = append(order, s)
		return nil
	}
	for _, f := range finals {
		if err := visit(f); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// taskRun tracks one task's attempts (primary + at most one speculative
// duplicate). The first attempt to return decides the task's outcome and
// cancels its twin through the per-attempt context; the loser's result is
// discarded here and its side effects are suppressed by the commit guards
// in the task body (atomic shuffle publish, driver commit-once).
type taskRun struct {
	mu       sync.Mutex
	started  bool
	start    time.Time
	finished bool
	spec     bool // a speculative duplicate has been launched
	cancels  []context.CancelFunc
	prog     *Progress // primary attempt's progress (straggler tiebreak)
}

// stageTracker aggregates completed-task durations for the straggler
// detector.
type stageTracker struct {
	mu        sync.Mutex
	durations []time.Duration
}

func (t *stageTracker) record(d time.Duration) {
	t.mu.Lock()
	t.durations = append(t.durations, d)
	t.mu.Unlock()
}

func (t *stageTracker) snapshot() []time.Duration {
	t.mu.Lock()
	out := append([]time.Duration(nil), t.durations...)
	t.mu.Unlock()
	return out
}

// runStage runs a stage's tasks on the executor pool with retries and
// straggler speculation. Fail-fast: the first permanent task failure
// cancels jobCtx, so queued tasks are recorded as skipped (not failed) and
// in-flight siblings stop at their next batch boundary.
func (d *Driver) runStage(jobCtx context.Context, cancel context.CancelCauseFunc,
	pool *Pool, tok *JobToken, st *Stage, cfg runConfig) error {
	if st.done {
		return nil
	}
	m := pool.Metrics()
	start := time.Now()
	st.stats.TaskTime = make([]time.Duration, st.NumTasks)

	var wg, specWg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex

	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			// Fail-fast: stop every queued and in-flight sibling.
			cancel(err)
		}
		errMu.Unlock()
	}

	runs := make([]*taskRun, st.NumTasks)
	for i := range runs {
		runs[i] = &taskRun{}
	}
	trk := &stageTracker{}

	skip := func() {
		st.stats.Skipped.Add(1)
		if m != nil {
			m.TasksSkipped.Inc()
		}
	}

	// Only a stage the straggler detector watches can have twin attempts,
	// so only its attempts get a context of their own (for cancelling the
	// losing twin) and a progress sink (for ranking stragglers).
	watched := !cfg.spec.Disable && st.NumTasks > 1

	// runAttempt runs one attempt of a task on an already-held slot,
	// releasing the slot when done. The first attempt to return commits
	// the task outcome; a late twin's return is ignored.
	runAttempt := func(tr *taskRun, taskID int, speculative bool) {
		defer pool.Release(tok)
		actx, prog := jobCtx, (*Progress)(nil)
		var acancel context.CancelFunc
		if watched {
			actx, acancel = context.WithCancel(jobCtx)
			defer acancel()
			prog = &Progress{}
			actx = WithProgress(actx, prog)
		}

		tr.mu.Lock()
		if tr.finished {
			// Twin already committed while this attempt waited to start.
			tr.mu.Unlock()
			return
		}
		if acancel != nil {
			tr.cancels = append(tr.cancels, acancel)
		}
		if !tr.started {
			tr.started = true
			tr.start = time.Now()
			tr.prog = prog
		}
		tStart := tr.start
		tr.mu.Unlock()

		if m != nil {
			m.TasksStarted.Inc()
		}
		err := d.runTaskWithRetry(actx, st, taskID, m, cfg)

		tr.mu.Lock()
		if tr.finished {
			tr.mu.Unlock()
			return // lost the race; winner already committed
		}
		tr.finished = true
		cancels := tr.cancels
		tr.cancels = nil
		tr.mu.Unlock()
		for _, c := range cancels {
			c() // cancel the losing twin promptly
		}

		dur := time.Since(tStart)
		st.stats.TaskTime[taskID] = dur
		trk.record(dur)
		if m != nil {
			m.TaskMicros.Observe(dur.Microseconds())
		}
		if speculative {
			st.stats.SpecWins.Add(1)
			if m != nil {
				m.SpecWon.Inc()
			}
		}
		if err != nil {
			if jobCause(jobCtx) != nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				// Abandoned because a sibling already failed or the
				// caller cancelled: skipped, not failed.
				skip()
				return
			}
			fail(fmt.Errorf("task %d: %w", taskID, err))
		}
	}

	launch := func(taskID int) {
		// Queued: wait for an executor slot (fair across jobs).
		if err := pool.Acquire(jobCtx, tok); err != nil {
			skip()
			return
		}
		if jobCtx.Err() != nil {
			// Cancelled between grant and start.
			pool.Release(tok)
			skip()
			return
		}
		runAttempt(runs[taskID], taskID, false)
	}
	if st.NumTasks == 1 {
		// Nothing runs beside a one-task stage's task, and no straggler
		// detector watches it: it runs on the calling goroutine.
		launch(0)
	} else {
		for id := 0; id < st.NumTasks; id++ {
			wg.Add(1)
			go func(taskID int) {
				defer wg.Done()
				launch(taskID)
			}(id)
		}
	}

	// Straggler detector: once the stage is mostly complete, duplicate any
	// task whose wall time exceeds a multiple of the completed median —
	// but only onto an otherwise-idle slot (TryAcquire never steals from
	// queued tasks).
	stopMon := make(chan struct{})
	var monWg sync.WaitGroup
	if watched {
		monWg.Add(1)
		go func() {
			defer monWg.Done()
			d.speculate(jobCtx, pool, tok, st, runs, trk, cfg, m, stopMon, &specWg, runAttempt)
		}()
	}

	wg.Wait()
	close(stopMon)
	monWg.Wait()
	specWg.Wait()

	st.stats.WallTime = time.Since(start)
	if firstErr != nil {
		return firstErr
	}
	if err := jobCtx.Err(); err != nil {
		// Cancelled from outside (caller ctx / sibling stage): surface the
		// cause.
		return jobCause(jobCtx)
	}
	st.done = true
	if m != nil {
		m.StagesRun.Inc()
	}
	return nil
}

// speculate is the per-stage straggler monitor. Policy (§2.2): once at
// least MinCompleteFraction of the stage's tasks have finished, any running
// task whose wall time exceeds Multiplier × the median completed duration
// (and the MinTaskTime floor) gets exactly one duplicate attempt, launched
// only if a slot is free. Candidates with the least reported progress are
// duplicated first — a task that has pushed few rows is further from done
// than a long-running task that is almost finished.
func (d *Driver) speculate(jobCtx context.Context, pool *Pool, tok *JobToken,
	st *Stage, runs []*taskRun, trk *stageTracker, cfg runConfig, m *Metrics,
	stop <-chan struct{}, specWg *sync.WaitGroup,
	runAttempt func(tr *taskRun, taskID int, speculative bool)) {

	ticker := time.NewTicker(cfg.spec.Interval)
	defer ticker.Stop()
	quorum := (st.NumTasks*int(cfg.spec.MinCompleteFraction*1000) + 999) / 1000
	if quorum < 1 {
		quorum = 1
	}
	for {
		select {
		case <-stop:
			return
		case <-jobCtx.Done():
			return
		case <-ticker.C:
		}
		durs := trk.snapshot()
		if len(durs) < quorum || len(durs) >= st.NumTasks {
			continue
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		median := durs[len(durs)/2]
		cutoff := time.Duration(float64(median) * cfg.spec.Multiplier)
		if cutoff < cfg.spec.MinTaskTime {
			cutoff = cfg.spec.MinTaskTime
		}
		type cand struct {
			id   int
			rows int64
			wall time.Duration
		}
		var cands []cand
		for id, tr := range runs {
			tr.mu.Lock()
			eligible := tr.started && !tr.finished && !tr.spec
			wall := time.Duration(0)
			var rows int64
			if eligible {
				wall = time.Since(tr.start)
				rows = tr.prog.Rows()
			}
			tr.mu.Unlock()
			if eligible && wall > cutoff {
				cands = append(cands, cand{id, rows, wall})
			}
		}
		// Least-progress first; longest-running breaks ties.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].rows != cands[j].rows {
				return cands[i].rows < cands[j].rows
			}
			return cands[i].wall > cands[j].wall
		})
		for _, c := range cands {
			if !pool.TryAcquire(tok) {
				break // no idle slot; never steal from queued tasks
			}
			tr := runs[c.id]
			tr.mu.Lock()
			if tr.finished || tr.spec {
				tr.mu.Unlock()
				pool.Release(tok)
				continue
			}
			tr.spec = true
			tr.mu.Unlock()
			st.stats.Speculated.Add(1)
			if m != nil {
				m.SpecLaunched.Inc()
			}
			specWg.Add(1)
			go func(id int, tr *taskRun) {
				defer specWg.Done()
				runAttempt(tr, id, true)
			}(c.id, tr)
		}
	}
}

// runTaskWithRetry runs one task, retrying transient failures with
// full-jitter exponential backoff. Permanent errors (the default
// classification) return immediately. The task-start failpoint fires
// before each attempt, consuming an attempt when armed.
func (d *Driver) runTaskWithRetry(ctx context.Context, st *Stage, taskID int, m *Metrics, cfg runConfig) error {
	var err error
	for attempt := 0; attempt < cfg.maxAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		st.stats.Attempts.Add(1)
		if attempt > 0 {
			st.stats.Retries.Add(1)
			if m != nil {
				m.TaskRetries.Inc()
			}
		}
		err = fault.Hit(ctx, fault.TaskStart)
		if err == nil {
			err = st.Run(ctx, taskID)
		}
		if err == nil {
			return nil
		}
		st.stats.Failures.Add(1)
		if m != nil {
			m.TaskFailures.Inc()
		}
		if !IsRetryable(err) {
			return err
		}
		if attempt+1 < cfg.maxAttempts {
			if berr := backoff(ctx, cfg.backoffBase, cfg.backoffCap, attempt); berr != nil {
				return berr
			}
		}
	}
	return err
}

// backoff sleeps a full-jitter exponential delay — uniform in
// [0, min(cap, base<<attempt)] — honoring cancellation. Full jitter
// decorrelates sibling tasks that failed together (e.g. a shared injected
// fault), so their retries do not stampede the slot pool in lockstep.
func backoff(ctx context.Context, base, cap time.Duration, attempt int) error {
	if base <= 0 {
		return ctx.Err()
	}
	max := base << uint(attempt)
	if max > cap || max <= 0 {
		max = cap
	}
	delay := time.Duration(rand.Int63n(int64(max) + 1))
	if delay <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SplitRoundRobin assigns n items to k partitions round-robin, returning
// the item indices for partition p. The scheduler's standard partitioning
// for file lists and batch lists.
func SplitRoundRobin(n, k, p int) []int {
	var out []int
	for i := p; i < n; i += k {
		out = append(out, i)
	}
	return out
}
