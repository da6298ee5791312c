package photon

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/catalog"
	"photon/internal/mem"
	"photon/internal/shuffle"
	"photon/internal/storage/parquet"
	"photon/internal/tpch"
)

// tpchSession builds a session over a generated TPC-H catalog at the given
// scale factor (internal test: the catalog is installed directly).
func tpchSession(sf float64, cfg Config) *Session {
	sess := NewSession(cfg)
	sess.cat = tpch.NewGen(sf).Generate()
	return sess
}

// renderSorted normalizes rows for order-insensitive comparison.
func renderSorted(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, failing the test if it never does (goroutine leak).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d goroutines, started with %d", runtime.NumGoroutine(), base)
}

// assertNoShuffleFiles asserts the session spill dir holds no leftover
// per-query directories or files.
func assertNoShuffleFiles(t *testing.T, dir string) {
	t.Helper()
	var leftovers []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && path != dir {
			leftovers = append(leftovers, path)
		}
		return nil
	})
	if len(leftovers) > 0 {
		t.Errorf("shuffle/spill files leaked: %v", leftovers)
	}
}

// lakeCopy writes the session's in-memory table name to a Delta table of
// three data files under dir and registers it as name+"_lake", so a test can
// run the same query over files. It returns the bytes the files hold.
func lakeCopy(t *testing.T, sess *Session, name, dir string) (fileBytes int64) {
	t.Helper()
	tbl, err := sess.cat.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	mt := tbl.(*catalog.MemTable)
	dt, err := sess.CreateDeltaTable(name+"_lake", dir, mt.Sch)
	if err != nil {
		t.Fatal(err)
	}
	for lo, step := 0, (len(mt.Batches)+2)/3; lo < len(mt.Batches); lo += step {
		if err := dt.tbl.Append(mt.Batches[lo:min(lo+step, len(mt.Batches))], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.refresh(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.parquet"))
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		fileBytes += info.Size()
	}
	return fileBytes
}

// onLake points a TPC-H query at lakeCopy's lineitem.
func onLake(query string) string {
	return strings.ReplaceAll(query, "lineitem", "lineitem_lake")
}

// assertNoExchangeHeld asserts that no query of the session still holds
// exchange output in memory: every query's store dropped its batches and
// gave back the "exchange" consumer's reservation, however the query ended.
func assertNoExchangeHeld(t *testing.T, sess *Session) {
	t.Helper()
	if held := sess.Metrics().Gauge("photon_exchange_held_bytes", "").Load(); held != 0 {
		t.Errorf("%d bytes of exchange output still held in memory", held)
	}
}

// assertNoOpenFiles asserts that every data file a scan opened and every
// partition file an exchange read opened has been closed: each scan and each
// exchange read, however it ended, let go of its files.
func assertNoOpenFiles(t *testing.T) {
	t.Helper()
	if n := parquet.OpenFiles(); n != 0 {
		t.Errorf("%d data files opened by scans were never closed", n)
	}
	if n := shuffle.OpenFiles(); n != 0 {
		t.Errorf("%d partition files opened by exchange reads were never closed", n)
	}
}

// TestConcurrentStressTPCH is the acceptance stress test: >= 8 concurrent
// TPC-H queries per session across 2 sessions, with admission control
// capping in-flight queries, mixed cancellations and timeouts, under
// -race. Every uncancelled query must return the sequential baseline
// result; afterwards no goroutines, shuffle files, or memory reservations
// may remain.
func TestConcurrentStressTPCH(t *testing.T) {
	queries := []int{1, 3, 5, 6, 10, 12, 14, 19}
	const workersPerSession = 10 // >= 8 concurrent queries per session
	const cap = 4

	baseGoroutines := runtime.NumGoroutine()

	// Sequential baseline at Parallelism 1.
	baseSess := tpchSession(0.005, Config{})
	baseline := map[int][]string{}
	for _, q := range queries {
		res, err := baseSess.SQL(tpch.Queries[q])
		if err != nil {
			t.Fatalf("baseline Q%d: %v", q, err)
		}
		baseline[q] = renderSorted(res.Rows)
	}

	type sessionUnderTest struct {
		sess *Session
		dir  string
	}
	var suts []sessionUnderTest
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		suts = append(suts, sessionUnderTest{
			sess: tpchSession(0.005, Config{
				Parallelism:          4,
				SpillDir:             dir,
				MaxConcurrentQueries: cap,
			}),
			dir: dir,
		})
	}

	var wg sync.WaitGroup
	var completed, cancelled atomic.Int64
	var overCap atomic.Bool
	stop := make(chan struct{})
	// Watchdog: the gate must never admit more than `cap` queries at once.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sut := range suts {
				if sut.sess.gate.Running() > cap {
					overCap.Store(true)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for si, sut := range suts {
		for w := 0; w < workersPerSession; w++ {
			wg.Add(1)
			go func(si, w int, sut sessionUnderTest) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					q := queries[(w+i)%len(queries)]
					ctx := context.Background()
					mode := (w + i) % 5
					var cancel context.CancelFunc
					switch mode {
					case 3: // aggressive timeout: likely cancels mid-run
						ctx, cancel = context.WithTimeout(ctx, 2*time.Millisecond)
					case 4: // pre-cancelled
						ctx, cancel = context.WithCancel(ctx)
						cancel()
					}
					res, err := sut.sess.SQLContext(ctx, tpch.Queries[q])
					if cancel != nil {
						cancel()
					}
					switch {
					case err == nil:
						completed.Add(1)
						if got := renderSorted(res.Rows); !equalStrings(got, baseline[q]) {
							t.Errorf("session %d worker %d Q%d: wrong result (%d rows, want %d)",
								si, w, q, len(got), len(baseline[q]))
						}
					case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
						cancelled.Add(1)
					default:
						t.Errorf("session %d worker %d Q%d: %v", si, w, q, err)
					}
				}
			}(si, w, sut)
		}
	}
	wg.Wait()
	close(stop)

	if overCap.Load() {
		t.Error("admission control exceeded MaxConcurrentQueries")
	}
	if completed.Load() == 0 {
		t.Error("no query completed")
	}
	if cancelled.Load() == 0 {
		t.Error("no query was cancelled (pre-cancelled contexts must cancel)")
	}
	t.Logf("completed=%d cancelled=%d", completed.Load(), cancelled.Load())

	for _, sut := range suts {
		if used := sut.sess.mm.Used(); used != 0 {
			t.Errorf("session leaked %d reserved bytes", used)
		}
		assertNoExchangeHeld(t, sut.sess)
		assertNoShuffleFiles(t, sut.dir)
	}
	waitGoroutines(t, baseGoroutines)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCancellationPerExchangeShape cancels a query mid-flight for each
// exchange shape — shuffle join, broadcast join, global sort — and asserts
// the error surfaces as cancellation, the full memory reservation is
// released, no shuffle files survive, and no goroutines leak.
func TestCancellationPerExchangeShape(t *testing.T) {
	const joinQ = `SELECT o_orderpriority, count(*) FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_extendedprice > 100 GROUP BY o_orderpriority`
	const sortQ = `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC, l_orderkey`

	shapes := []struct {
		name  string
		query string
		cfg   Config
	}{
		{"shuffle-join", joinQ, Config{Parallelism: 4, BroadcastRows: -1}},
		{"broadcast-join", joinQ, Config{Parallelism: 4}},
		{"global-sort", sortQ, Config{Parallelism: 4}},
	}

	cat := tpch.NewGen(0.05).Generate() // big enough that queries run for tens of ms
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			baseGoroutines := runtime.NumGoroutine()
			dir := t.TempDir()
			cfg := shape.cfg
			cfg.SpillDir = dir
			sess := NewSession(cfg)
			sess.cat = cat

			// Uncancelled control run: the shape works and takes real time.
			start := time.Now()
			if _, err := sess.SQLContext(context.Background(), shape.query); err != nil {
				t.Fatalf("control run: %v", err)
			}
			full := time.Since(start)

			// Cancel mid-flight at ~10% of the control runtime.
			ctx, cancel := context.WithTimeout(context.Background(), full/10+time.Millisecond)
			_, err := sess.SQLContext(ctx, shape.query)
			cancel()
			if err == nil {
				t.Fatalf("query outran its %s timeout (control took %s); cancellation untested",
					full/10, full)
			}
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want cancellation", err)
			}

			// Whole reservation released, no shuffle files, no goroutines.
			if used := sess.mm.Used(); used != 0 {
				t.Errorf("leaked %d reserved bytes after cancel", used)
			}
			assertNoExchangeHeld(t, sess)
			assertNoShuffleFiles(t, dir)
			waitGoroutines(t, baseGoroutines)
		})
	}
}

// TestAdmissionQueueAndReject covers the gate's queue-or-reject modes.
func TestAdmissionQueueAndReject(t *testing.T) {
	t.Run("reject-at-capacity", func(t *testing.T) {
		sess := tpchSession(0.01, Config{
			Parallelism:          2,
			MaxConcurrentQueries: 1,
			AdmissionQueue:       -1,
		})
		release := make(chan struct{})
		started := make(chan struct{})
		var firstErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Manually hold the gate to simulate a long-running query.
			tg, err := sess.gate.admit(context.Background(), "")
			if err != nil {
				firstErr = err
				close(started)
				return
			}
			close(started)
			<-release
			sess.gate.release(tg, 0)
		}()
		<-started
		if firstErr != nil {
			t.Fatal(firstErr)
		}
		_, err := sess.SQLContext(context.Background(), tpch.Queries[6])
		if !errors.Is(err, ErrQueryRejected) {
			t.Errorf("err = %v, want ErrQueryRejected", err)
		}
		close(release)
		wg.Wait()
		// After release, queries are admitted again.
		if _, err := sess.SQLContext(context.Background(), tpch.Queries[6]); err != nil {
			t.Errorf("post-release query failed: %v", err)
		}
	})

	t.Run("fifo-queue", func(t *testing.T) {
		sess := tpchSession(0.01, Config{
			Parallelism:          2,
			MaxConcurrentQueries: 2,
		})
		// 6 concurrent queries through a 2-wide gate: all succeed, some wait.
		var wg sync.WaitGroup
		var queuedSome atomic.Bool
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, stats, err := sess.SQLContextStats(context.Background(), tpch.Queries[1])
				if err != nil {
					t.Error(err)
					return
				}
				if stats.QueueWait() > 500*time.Microsecond {
					queuedSome.Store(true)
				}
			}()
		}
		wg.Wait()
		if !queuedSome.Load() {
			t.Log("note: no query observed measurable admission wait (fast machine)")
		}
	})

	t.Run("min-memory-predicate", func(t *testing.T) {
		mm := mem.NewManager(1000)
		gate := newAdmission(Config{MinQueryMemory: 600}, mm, nil)
		hog := &mem.FuncConsumer{ConsumerName: "hog"}
		if err := mm.Reserve(hog, 700); err != nil {
			t.Fatal(err)
		}
		// 300 available < 600 required: admit must not succeed now.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := gate.admit(ctx, ""); err == nil {
			t.Fatal("admitted despite insufficient reservable memory")
		}
		mm.ReleaseAll(hog)
		tg, err := gate.admit(context.Background(), "")
		if err != nil {
			t.Fatalf("admit after memory freed: %v", err)
		}
		gate.release(tg, 0)
	})
}

// TestQueryTimeoutConfig: Config.QueryTimeout cancels long queries.
func TestQueryTimeoutConfig(t *testing.T) {
	sess := tpchSession(0.05, Config{
		Parallelism:  4,
		QueryTimeout: 2 * time.Millisecond,
	})
	_, err := sess.SQLContext(context.Background(), tpch.Queries[1])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if used := sess.mm.Used(); used != 0 {
		t.Errorf("leaked %d reserved bytes after timeout", used)
	}
	assertNoExchangeHeld(t, sess)
}

// TestLifecycleStats: SQLContextStats reports the lifecycle phases and the
// per-query memory peak.
func TestLifecycleStats(t *testing.T) {
	sess := tpchSession(0.01, Config{Parallelism: 4, SpillDir: t.TempDir()})
	res, stats, err := sess.SQLContextStats(context.Background(), tpch.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	if stats.PlanTime() <= 0 || stats.RunTime() <= 0 {
		t.Errorf("missing phase durations: %+v", stats)
	}
	if stats.StageCount < 2 {
		t.Errorf("stages = %d, want >= 2 for a split aggregation", stats.StageCount)
	}
	if stats.SlotsHeldPeak < 1 {
		t.Errorf("SlotsHeldPeak = %d, want >= 1", stats.SlotsHeldPeak)
	}
	if stats.PeakMemBytes <= 0 {
		t.Errorf("PeakMemBytes = %d, want > 0", stats.PeakMemBytes)
	}
	// Profile surfaces the same lifecycle report.
	p, err := sess.SQLWithProfileContext(context.Background(), tpch.Queries[6])
	if err != nil {
		t.Fatal(err)
	}
	if p.Lifecycle == nil || p.Lifecycle.RunTime() <= 0 {
		t.Errorf("profile lifecycle missing: %+v", p.Lifecycle)
	}
	if p.Lifecycle.String() == "" {
		t.Error("empty lifecycle string")
	}
}

// TestFastFailAdmission: a context that is already cancelled or past its
// deadline fails before entering the admission queue, and is classified as
// cancelled/timeout — never as rejected.
func TestFastFailAdmission(t *testing.T) {
	sess := tpchSession(0.005, Config{Parallelism: 2, MaxConcurrentQueries: 1})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sess.SQLContext(cancelled, tpch.Queries[6])
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrQueryRejected) {
		t.Error("pre-cancelled ctx classified as rejected")
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	_, err = sess.SQLContext(expired, tpch.Queries[6])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired ctx: err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrQueryRejected) {
		t.Error("expired ctx classified as rejected")
	}
	// Neither attempt may consume admission state: a normal query admits.
	if _, err := sess.SQLContext(context.Background(), tpch.Queries[6]); err != nil {
		t.Fatalf("post fast-fail query: %v", err)
	}
	if got := sess.gate.Running(); got != 0 {
		t.Errorf("running = %d after fast-fails, want 0", got)
	}
}

// TestTenantQuotaQueueReject covers the per-tenant gate: an over-quota
// tenant queues behind itself (bounded by its MaxQueued) without blocking
// other tenants, and tenant-scoped rejections carry ErrQueryRejected.
func TestTenantQuotaQueueReject(t *testing.T) {
	mm := mem.NewManager(0)
	gate := newAdmission(Config{
		MaxConcurrentQueries: 8,
		Tenants: map[string]TenantConfig{
			"bronze": {MaxConcurrent: 1, MaxQueued: 1},
		},
	}, mm, nil)

	// bronze fills its one slot.
	bt, err := gate.admit(context.Background(), "bronze")
	if err != nil {
		t.Fatal(err)
	}
	// Second bronze query queues (MaxQueued 1); it must not be rejected.
	queuedErr := make(chan error, 1)
	entered := make(chan struct{})
	go func() {
		// Poll until the waiter is registered, then signal.
		go func() {
			for gate.Queued() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			close(entered)
		}()
		tg, err := gate.admit(context.Background(), "bronze")
		if err == nil {
			gate.release(tg, 0)
		}
		queuedErr <- err
	}()
	<-entered

	// Third bronze query overflows the tenant queue: rejected with the
	// sentinel and the tenant named.
	_, err = gate.admit(context.Background(), "bronze")
	if !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("over-quota bronze: err = %v, want ErrQueryRejected", err)
	}

	// A different tenant is unaffected by bronze's full queue.
	gt, err := gate.admit(context.Background(), "gold")
	if err != nil {
		t.Fatalf("gold blocked by bronze quota: %v", err)
	}
	gate.release(gt, 0)

	// Releasing bronze's slot admits its queued waiter.
	gate.release(bt, 0)
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued bronze query: %v", err)
	}
	snap := gate.tenantSnapshot()
	for _, ta := range snap {
		if ta.Name == "bronze" {
			if ta.Admitted != 2 || ta.Rejected != 1 {
				t.Errorf("bronze counters = %+v, want admitted 2 rejected 1", ta)
			}
		}
	}
}

// TestDeadlineShed: once the gate has service-time history, a query whose
// deadline cannot outlast the estimated queue wait is shed at admission —
// classified as timeout, never rejected — while a query with a generous
// deadline still queues.
func TestDeadlineShed(t *testing.T) {
	mm := mem.NewManager(0)
	gate := newAdmission(Config{MaxConcurrentQueries: 1}, mm, nil)
	// Install history: average service time ~1s.
	gate.noteServiceTime(time.Second)

	tg, err := gate.admit(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	// 5ms deadline behind a ~1s estimated wait: shed immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = gate.admit(ctx, "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded via shed", err)
	}
	if errors.Is(err, ErrQueryRejected) {
		t.Error("shed classified as rejected")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("shed took %s, want immediate (no queue park)", d)
	}
	if got := queryStatus(err); got != "timeout" {
		t.Errorf("queryStatus(shed) = %q, want timeout", got)
	}

	// A generous deadline queues instead of shedding and is admitted once
	// the slot frees.
	ok := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		tg2, err := gate.admit(ctx, "")
		if err == nil {
			gate.release(tg2, 0)
		}
		ok <- err
	}()
	for gate.Queued() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	gate.release(tg, 0)
	if err := <-ok; err != nil {
		t.Fatalf("generous-deadline query: %v", err)
	}
	if snap := gate.tenantSnapshot(); len(snap) != 1 || snap[0].Shed != 1 {
		t.Errorf("tenant snapshot = %+v, want one tenant with Shed 1", snap)
	}
}

// TestQueueMemoryBound: the global admission queue is bounded by the
// estimated memory footprint of queued queries — once AdmissionQueueMemory
// is reached further arrivals are rejected, and draining the queue frees
// the accounted bytes.
func TestQueueMemoryBound(t *testing.T) {
	mm := mem.NewManager(0)
	gate := newAdmission(Config{
		MaxConcurrentQueries: 1,
		MinQueryMemory:       1 << 20,
		AdmissionQueueMemory: 2 << 20, // room for exactly two queued estimates
	}, mm, nil)

	held, err := gate.admit(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			tg, err := gate.admit(context.Background(), "")
			if err == nil {
				gate.release(tg, 0)
			}
			drained <- err
		}()
	}
	for gate.Queued() != 2 {
		time.Sleep(100 * time.Microsecond)
	}

	// Third waiter would exceed the 2 MiB queue-memory bound: rejected.
	_, err = gate.admit(context.Background(), "")
	if !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("over-bound queue: err = %v, want ErrQueryRejected", err)
	}

	gate.release(held, 0)
	for i := 0; i < 2; i++ {
		if err := <-drained; err != nil {
			t.Fatalf("queued query after drain: %v", err)
		}
	}
	gate.mu.Lock()
	leftover := gate.queuedMem
	gate.mu.Unlock()
	if leftover != 0 {
		t.Errorf("queuedMem = %d after drain, want 0", leftover)
	}
}

// TestMemoryPressureDegradation: under memory pressure (hog holding > 3/4
// of the session limit) an admitted query gets a shrunken soft grant and
// spills toward it instead of failing.
func TestMemoryPressureDegradation(t *testing.T) {
	sess := tpchSession(0.005, Config{
		Parallelism:    2,
		MemoryLimit:    64 << 20,
		MinQueryMemory: 1 << 20,
		SpillDir:       t.TempDir(),
	})
	hog := &mem.FuncConsumer{ConsumerName: "hog",
		SpillFunc: func(n int64) (int64, error) { return 0, nil }}
	if err := sess.mm.Reserve(hog, 52<<20); err != nil { // > 3/4 of limit
		t.Fatal(err)
	}
	defer sess.mm.ReleaseAll(hog)
	_, stats, err := sess.SQLContextStats(context.Background(), tpch.Queries[6])
	if err != nil {
		t.Fatalf("degraded query failed: %v (degradation must not fail queries)", err)
	}
	if !stats.Degraded {
		t.Error("query under memory pressure not marked Degraded")
	}
}
