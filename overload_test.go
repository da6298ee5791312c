package photon

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/fault"
	"photon/internal/sched"
	"photon/internal/tpch"
)

// TestOverloadSoak is the multi-tenant overload acceptance test: four
// tenants with mixed weights and quotas drive 32 concurrent clients
// through all 22 TPC-H queries against one session whose admission gate is
// far narrower than the offered load, with seeded mem-reserve and
// task-start failpoints armed, under -race. Every query must end in
// exactly one of {ok, rejected, timeout, cancelled} or fail with an
// injected fault error — nothing else. Successful queries must match the
// clean sequential baseline; a follow-up contention burst must show the
// weight-3 tenant out-earning its weight-1 peer in slot-seconds; and
// afterwards no memory reservations, shuffle files, or goroutines may
// remain.
func TestOverloadSoak(t *testing.T) {
	const sf = 0.002
	queries := tpch.QueryNumbers()
	baseGoroutines := runtime.NumGoroutine()

	// Clean sequential baseline, computed before any failpoint is armed.
	baseSess := tpchSession(sf, Config{})
	baseline := map[int][]string{}
	for _, q := range queries {
		res, err := baseSess.SQL(tpch.Queries[q])
		if err != nil {
			t.Fatalf("baseline Q%d: %v", q, err)
		}
		baseline[q] = renderSorted(res.Rows)
	}

	r := fault.NewRegistry(11)
	r.Arm(fault.MemReserve, fault.Policy{Prob: 0.002})
	r.Arm(fault.TaskStart, fault.Policy{
		Prob:        0.005,
		Latency:     2 * time.Millisecond,
		LatencyProb: 0.02,
	})
	defer fault.Activate(r)()

	dir := t.TempDir()
	// Parallelism 2: the slot pool, not admission, is the bottleneck, so
	// the weighted-fair dispatch policy is what sets tenant throughput.
	sess := tpchSession(sf, Config{
		Parallelism:    2,
		SpillDir:       dir,
		MemoryLimit:    64 << 20,
		MinQueryMemory: 1 << 20,
		// Room for the storm and for however many queries the burst below
		// fits into its three seconds: the per-tenant history check at the
		// end must not depend on how fast the engine is.
		QueryHistorySize: 1 << 15,
		// Admission wide open globally (tenant quotas still bind): a
		// narrow global FIFO gate would serialize tenants round-robin and
		// mask the pool's weighted-fair dispatch, which is what sets
		// tenant throughput here. The global concurrency cap and
		// queue-memory bound have their own unit tests
		// (TestAdmissionQueueAndReject, TestQueueMemoryBound).
		MaxConcurrentQueries: 0,
		AdmissionQueueMemory: 8 << 20,
		Tenants: map[string]TenantConfig{
			"gold":   {Weight: 3},
			"silver": {Weight: 1},
			"bronze": {Weight: 1, MaxConcurrent: 2, MaxQueued: 4},
			"batch":  {Weight: 1, MaxConcurrent: 1, MaxQueued: -1},
		},
	})
	// tpchSession swaps in a generated catalog; put the photon_* virtual
	// tables back so the post-soak introspection queries run.
	sess.registerSystemTables()
	r.Instrument(sess.Metrics())
	// A third of the submissions read lineitem from Delta files, so queries
	// are cancelled, shed, timed out and fault-injected with scans open.
	lakeCopy(t, sess, "lineitem", t.TempDir())
	// Retry headroom for the armed transient failpoints: every query runs as
	// a job of stages, so the scheduler retries them; only admission-time
	// mem-reserve faults go unretried, which the classification below
	// allows as injected.
	sess.slotPool().SetOptions(sched.PoolOptions{
		MaxAttempts:     8,
		RetryBackoff:    50 * time.Microsecond,
		RetryBackoffCap: time.Millisecond,
	})

	tenants := []string{"gold", "silver", "bronze", "batch"}
	// 8 clients per tenant: deep enough backlog at the 2-slot pool that
	// every tenant keeps waiters queued and the weighted shares express.
	const clientsPerTenant = 8
	var wg sync.WaitGroup
	var ok, rejected, timeout, cancelled, injected atomic.Int64
	for ti, tenant := range tenants {
		for c := 0; c < clientsPerTenant; c++ {
			tenant, client := tenant, ti*clientsPerTenant+c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range queries {
					q := queries[(i+client)%len(queries)] // rotate start per client
					ctx := WithTenant(context.Background(), tenant)
					var cancel context.CancelFunc = func() {}
					switch {
					case (i+client)%8 == 7:
						// Pre-cancelled submission: must fast-fail as cancelled.
						ctx, cancel = context.WithCancel(ctx)
						cancel()
					case client%4 == 3:
						// Tight deadline under overload: timeout or shed.
						ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
					}
					text := tpch.Queries[q]
					if (i+client)%3 == 0 {
						text = onLake(text)
					}
					res, stats, err := sess.SQLContextStats(ctx, text)
					cancel()
					if err == nil && stats.Tenant != tenant {
						t.Errorf("Q%d ran as tenant %q, want %q", q, stats.Tenant, tenant)
					}
					var fe *fault.Error
					switch {
					case err == nil:
						ok.Add(1)
						if got := renderSorted(res.Rows); !equalStrings(got, baseline[q]) {
							t.Errorf("%s Q%d diverged under overload: %d rows, want %d",
								tenant, q, len(got), len(baseline[q]))
						}
					case errors.Is(err, ErrQueryRejected):
						rejected.Add(1)
					case errors.Is(err, context.DeadlineExceeded):
						timeout.Add(1)
					case errors.Is(err, context.Canceled):
						cancelled.Add(1)
					case errors.As(err, &fe):
						// A seeded fault surfaced on a non-retried path.
						injected.Add(1)
					default:
						t.Errorf("%s Q%d: unexplained failure: %v", tenant, q, err)
					}
				}
			}()
		}
	}
	wg.Wait()

	total := ok.Load() + rejected.Load() + timeout.Load() + cancelled.Load() + injected.Load()
	want := int64(len(tenants) * clientsPerTenant * len(queries))
	if total != want {
		t.Errorf("classified %d outcomes, want %d", total, want)
	}
	if ok.Load() == 0 {
		t.Error("soak completed zero queries")
	}
	if cancelled.Load() == 0 {
		t.Error("pre-cancelled submissions produced no cancelled outcomes")
	}
	t.Logf("outcomes: ok=%d rejected=%d timeout=%d cancelled=%d injected=%d (faults fired: %d)",
		ok.Load(), rejected.Load(), timeout.Load(), cancelled.Load(), injected.Load(), r.TotalFires())

	// Storm-phase slot-seconds are demand-limited (closed-loop clients
	// spend most of each cycle off-pool, so the work-conserving pool
	// backfills idle share) — log them, but prove weighted fairness with
	// a dedicated burst where both tenants stay backlogged at the pool.
	for _, u := range sess.slotPool().TenantUsages() {
		t.Logf("storm pool tenant %s: weight=%d slot-seconds=%.3f", u.Name, u.Weight, u.SlotSeconds)
	}

	// Weighted fairness under sustained pool contention: gold (weight 3)
	// and silver (weight 1) hammer one query with enough goroutines that
	// both always have pool waiters; the slot-second deltas must favor
	// gold. The exact ±15% bound on the 3:1 ratio is asserted by the
	// sched-level property test (TestPoolWeightedFairness); end to end,
	// off-slot time (parse, fetch) dilutes the ratio, so assert a
	// conservative floor.
	before := map[string]float64{}
	for _, u := range sess.slotPool().TenantUsages() {
		before[u.Name] = u.SlotSeconds
	}
	burstStop := make(chan struct{})
	var burst sync.WaitGroup
	for _, tenant := range []string{"gold", "silver"} {
		for c := 0; c < 6; c++ {
			tenant := tenant
			burst.Add(1)
			go func() {
				defer burst.Done()
				ctx := WithTenant(context.Background(), tenant)
				for {
					select {
					case <-burstStop:
						return
					default:
					}
					var fe *fault.Error
					if _, err := sess.SQLContext(ctx, tpch.Queries[1]); err != nil && !errors.As(err, &fe) {
						t.Errorf("%s burst query: %v", tenant, err)
						return
					}
				}
			}()
		}
	}
	time.Sleep(3 * time.Second)
	close(burstStop)
	burst.Wait()
	var goldSec, silverSec float64
	for _, u := range sess.slotPool().TenantUsages() {
		switch u.Name {
		case "gold":
			goldSec = u.SlotSeconds - before[u.Name]
		case "silver":
			silverSec = u.SlotSeconds - before[u.Name]
		}
	}
	if silverSec <= 0 || goldSec/silverSec < 1.5 {
		t.Errorf("burst slot-seconds gold=%.3f silver=%.3f (ratio %.2f), want ratio >= 1.5 for weights 3:1",
			goldSec, silverSec, goldSec/silverSec)
	}
	t.Logf("burst slot-seconds: gold=%.3f silver=%.3f (ratio %.2f)", goldSec, silverSec, goldSec/silverSec)

	// The system tables stay queryable after the storm and carry tenant
	// identity end to end.
	res, err := sess.SQL("SELECT tenant, admitted, rejected, shed FROM photon_tenants")
	if err != nil {
		t.Fatalf("photon_tenants after soak: %v", err)
	}
	if len(res.Rows) < 4 {
		t.Errorf("photon_tenants rows = %d, want >= 4 (one per tenant)", len(res.Rows))
	}
	res, err = sess.SQL("SELECT tenant, count(*) FROM photon_queries GROUP BY tenant")
	if err != nil {
		t.Fatalf("photon_queries by tenant: %v", err)
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		seen[fmt.Sprint(row[0])] = true
	}
	for _, tenant := range tenants {
		if !seen[tenant] {
			t.Errorf("photon_queries history has no rows for tenant %q", tenant)
		}
	}

	// Zero leaks: memory, shuffle/spill files, data-file descriptors,
	// goroutines.
	if used := sess.mm.Used(); used != 0 {
		t.Errorf("leaked %d reserved bytes after soak", used)
	}
	assertNoExchangeHeld(t, sess)
	assertNoShuffleFiles(t, dir)
	assertNoOpenFiles(t)
	waitGoroutines(t, baseGoroutines)
}
