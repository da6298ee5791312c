package photon

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"photon/internal/fault"
	"photon/internal/sched"
	"photon/internal/tpch"
)

// TestChaosSoak is the seeded chaos acceptance test: with deterministic fault
// injection armed on the distributed-execution sites (shuffle write/read,
// broadcast fetch, task start), every TPC-H query at Parallelism 4 must still
// return exactly the clean sequential baseline, for each seed. Afterwards no
// memory reservations, shuffle files, or goroutines may leak. Probabilities
// are small per-hit but large per-query: a typical seed injects dozens of
// transient failures and latency stalls across the 22-query sweep, all of
// which the scheduler must absorb via bounded retries with jittered backoff.
//
// Only retry-covered sites are armed. Every query runs as a job of stages, so
// only admission-time mem-reserve faults go unretried; spill and mem-reserve
// failpoints are exercised by their own targeted tests instead
// (exec.TestSpillFailpointsRetryable, TestSingleTaskSpillReadRetried, fault
// package tests).
func TestChaosSoak(t *testing.T) {
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

	var totalFires int64
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := fault.NewRegistry(seed)
			r.Arm(fault.ShuffleWrite, fault.Policy{Prob: 0.003})
			r.Arm(fault.ShuffleRead, fault.Policy{Prob: 0.003})
			r.Arm(fault.BroadcastFetch, fault.Policy{Prob: 0.003})
			r.Arm(fault.TaskStart, fault.Policy{
				Prob:        0.01,
				Latency:     3 * time.Millisecond,
				LatencyProb: 0.02,
			})
			defer fault.Activate(r)()

			dir := t.TempDir()
			sess := tpchSession(sf, Config{Parallelism: 4, SpillDir: dir})
			r.Instrument(sess.Metrics())
			// Odd queries read lineitem from Delta files, so tasks fail and
			// retry with scans open.
			lakeCopy(t, sess, "lineitem", t.TempDir())
			// Extra retry headroom: one query makes hundreds of failpoint
			// hits, so a handful of attempts per task is not enough margin.
			sess.slotPool().SetOptions(sched.PoolOptions{
				MaxAttempts:     8,
				RetryBackoff:    50 * time.Microsecond,
				RetryBackoffCap: time.Millisecond,
			})

			for _, q := range queries {
				text := tpch.Queries[q]
				if q%2 == 1 {
					text = onLake(text)
				}
				res, err := sess.SQL(text)
				if err != nil {
					t.Fatalf("Q%d under chaos (seed %d): %v", q, seed, err)
				}
				if got := renderSorted(res.Rows); !equalStrings(got, baseline[q]) {
					t.Errorf("Q%d diverged under chaos (seed %d): %d rows, want %d",
						q, seed, len(got), len(baseline[q]))
				}
			}

			if used := sess.mm.Used(); used != 0 {
				t.Errorf("seed %d leaked %d reserved bytes", seed, used)
			}
			assertNoExchangeHeld(t, sess)
			assertNoShuffleFiles(t, dir)
			assertNoOpenFiles(t)
			totalFires += r.TotalFires()
			t.Logf("seed %d: %d faults injected", seed, r.TotalFires())
		})
	}
	if totalFires == 0 {
		t.Error("chaos soak injected zero faults: policies too weak or sites unwired")
	}
	waitGoroutines(t, baseGoroutines)
}
