package driver

import (
	"context"
	"errors"
	"testing"
	"time"

	"photon/internal/sched"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/tpch"
)

// TestEveryRouteHoldsASlot holds a 1-slot pool's only slot from another job
// and runs a query on each route that does not stage: Parallelism 1 off the
// fast path, a hybrid plan and an unstageable plan at Parallelism 4. Each
// must wait for the slot, so a 50 ms timeout expires; once the slot is free
// each must return rows holding it.
func TestEveryRouteHoldsASlot(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	plan := func(q string) sql.LogicalPlan {
		t.Helper()
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sql.Analyze(cat, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if p, err = catalyst.Optimize(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	const groupBy = "SELECT o_orderpriority, count(*) FROM orders GROUP BY o_orderpriority"
	routes := []struct {
		name string
		q    string
		opts Options
	}{
		{"par1", groupBy, Options{Parallelism: 1}},
		{"hybrid-par4", groupBy, Options{Parallelism: 4,
			Config: catalyst.Config{PhotonUnsupported: map[string]bool{"aggregate": true}}}},
		{"unstageable-par4", "SELECT o_orderpriority, count(*) FROM (SELECT o_orderpriority FROM orders ORDER BY o_orderkey LIMIT 50) t GROUP BY o_orderpriority",
			Options{Parallelism: 4}},
	}
	for _, r := range routes {
		pool := sched.NewPool(1)
		other := pool.NewJob()
		if err := pool.Acquire(context.Background(), other); err != nil {
			t.Fatal(err)
		}
		opts := r.opts
		opts.Pool, opts.ShuffleDir = pool, t.TempDir()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		rows, _, err := Run(ctx, plan(r.q), opts)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: with the only slot held elsewhere got %d rows, err %v; want a timeout", r.name, len(rows), err)
		}
		pool.Release(other)

		var rs RunStats
		opts.Stats = &rs
		rows, _, err = Run(context.Background(), plan(r.q), opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(rows) == 0 || rs.SlotsHeldPeak != 1 {
			t.Errorf("%s: %d rows, SlotsHeldPeak %d; want rows on 1 slot", r.name, len(rows), rs.SlotsHeldPeak)
		}
	}
}
