package driver

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"photon/internal/catalog"
	"photon/internal/fault"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/tpch"
)

// planTPCH parses, analyzes and optimizes TPC-H query q.
func planTPCH(t *testing.T, cat *catalog.Catalog, q int) sql.LogicalPlan {
	t.Helper()
	stmt, err := sql.Parse(tpch.Queries[q])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = catalyst.Optimize(plan); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRunLeavesNoQueryDir: whatever a run creates under ShuffleDir is gone
// when Run returns — on success, on cancellation in the middle of a stage,
// and on a permanent injected failure.
func TestRunLeavesNoQueryDir(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	assertEmpty := func(t *testing.T, dir string) {
		t.Helper()
		left, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("Run left %v under ShuffleDir", left)
		}
	}
	for _, bc := range []int64{0, -1} { // broadcast joins; every exchange a hash shuffle
		shape := "broadcast/"
		if bc < 0 {
			shape = "shuffle/"
		}
		t.Run(shape+"ok", func(t *testing.T) {
			dir := t.TempDir()
			runTPCH(t, cat, 3, Options{Parallelism: 4, ShuffleDir: dir, BroadcastRows: bc})
			assertEmpty(t, dir)
		})
		t.Run(shape+"cancelled mid-stage", func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			_, _, err := Run(ctx, planTPCH(t, cat, 3), Options{
				Parallelism: 4, ShuffleDir: dir, BroadcastRows: bc,
				// The first consuming task starts after its inputs committed.
				testTaskStart: func(f *catalyst.Fragment, taskID int, _ string) {
					if len(f.Inputs) > 0 {
						once.Do(cancel)
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			assertEmpty(t, dir)
		})
		t.Run(shape+"permanent failure", func(t *testing.T) {
			r := fault.NewRegistry(3)
			site := fault.ShuffleRead
			if bc == 0 {
				site = fault.BroadcastFetch
			}
			r.Arm(site, fault.Policy{FailN: 1, Permanent: true})
			defer fault.Activate(r)()
			dir := t.TempDir()
			_, _, err := Run(context.Background(), planTPCH(t, cat, 3), Options{
				Parallelism: 4, ShuffleDir: dir, BroadcastRows: bc,
			})
			if err == nil || r.Fires(site) == 0 {
				t.Fatalf("want the injected failure, got err=%v fires=%d", err, r.Fires(site))
			}
			assertEmpty(t, dir)
		})
	}
}
