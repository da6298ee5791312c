package driver

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"photon/internal/catalog"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/tpch"
)

// TestDistributedMatchesSingleTask runs every TPC-H query through the
// exchange-based stage DAG at Parallelism 4 and compares against
// single-task execution. This covers parallel scans, broadcast and shuffle
// joins, split aggregations, DISTINCT, and the two-phase parallel sort.
func TestDistributedMatchesSingleTask(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			single := runTPCH(t, cat, q, Options{Parallelism: 1, ShuffleDir: t.TempDir()})
			dist := runTPCH(t, cat, q, Options{Parallelism: 4, ShuffleDir: t.TempDir()})
			a := render(single)
			b := render(dist)
			sort.Strings(a)
			sort.Strings(b)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("Q%d: distributed (%d rows) != single (%d rows)", q, len(b), len(a))
			}
		})
	}
}

// TestShuffleJoinMatchesBroadcast forces the all-shuffle join path
// (BroadcastRows < 0) on join-heavy queries and checks results against the
// default broadcast planning.
func TestShuffleJoinMatchesBroadcast(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	for _, q := range []int{3, 5, 10, 12, 14, 18} {
		q := q
		t.Run(fmt.Sprintf("Q%02d", q), func(t *testing.T) {
			bcast := runTPCH(t, cat, q, Options{Parallelism: 4, ShuffleDir: t.TempDir()})
			shuf := runTPCH(t, cat, q, Options{
				Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: -1,
			})
			a := render(bcast)
			b := render(shuf)
			sort.Strings(a)
			sort.Strings(b)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("Q%d: shuffle join (%d rows) != broadcast join (%d rows)", q, len(b), len(a))
			}
		})
	}
}

func runTPCH(t *testing.T, cat *catalog.Catalog, q int, opts Options) [][]any {
	t.Helper()
	stmt, err := sql.Parse(tpch.Queries[q])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = catalyst.Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := Run(context.Background(), plan, opts)
	if err != nil {
		t.Fatalf("Q%d (par=%d): %v", q, opts.Parallelism, err)
	}
	return rows
}

func render(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func TestCoalescePartitions(t *testing.T) {
	// checkCover verifies every partition is assigned exactly once and that
	// partition order is preserved within and across groups.
	checkCover := func(t *testing.T, groups [][]int, n int) {
		t.Helper()
		next := 0
		for _, g := range groups {
			if len(g) == 0 {
				t.Fatal("empty group")
			}
			for _, p := range g {
				if p != next {
					t.Fatalf("expected partition %d, got %d (groups %v)", next, p, groups)
				}
				next++
			}
		}
		if next != n {
			t.Fatalf("covered %d of %d partitions (groups %v)", next, n, groups)
		}
	}

	// Skewed sizes: tiny partitions merge, big ones stand alone.
	groups := coalescePartitions([]int64{100, 5, 5, 5, 200, 5, 5})
	checkCover(t, groups, 7)
	if len(groups) >= 7 {
		t.Errorf("no coalescing happened: %v", groups)
	}

	// All-empty partitions still produce groups covering all.
	groups = coalescePartitions([]int64{0, 0, 0})
	checkCover(t, groups, 3)

	// Single partition: one group, one partition.
	groups = coalescePartitions([]int64{42})
	checkCover(t, groups, 1)
	if len(groups) != 1 {
		t.Fatalf("single partition produced %v", groups)
	}

	// Extreme skew (keyless aggregation): all bytes in partition 0. The
	// heavy partition must be alone in its group.
	groups = coalescePartitions([]int64{1 << 20, 0, 0, 0})
	checkCover(t, groups, 4)
	if len(groups[0]) != 1 || groups[0][0] != 0 {
		t.Errorf("heavy partition not isolated: %v", groups)
	}

	// Nearly even: a partition a hair under its share still stands alone.
	groups = coalescePartitions([]int64{93_230, 93_242})
	checkCover(t, groups, 2)
	if len(groups) != 2 {
		t.Errorf("nearly even partitions coalesced: %v", groups)
	}

	// Uniform sizes: no coalescing, one group per partition.
	groups = coalescePartitions([]int64{10, 10, 10, 10})
	checkCover(t, groups, 4)
	if len(groups) != 4 {
		t.Errorf("uniform partitions coalesced: %v", groups)
	}
}
