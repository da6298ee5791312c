package photon

import (
	"context"
	"runtime"
	"testing"
)

// TestSmallQueryAllocation bounds the bytes one execution of a prepared
// lookup allocates at SF 0.01 — the point lookup and the nation ⋈ region
// join lookup of the benchmark's serving mix. A query that touches a few
// rows must not pay for buffers of a full batch: result batches hold the
// rows they keep, and operator scratch grows with the rows it sees. The
// bounds are about 1.5 times what the two lookups allocated when they were
// set (18.7 and 53.3 KB, against 80.7 and 483.5 KB before either held).
func TestSmallQueryAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	sess := tpchSession(0.01, Config{Parallelism: 2})
	cases := []struct {
		name, sql string
		key       int64
		maxKB     float64
	}{
		{"point_lookup", "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?", 1, 28},
		{"join_lookup", "SELECT n_nationkey, n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = ?", 7, 80},
	}
	for _, c := range cases {
		stmt, err := sess.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := stmt.Execute(context.Background(), c.key)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("%s: %d rows", c.name, len(res.Rows))
			}
		}
		for i := 0; i < 20; i++ { // plan cache, pools
			run()
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s: %.1f KB per execution", c.name, kb)
		if kb > c.maxKB {
			t.Errorf("%s allocates %.1f KB per execution, want at most %.0f", c.name, kb, c.maxKB)
		}
	}
}
