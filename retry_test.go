package photon

import (
	"context"
	"reflect"
	"testing"

	"photon/internal/fault"
)

// TestSingleTaskSpillReadRetried runs a spilling GROUP BY at Parallelism 1
// with the spill-read failpoint failing once. A damaged or unreadable spill
// stream is a transient fault, so the scheduler re-runs the task and the
// query returns the rows of an unarmed run.
func TestSingleTaskSpillReadRetried(t *testing.T) {
	const q = "SELECT l_orderkey, sum(l_quantity), count(*) FROM lineitem GROUP BY l_orderkey"
	cfg := Config{Parallelism: 1, MemoryLimit: 256 << 10, SpillDir: t.TempDir()}
	want, err := tpchSession(0.01, cfg).SQL(q)
	if err != nil {
		t.Fatal(err)
	}

	r := fault.NewRegistry(1)
	r.Arm(fault.SpillRead, fault.Policy{FailN: 1})
	defer fault.Activate(r)()
	got, err := tpchSession(0.01, cfg).SQLContext(context.Background(), q)
	if err != nil {
		t.Fatalf("spill-read fault was not retried: %v", err)
	}
	if r.Fires(fault.SpillRead) < 1 {
		t.Fatal("spill-read never fired: the query did not spill")
	}
	if g, w := renderSorted(got.Rows), renderSorted(want.Rows); !reflect.DeepEqual(g, w) {
		t.Fatalf("retried run: %d rows differ from the unarmed run's %d", len(g), len(w))
	}
}
