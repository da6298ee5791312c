package catalyst

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"photon/internal/expr"
	"photon/internal/sql"
	"photon/internal/tpch"
)

// stagePlan parses/optimizes a query and runs the stage planner.
func stagePlan(t *testing.T, query string, cfg StageConfig) (*Fragment, error) {
	t.Helper()
	cat := fixture(t)
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	plan, err = Optimize(plan)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return PlanStages(plan, cfg)
}

func TestPlanStagesAggregate(t *testing.T) {
	frag, err := stagePlan(t, "SELECT c_name, count(*) FROM customer GROUP BY c_name",
		StageConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := frag.NumFragments(); got != 2 {
		t.Fatalf("fragments = %d, want 2\n%s", got, frag.Explain())
	}
	if frag.Out != ExchangeGather || !frag.ReadsHash {
		t.Fatalf("root fragment: out=%v readsHash=%v", frag.Out, frag.ReadsHash)
	}
	partial := frag.Inputs[0]
	if partial.Out != ExchangeHash || !partial.PartitionedScan {
		t.Fatalf("partial fragment: out=%v partScan=%v", partial.Out, partial.PartitionedScan)
	}
	if len(partial.HashCols) != 1 || partial.HashCols[0] != 0 {
		t.Fatalf("partial hash cols = %v, want [0]", partial.HashCols)
	}
	// The root fragment finishes the aggregation (possibly under a
	// projection); the input fragment emits partial states.
	if out := sql.ExplainPlan(frag.Root); !strings.Contains(out, "FinalAgg") {
		t.Fatalf("root plan missing FinalAgg:\n%s", out)
	}
	if _, ok := partial.Root.(*PartialAggPlan); !ok {
		t.Fatalf("partial plan = %T, want *PartialAggPlan", partial.Root)
	}
}

func TestPlanStagesBroadcastJoin(t *testing.T) {
	frag, err := stagePlan(t,
		"SELECT c_name, o_price FROM orders JOIN customer ON o_orderid = c_orderid",
		StageConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Small build side broadcasts: probe stays in the root fragment.
	if got := frag.NumFragments(); got != 2 {
		t.Fatalf("fragments = %d, want 2\n%s", got, frag.Explain())
	}
	if !frag.PartitionedScan {
		t.Fatal("probe fragment should own the partitioned scan")
	}
	build := frag.Inputs[0]
	if build.Out != ExchangeBroadcast {
		t.Fatalf("build fragment out = %v, want broadcast", build.Out)
	}
}

func TestPlanStagesShuffleJoin(t *testing.T) {
	frag, err := stagePlan(t,
		"SELECT c_name, o_price FROM orders JOIN customer ON o_orderid = c_orderid",
		StageConfig{Parallelism: 4, BroadcastRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Broadcast disabled: both sides hash-partition on the join key.
	if got := frag.NumFragments(); got != 3 {
		t.Fatalf("fragments = %d, want 3\n%s", got, frag.Explain())
	}
	if !frag.ReadsHash || frag.PartitionedScan {
		t.Fatalf("join fragment: readsHash=%v partScan=%v", frag.ReadsHash, frag.PartitionedScan)
	}
	for _, in := range frag.Inputs {
		if in.Out != ExchangeHash {
			t.Fatalf("join input out = %v, want hash", in.Out)
		}
		if len(in.HashCols) != 1 {
			t.Fatalf("join input hash cols = %v", in.HashCols)
		}
		if !in.PartitionedScan {
			t.Fatal("join input should scan partitioned")
		}
	}
}

func TestPlanStagesSortLimitTail(t *testing.T) {
	frag, err := stagePlan(t,
		"SELECT c_name, c_age FROM customer ORDER BY c_age DESC LIMIT 7",
		StageConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := frag.NumFragments(); got != 1 {
		t.Fatalf("fragments = %d, want 1\n%s", got, frag.Explain())
	}
	if len(frag.MergeKeys) != 1 || !frag.MergeKeys[0].Desc {
		t.Fatalf("merge keys = %v", frag.MergeKeys)
	}
	if frag.TailLimit != 7 {
		t.Fatalf("tail limit = %d, want 7", frag.TailLimit)
	}
	if !frag.PartitionedScan {
		t.Fatal("sort fragment should scan partitioned")
	}
	// The per-task plan must retain Sort+Limit so each task emits an
	// ordered superset of its global contribution.
	if _, ok := frag.Root.(*sql.LLimit); !ok {
		t.Fatalf("root plan = %T, want *sql.LLimit", frag.Root)
	}
}

func TestPlanStagesUnstageable(t *testing.T) {
	// Interior sorts (not part of the driver tail) cannot split.
	cat := fixture(t)
	stmt, _ := sql.Parse("SELECT c_name FROM customer ORDER BY c_name")
	plan, err := sql.Analyze(cat, stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ = Optimize(plan)
	sc := plan.Schema()
	wrapped := &sql.LProject{
		Child: plan,
		Exprs: []expr.Expr{expr.Col(0, sc.Field(0).Name, sc.Field(0).Type)},
		Names: []string{sc.Field(0).Name},
	}
	if _, err := PlanStages(wrapped, StageConfig{Parallelism: 4}); err == nil {
		t.Fatal("interior sort staged without error")
	}
}

// TestPlanStagesTPCH pins the multi-stage shapes of representative TPC-H
// queries: every query must stage, and the join-heavy and global-sort
// shapes must decompose into multiple parallel fragments.
func TestPlanStagesTPCH(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	wantMin := map[int]int{
		1: 2, // split aggregation
		3: 4, // joins + aggregation + sort tail
		5: 6, // six-table join plus aggregation
		6: 2, // keyless aggregation
	}
	for _, q := range tpch.QueryNumbers() {
		stmt, err := sql.Parse(tpch.Queries[q])
		if err != nil {
			t.Fatalf("Q%d parse: %v", q, err)
		}
		plan, err := sql.Analyze(cat, stmt)
		if err != nil {
			t.Fatalf("Q%d analyze: %v", q, err)
		}
		plan, err = Optimize(plan)
		if err != nil {
			t.Fatalf("Q%d optimize: %v", q, err)
		}
		frag, err := PlanStages(plan, StageConfig{Parallelism: 4})
		if err != nil {
			t.Errorf("Q%d: not staged: %v", q, err)
			continue
		}
		if m := wantMin[q]; m > 0 && frag.NumFragments() < m {
			t.Errorf("Q%d: %d fragments, want >= %d\n%s", q, frag.NumFragments(), m, frag.Explain())
		}
		if !strings.Contains(frag.Explain(), "Stage 0") {
			t.Errorf("Q%d: explain missing stage header:\n%s", q, frag.Explain())
		}
	}
}

func TestStageConfigBroadcastRows(t *testing.T) {
	for _, tc := range []struct {
		in   int64
		want int64
	}{{0, DefaultBroadcastRows}, {-1, -1}, {100, 100}} {
		if got := (StageConfig{BroadcastRows: tc.in}).broadcastRows(); got != tc.want {
			t.Errorf("broadcastRows(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFragmentExplain(t *testing.T) {
	frag, err := stagePlan(t,
		"SELECT c_name, count(*) FROM orders JOIN customer ON o_orderid = c_orderid GROUP BY c_name",
		StageConfig{Parallelism: 4, BroadcastRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	out := frag.Explain()
	for _, want := range []string{"out=hash", "out=gather", "ShuffleRead", "PartialAgg", "FinalAgg"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if frag.NumFragments() != 4 {
		t.Errorf("fragments = %d, want 4\n%s", frag.NumFragments(), out)
	}
	_ = fmt.Sprint(frag.Out) // String coverage
}

// tpchStages stage-plans a query over a small TPC-H catalog with runtime
// filters on.
func tpchStages(t *testing.T, query string, broadcastRows int64) *Fragment {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Analyze(tpch.NewGen(0.002).Generate(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = Optimize(plan); err != nil {
		t.Fatal(err)
	}
	frag, err := PlanStages(plan, StageConfig{Parallelism: 4, BroadcastRows: broadcastRows, RuntimeFilters: true})
	if err != nil {
		t.Fatal(err)
	}
	return frag
}

// planNodes lists a fragment-local plan's nodes in pre-order.
func planNodes(p sql.LogicalPlan) []sql.LogicalPlan {
	out := []sql.LogicalPlan{p}
	for _, c := range p.Children() {
		out = append(out, planNodes(c)...)
	}
	return out
}

// fragmentWith returns the fragment under root whose plan has a node whose
// String() contains substr (and fails unless exactly one does).
func fragmentWith(t *testing.T, root *Fragment, substr string) *Fragment {
	t.Helper()
	var found []*Fragment
	var walk func(f *Fragment)
	walk = func(f *Fragment) {
		for _, n := range planNodes(f.Root) {
			if strings.Contains(n.String(), substr) {
				found = append(found, f)
				break
			}
		}
		for _, in := range f.Inputs {
			walk(in)
		}
	}
	walk(root)
	if len(found) != 1 {
		t.Fatalf("%d fragments contain %q\n%s", len(found), substr, root.Explain())
	}
	return found[0]
}

// filtersOver returns the producers of the runtime filters stacked directly
// over node n of fragment f (n's String() contains substr), innermost first.
func filtersOver(t *testing.T, f *Fragment, substr string) []*Fragment {
	t.Helper()
	var stack []*RuntimeFilterPlan
	for _, n := range planNodes(f.Root) {
		if r, ok := n.(*RuntimeFilterPlan); ok {
			stack = append(stack, r)
			continue
		}
		if strings.Contains(n.String(), substr) {
			var prods []*Fragment
			for i := len(stack) - 1; i >= 0; i-- {
				prods = append(prods, stack[i].Producer)
			}
			return prods
		}
		stack = nil
	}
	t.Fatalf("stage %d has no node %q\n%s", f.ID, substr, sql.ExplainPlan(f.Root))
	return nil
}

// TestSinkRuntimeFilterQ18: the semi join's filter on o_orderkey sits above a
// shuffle join on that key, so it must land on both of that join's inputs —
// the orders scan by a column born on the build side, the lineitem scan by
// join-key equivalence — and both fragments must wait for its producer.
func TestSinkRuntimeFilterQ18(t *testing.T) {
	root := tpchStages(t, tpch.Queries[18], 1000)
	big := fragmentWith(t, root, "Filter((agg0 > ")
	if big.RFKeys == nil || big.Out != ExchangeBroadcast {
		t.Fatalf("big-orders fragment: keys %v out %v\n%s", big.RFKeys, big.Out, root.Explain())
	}
	semi := fragmentWith(t, root, "Join(LeftSemi")
	var orders, lineitem *Fragment
	for _, n := range planNodes(semi.Root) {
		if j, ok := n.(*sql.LJoin); ok && j.Kind == sql.JoinInner {
			l, lok := j.Left.(*ExchangeRead)
			r, rok := j.Right.(*ExchangeRead)
			if !lok || !rok || l.Broadcast || r.Broadcast {
				t.Fatalf("lineitem x orders is not a shuffle join\n%s", root.Explain())
			}
			lineitem, orders = l.Frag, r.Frag
		}
	}
	for _, c := range []struct {
		f    *Fragment
		scan string
	}{{orders, "Scan(orders"}, {lineitem, "Scan(lineitem"}} {
		if !slices.Contains(filtersOver(t, c.f, c.scan), big) {
			t.Errorf("stage %d: semi-join filter not over %s\n%s", c.f.ID, c.scan, root.Explain())
		}
		if !slices.Contains(c.f.RFInputs, big) {
			t.Errorf("stage %d does not wait for the semi join's build stage %d", c.f.ID, big.ID)
		}
	}
	if n := len(semi.RFInputs); n != 0 {
		t.Errorf("join fragment still consults %d filters; all should have sunk", n)
	}
}

// TestSinkRuntimeFilterQ21: nation's one-row filter is on a column born on
// the build side of the supplier join, so it filters supplier; the lates
// filter on the order key passes alls' final and partial aggregation to the
// lineitem scan under them.
func TestSinkRuntimeFilterQ21(t *testing.T) {
	root := tpchStages(t, tpch.Queries[21], 0)
	nation := fragmentWith(t, root, "Scan(nation")
	supplier := fragmentWith(t, root, "Scan(supplier")
	if !slices.Contains(filtersOver(t, supplier, "Scan(supplier"), nation) || !slices.Contains(supplier.RFInputs, nation) {
		t.Errorf("supplier is not filtered by nation\n%s", root.Explain())
	}
	lates := fragmentWith(t, root, "Filter((cnt_late = 1))")
	alls := fragmentWith(t, root, "Filter((cnt_all > 1))")
	if len(alls.Inputs) != 1 {
		t.Fatalf("alls has %d inputs", len(alls.Inputs))
	}
	partial := alls.Inputs[0]
	if _, ok := partial.Root.(*PartialAggPlan); !ok {
		t.Fatalf("alls' input root = %T, want *PartialAggPlan\n%s", partial.Root, root.Explain())
	}
	if !slices.Contains(filtersOver(t, partial, "Scan(lineitem"), lates) || !slices.Contains(partial.RFInputs, lates) {
		t.Errorf("alls' partial aggregate is not filtered by lates\n%s", root.Explain())
	}
	if got := partial.Label(); got != "PartialAgg->hash" {
		t.Errorf("label = %q", got)
	}
	if got := fragmentWith(t, root, "Scan(orders").Label(); got != "Scan->broadcast" {
		t.Errorf("label of a fragment rooted in runtime filters = %q, want it named after the scan", got)
	}
}

// filterBy returns the runtime filter of producer prod in fragment f.
func filterBy(t *testing.T, f, prod *Fragment) *RuntimeFilterPlan {
	t.Helper()
	for _, n := range planNodes(f.Root) {
		if r, ok := n.(*RuntimeFilterPlan); ok && r.Producer == prod {
			return r
		}
	}
	t.Fatalf("stage %d has no filter of stage %d\n%s", f.ID, prod.ID, sql.ExplainPlan(f.Root))
	return nil
}

// TestSinkRuntimeFilterQ17: part is a smaller build than avgq, which meets
// the lineitem rows that already joined part, so part's filter prunes the
// lineitem scan under avgq's partial aggregate, and avgq's filter does not
// go into part, which would have to wait for all of lineitem to aggregate.
func TestSinkRuntimeFilterQ17(t *testing.T) {
	root := tpchStages(t, tpch.Queries[17], 0)
	part := fragmentWith(t, root, "Scan(part,")
	partial := fragmentWith(t, root, "PartialAgg(l_partkey, avg")
	avgq := fragmentWith(t, root, "FinalAgg(l_partkey, avg")
	if !slices.Contains(filtersOver(t, partial, "Scan(lineitem"), part) || !slices.Contains(partial.RFInputs, part) {
		t.Errorf("avgq's partial aggregate is not filtered by part\n%s", root.Explain())
	}
	if part.reaches(avgq, map[*Fragment]bool{}) {
		t.Errorf("part still waits for avgq\n%s", root.Explain())
	}
}

// TestSinkRuntimeFilterQ20: fparts' one-column filter meets shipped, whose
// join key is (lpk, lsk), on its first column, and prunes shipped's lineitem
// scan on l_partkey alone.
func TestSinkRuntimeFilterQ20(t *testing.T) {
	root := tpchStages(t, tpch.Queries[20], 0)
	fparts := fragmentWith(t, root, "Scan(part,")
	shipped := fragmentWith(t, root, "PartialAgg(l_partkey, l_suppkey")
	if !slices.Contains(filtersOver(t, shipped, "Scan(lineitem"), fparts) || !slices.Contains(shipped.RFInputs, fparts) {
		t.Fatalf("shipped's lineitem scan is not filtered by fparts\n%s", root.Explain())
	}
	r := filterBy(t, shipped, fparts)
	if len(r.Keys) != 1 || r.Child.Schema().Field(r.Keys[0]).Name != "l_partkey" {
		t.Errorf("fparts' filter is on %v of %s, want l_partkey alone", r.Keys, r.Child)
	}
}

// TestSinkRuntimeFilterSkipsOuterAndAntiBuild: a filter on the probe-side
// key of a left-outer or anti join reaches the probe side's scan and never
// the build side, join-key equivalence or not.
func TestSinkRuntimeFilterSkipsOuterAndAntiBuild(t *testing.T) {
	for _, kind := range []string{"LEFT OUTER", "LEFT ANTI"} {
		root := tpchStages(t, "SELECT c_name FROM customer "+kind+" JOIN orders ON o_custkey = c_custkey "+
			"LEFT SEMI JOIN (SELECT s_suppkey sk FROM supplier WHERE s_acctbal > 0.00) s ON sk = c_custkey", 0)
		supplier := fragmentWith(t, root, "Scan(supplier")
		customer := fragmentWith(t, root, "Scan(customer")
		if !slices.Contains(filtersOver(t, customer, "Scan(customer"), supplier) {
			t.Errorf("%s: the semi join's filter did not reach customer\n%s", kind, root.Explain())
		}
		orders := fragmentWith(t, root, "Scan(orders")
		if len(orders.RFInputs) != 0 || len(filtersOver(t, orders, "Scan(orders")) != 0 {
			t.Errorf("%s: a filter landed in the build fragment\n%s", kind, root.Explain())
		}
	}
}

// TestSinkRuntimeFilterStops: a computed projection and an aggregate's value
// column are where a filter's column is born, so it stays above them.
func TestSinkRuntimeFilterStops(t *testing.T) {
	for _, c := range []struct{ query, above string }{
		{"SELECT k FROM (SELECT c_custkey + 0 k FROM customer) x " +
			"LEFT SEMI JOIN (SELECT s_suppkey sk FROM supplier) s ON sk = k", "Project((c_custkey + 0))"},
		{"SELECT nk FROM (SELECT c_nationkey nk, count(*) cnt FROM customer GROUP BY c_nationkey) g " +
			"LEFT SEMI JOIN (SELECT s_suppkey sk FROM supplier) s ON sk = cnt", "FinalAgg("},
	} {
		root := tpchStages(t, c.query, 0)
		supplier := fragmentWith(t, root, "Scan(supplier")
		customer := fragmentWith(t, root, "Scan(customer")
		if len(filtersOver(t, customer, "Scan(customer")) != 0 {
			t.Errorf("filter passed %s\n%s", c.above, root.Explain())
		}
		if !slices.Contains(filtersOver(t, fragmentWith(t, root, c.above), c.above), supplier) {
			t.Errorf("filter is not directly above %s\n%s", c.above, root.Explain())
		}
	}
}

// TestSinkRuntimeFilterRefusesCycle: a filter may not cross an exchange into
// a fragment its own producer waits for; it stays above the exchange read.
func TestSinkRuntimeFilterRefusesCycle(t *testing.T) {
	child := tpchStages(t, "SELECT c_custkey FROM customer", 0)
	childRoot := child.Root
	mid := &Fragment{ID: 7, Inputs: []*Fragment{child}}
	prod := &Fragment{ID: 8, RFInputs: []*Fragment{mid}} // prod -> mid -> child
	own := &Fragment{ID: 9}
	read := &ExchangeRead{Frag: child}

	got, ok := sinkRuntimeFilter(read, own, prod, []int{0}).(*RuntimeFilterPlan)
	if !ok || got.Child != sql.LogicalPlan(read) || got.Producer != prod {
		t.Fatalf("want the filter wrapped around the exchange read, got %v", got)
	}
	if child.Root != childRoot || len(child.RFInputs) != 0 {
		t.Error("the refused filter changed the child fragment")
	}
	if !slices.Contains(own.RFInputs, prod) {
		t.Error("the consuming fragment does not wait for the producer")
	}

	// An unrelated producer crosses.
	other := &Fragment{ID: 10}
	if _, wrapped := sinkRuntimeFilter(read, own, other, []int{0}).(*RuntimeFilterPlan); wrapped {
		t.Error("a filter whose producer does not reach the child stayed above the exchange")
	}
	if !slices.Contains(child.RFInputs, other) || slices.Contains(own.RFInputs, other) {
		t.Errorf("child waits for %v, consumer for %v", child.RFInputs, own.RFInputs)
	}
}
