package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"photon"
)

// Serving classes and their shares of the mix, in percent.
const (
	classPoint = iota
	classJoin
	classGroupAgg
	classColdCompile
)

var servingClasses = []string{"point_lookup", "join_lookup", "group_agg", "cold_compile"}

// servingShares is the cumulative class distribution over a draw in
// [0, 100).
var servingShares = [...]int{65, 85, 95, 100}

const (
	servingSF      = 0.01
	servingWarmUp  = 2 * time.Second // part of set-up: fills the plan cache and the cold-shape LRU
	pointLookupSQL = "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?"
	joinLookupSQL  = "SELECT n_nationkey, n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND n_nationkey = ?"
	nationCount    = 25
)

// coldColumns are the orders columns a cold_compile shape may project
// beside the key; every non-empty subset is a distinct normalized shape.
var coldColumns = []string{"o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate",
	"o_orderpriority", "o_clerk", "o_shippriority", "o_comment"}

// coldPredicates are three spellings of "key = k" that normalize
// differently.
var coldPredicates = []string{
	"%[1]s.o_orderkey = %[2]d",
	"%[1]s.o_orderkey BETWEEN %[2]d AND %[2]d",
	"%[1]s.o_orderkey >= %[2]d AND %[1]s.o_orderkey <= %[2]d",
}

// coldShapes is the length of one client's cold_compile cycle: 255 column
// subsets × 3 predicates = 765 distinct normalized shapes, three times
// photon.DefaultPlanCacheSize, so a shape is evicted long before its client
// comes round to it again and every cold_compile op pays parse → optimize.
var coldShapes = (1<<len(coldColumns) - 1) * len(coldPredicates)

// coldSQL renders shape i of client c's cycle. The table alias keeps the
// clients' shape sets disjoint, so one client cannot warm another's.
func coldSQL(client, i int, key int64) string {
	i %= coldShapes
	mask := i%(1<<len(coldColumns)-1) + 1
	alias := fmt.Sprintf("o%d", client)
	cols := []string{alias + ".o_orderkey"}
	for b, c := range coldColumns {
		if mask&(1<<b) != 0 {
			cols = append(cols, alias+"."+c)
		}
	}
	pred := fmt.Sprintf(coldPredicates[i/(1<<len(coldColumns)-1)], alias, key)
	return fmt.Sprintf("SELECT %s FROM orders %s WHERE %s", strings.Join(cols, ", "), alias, pred)
}

// groupAggSQL is the ad-hoc aggregate; only the literal varies, so after
// the first execution every text normalizes to a cached shape.
func groupAggSQL(below int64) string {
	return fmt.Sprintf("SELECT o_orderpriority, count(*), max(o_totalprice) FROM orders WHERE o_orderkey < %d GROUP BY o_orderpriority", below)
}

// servingOp is one generated request.
type servingOp struct {
	class int
	key   int64 // order key, nation key, or group_agg's exclusive upper bound
	shape int   // cold_compile: position in the client's shape cycle
}

// servingOps returns client c's request stream for a seed: class by the
// fixed shares, keys drawn from the generated tables.
func servingOps(seed int64, client int, orderKeys []int64) func() servingOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	shape := 0
	return func() servingOp {
		draw := rng.Intn(100)
		class := sort.SearchInts(servingShares[:], draw+1)
		op := servingOp{class: class}
		switch class {
		case classJoin:
			op.key = int64(rng.Intn(nationCount))
		case classGroupAgg:
			op.key = orderKeys[rng.Intn(len(orderKeys))] + 1
		case classColdCompile:
			op.key = orderKeys[rng.Intn(len(orderKeys))]
			op.shape = shape
			shape++
		default:
			op.key = orderKeys[rng.Intn(len(orderKeys))]
		}
		return op
	}
}

// servingWorkload is serving_mix: nproc closed-loop clients over small
// in-memory tables, where the front end (parse, plan cache, bind,
// admission, fast path, result boxing) is the cost and operators are noise.
type servingWorkload struct {
	par    int
	seed   int64
	sf     float64
	warmUp time.Duration

	tables    *tableSet
	sess      *photon.Session
	point     *photon.PreparedStatement
	join      *photon.PreparedStatement
	orderKeys []int64 // ascending
	streams   []func() servingOp
}

func (w *servingWorkload) name() string      { return "serving_mix" }
func (w *servingWorkload) reportsTail() bool { return true }
func (w *servingWorkload) classes() []string { return servingClasses }

func (w *servingWorkload) sessionConfig() photon.Config {
	return photon.Config{Parallelism: w.par}
}

func (w *servingWorkload) config() map[string]any {
	return map[string]any{
		"sf": w.sf, "clients": w.par, "parallelism": w.par, "storage": "memory", "loop": "closed",
		"mix":         "65% point_lookup, 20% join_lookup, 10% group_agg, 5% cold_compile",
		"cold_shapes": coldShapes, "plan_cache_size": photon.DefaultPlanCacheSize,
	}
}

func (w *servingWorkload) setUp() error {
	w.close()
	ts, err := generateTPCH(w.sf)
	if err != nil {
		return err
	}
	w.tables = ts
	w.orderKeys = w.orderKeys[:0]
	for _, b := range ts.mem["orders"].Batches {
		w.orderKeys = append(w.orderKeys, b.Vecs[0].I64[:b.NumRows]...)
	}
	sort.Slice(w.orderKeys, func(i, j int) bool { return w.orderKeys[i] < w.orderKeys[j] })
	w.sess = photon.NewSession(w.sessionConfig())
	if err := ts.install(w.sess); err != nil {
		return err
	}
	if w.point, err = w.sess.Prepare(pointLookupSQL); err != nil {
		return err
	}
	if w.join, err = w.sess.Prepare(joinLookupSQL); err != nil {
		return err
	}
	w.streams = make([]func() servingOp, w.par)
	for c := range w.streams {
		w.streams[c] = servingOps(w.seed, c, w.orderKeys)
	}
	warm := newRecorder(servingClasses)
	w.measure(w.warmUp, warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted(), warm.errs)
	}
	return nil
}

// issue executes one request and checks its result: one row echoing the
// key for the lookups, and for group_agg at most five priority groups
// whose counts sum to the number of orders below the bound.
func (w *servingWorkload) issue(ctx context.Context, client int, op servingOp) error {
	var res *photon.Result
	var err error
	switch op.class {
	case classPoint:
		res, err = w.point.Execute(ctx, op.key)
	case classJoin:
		res, err = w.join.Execute(ctx, op.key)
	case classGroupAgg:
		res, err = w.sess.SQLContext(ctx, groupAggSQL(op.key))
	default:
		res, err = w.sess.SQLContext(ctx, coldSQL(client, op.shape, op.key))
	}
	if err != nil {
		return err
	}
	if op.class == classGroupAgg {
		want := int64(sort.Search(len(w.orderKeys), func(i int) bool { return w.orderKeys[i] >= op.key }))
		var got int64
		for _, row := range res.Rows {
			got += row[1].(int64)
		}
		if got != want || len(res.Rows) > 5 {
			return fmt.Errorf("group_agg below %d: %d groups counting %d orders, want %d", op.key, len(res.Rows), got, want)
		}
		return nil
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != any(op.key) {
		return fmt.Errorf("lookup of key %d returned %d rows %v", op.key, len(res.Rows), res.Rows)
	}
	return nil
}

// measure runs every client for a fixed window. The result check is a row
// count and a key comparison, nanoseconds beside a query, so it runs inline.
func (w *servingWorkload) measure(d time.Duration, rec *recorder) {
	clients := make([]*recorder, w.par)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	rec.begin()
	for c := range clients {
		clients[c] = newRecorder(servingClasses)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			r, next := clients[c], w.streams[c]
			for time.Now().Before(deadline) {
				op := next()
				start := time.Now()
				err := w.issue(ctx, c, op)
				r.op(op.class, time.Since(start))
				if err != nil {
					r.fail(op.class, err)
				}
			}
		}(c)
	}
	wg.Wait()
	rec.end()
	for _, r := range clients {
		rec.merge(r)
	}
}

func (w *servingWorkload) extra(map[string]metric) error { return nil }

func (w *servingWorkload) close() { w.tables, w.sess = nil, nil }
