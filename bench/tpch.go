package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"photon"
	"photon/internal/sql"
	"photon/internal/tpch"
)

// benchBroadcastRows is the broadcast-join ceiling of both TPC-H workloads.
// At SF 0.1 the engine's default (4 Mi rows) broadcasts every join and the
// shuffle layer would never move a join row; 50 k makes
// lineitem/orders/partsupp joins shuffle and customer/part/supplier
// broadcast, the split a warehouse-scale run has.
const benchBroadcastRows = 50_000

//go:embed golden/*.json
var goldenFS embed.FS

// goldenPath names the digest file of a scale factor.
func goldenPath(sf float64) string { return fmt.Sprintf("golden/tpch_sf%g.json", sf) }

// loadGolden reads the row-engine digests of all 22 queries at sf.
func loadGolden(sf float64) (map[string]string, error) {
	data, err := goldenFS.ReadFile(goldenPath(sf))
	if err != nil {
		return nil, fmt.Errorf("no golden digests for SF %g (run with -regen-golden): %w", sf, err)
	}
	var g map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(sf), err)
	}
	return g, nil
}

// tpchClass names a query's class ("Q01".."Q22").
func tpchClass(q int) string { return fmt.Sprintf("Q%02d", q) }

// tpchOrdered reports whether the query fixes its own row order.
func tpchOrdered(q int) bool {
	stmt, err := sql.Parse(tpch.Queries[q])
	return err == nil && len(stmt.OrderBy) > 0
}

// tpchPassOrder returns the query order of successive passes for a seed:
// every pass runs all 22 queries once, in an order shuffled from the seed.
func tpchPassOrder(seed int64) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int {
		qs := tpch.QueryNumbers()
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		return qs
	}
}

// tpchWorkload is tpch_lake (tables on disk as Delta/Parquet/LZ4) or
// tpch_mem (the same tables registered in memory): one closed-loop client
// running seed-shuffled passes of all 22 queries.
type tpchWorkload struct {
	lake    bool
	sf      float64
	par     int
	seed    int64
	dataDir string
	keepMem bool // a traced lake run replays layers on the generated batches

	tables   *tableSet
	sess     *photon.Session
	golden   map[string]string
	ordered  map[int]bool
	nextPass func() []int
	userRows int64
}

func (w *tpchWorkload) name() string {
	if w.lake {
		return "tpch_lake"
	}
	return "tpch_mem"
}

func (w *tpchWorkload) reportsTail() bool { return false }
func (w *tpchWorkload) classes() []string {
	var out []string
	for _, q := range tpch.QueryNumbers() {
		out = append(out, tpchClass(q))
	}
	return out
}

func (w *tpchWorkload) sessionConfig() photon.Config {
	return photon.Config{Parallelism: w.par, BroadcastRows: benchBroadcastRows}
}

func (w *tpchWorkload) config() map[string]any {
	storage := "memory"
	if w.lake {
		storage = fmt.Sprintf("delta+parquet+lz4, lineitem/orders in %d files", lakeFiles)
	}
	return map[string]any{
		"sf": w.sf, "clients": 1, "parallelism": w.par,
		"broadcast_rows": benchBroadcastRows, "storage": storage, "loop": "closed",
	}
}

func (w *tpchWorkload) setUp() error {
	w.close()
	golden, err := loadGolden(w.sf)
	if err != nil {
		return err
	}
	w.golden = golden
	w.ordered = map[int]bool{}
	for _, q := range tpch.QueryNumbers() {
		w.ordered[q] = tpchOrdered(q)
	}
	ts, err := generateTPCH(w.sf)
	if err != nil {
		return err
	}
	if w.lake {
		if err := os.MkdirAll(w.dataDir, 0o755); err != nil {
			return err
		}
		if w.userRows, err = ts.writeLake(w.dataDir); err != nil {
			return err
		}
		if !w.keepMem {
			ts.mem = nil
		}
	}
	w.tables = ts
	w.sess = photon.NewSession(w.sessionConfig())
	if err := ts.install(w.sess); err != nil {
		return err
	}
	// Pass 0 fills the plan cache and the OS page cache; its timings are
	// discarded but its results are still checked.
	w.nextPass = tpchPassOrder(w.seed)
	warm := newRecorder(w.classes())
	w.pass(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of 22 queries failed: %v", warm.failed, warm.errs)
	}
	return nil
}

// pass runs one shuffled pass, timing each query, then digests the results
// off the clock.
func (w *tpchWorkload) pass(rec *recorder) {
	order := w.nextPass()
	results := make([]*photon.Result, len(order))
	errs := make([]error, len(order))
	ctx := context.Background()
	rec.begin()
	for i, q := range order {
		start := time.Now()
		results[i], errs[i] = w.sess.SQLContext(ctx, tpch.Queries[q])
		rec.op(q-1, time.Since(start))
	}
	rec.end()
	for i, q := range order {
		switch {
		case errs[i] != nil:
			rec.fail(q-1, errs[i])
		case digest(results[i], w.ordered[q]) != w.golden[tpchClass(q)]:
			rec.fail(q-1, fmt.Errorf("result digest differs from the row engine's golden digest"))
		}
	}
}

func (w *tpchWorkload) measure(d time.Duration, rec *recorder) {
	for start := time.Now(); time.Since(start) < d; {
		w.pass(rec)
	}
}

func (w *tpchWorkload) extra(m map[string]metric) error {
	if !w.lake {
		return nil
	}
	bytes, err := w.tables.storedBytes()
	if err != nil {
		return err
	}
	m["stored_bytes_per_row"] = metric{float64(bytes) / float64(w.userRows), "B"}
	return nil
}

func (w *tpchWorkload) close() {
	if w.lake {
		os.RemoveAll(w.dataDir)
	}
	w.tables, w.sess = nil, nil
}

// regenGolden recomputes the digest files with the interpreted row engine,
// single-task: the slowest, simplest path through the engine, sharing no
// operator, kernel or scheduler code with what the benchmark measures.
func regenGolden() error {
	for _, sf := range []float64{0.1, 0.005} {
		ts, err := generateTPCH(sf)
		if err != nil {
			return err
		}
		sess := photon.NewSession(photon.Config{Engine: photon.EngineDBRInterpreted, Parallelism: 1})
		if err := ts.install(sess); err != nil {
			return err
		}
		golden := map[string]string{}
		for _, q := range tpch.QueryNumbers() {
			start := time.Now()
			res, err := sess.SQLContext(context.Background(), tpch.Queries[q])
			if err != nil {
				return fmt.Errorf("SF %g Q%d on the row engine: %w", sf, q, err)
			}
			golden[tpchClass(q)] = digest(res, tpchOrdered(q))
			fmt.Fprintf(os.Stderr, "golden SF %g %s %d rows %v\n", sf, tpchClass(q), len(res.Rows), time.Since(start).Round(time.Millisecond))
		}
		if err := writeJSON(filepath.Join(benchDir(), goldenPath(sf)), golden); err != nil {
			return err
		}
	}
	return nil
}
