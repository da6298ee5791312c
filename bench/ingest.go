package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"photon"
	"photon/internal/types"
)

const (
	ingestAppendRows = 20_000 // rows per append op: one data file per cycle
	ingestSelectRows = 5_000  // rows a wide_select returns
	ingestCycles     = 16     // cycles per epoch; each epoch starts a fresh table
	ingestWarmCycles = 4
)

const (
	classAppend = iota
	classScanAgg
	classWideSelect
)

var ingestClasses = []string{"append", "scan_agg", "wide_select"}

var eventKinds = []string{"click", "view", "purchase", "refund", "login", "logout", "search", "share"}

// eventsSchema is the bench-generated table: one column per physical type
// the storage layer encodes differently.
var eventsSchema = photon.NewSchema(
	types.Field{Name: "id", Type: types.Int64Type},
	types.Field{Name: "day", Type: types.DateType},
	types.Field{Name: "kind", Type: types.StringType},               // low cardinality: dictionary pages
	types.Field{Name: "tag", Type: types.StringType},                // high cardinality: plain pages
	types.Field{Name: "amount", Type: types.DecimalType(12, 2)},     //
	types.Field{Name: "score", Type: types.Float64Type},             //
	types.Field{Name: "opt", Type: types.Int32Type, Nullable: true}, // ~1 in 8 NULL
)

const (
	scanAggSQL    = "SELECT kind, count(*), sum(amount), count(opt) FROM events GROUP BY kind"
	wideSelectSQL = "SELECT * FROM events WHERE id BETWEEN %d AND %d"
)

// splitmix64 is the row generator's hash: every column of row id is a pure
// function of (seed, id), so any id range can be regenerated to check a
// wide_select without retaining the appended rows.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// eventRow generates row id for a seed.
func eventRow(seed, id int64) []any {
	h := splitmix64(uint64(seed)<<32 ^ uint64(id))
	h2 := splitmix64(h)
	var opt any
	if h2%8 != 0 {
		opt = int32(h2 >> 40 % 1000)
	}
	return []any{
		id,
		int32(18_000 + h%730), // two years of days from 2019-04-14
		eventKinds[h>>16%uint64(len(eventKinds))],
		fmt.Sprintf("u-%016x", h2),
		types.DecimalFromInt64(int64(h >> 24 % 1_000_000)), // 0.00 .. 9999.99
		float64(h2%1_000_000) / 1e3,
		opt,
	}
}

// eventRows generates ids [from, from+n).
func eventRows(seed, from int64, n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = eventRow(seed, from+int64(i))
	}
	return rows
}

// kindTally is the generator's own running answer to scan_agg.
type kindTally struct {
	count, cents, opts int64
}

// ingestWorkload is ingest_readback: one client appending to a Delta table
// and reading it back, so Parquet encode, LZ4 compress, the Delta commit,
// log replay on refresh, plan-cache invalidation on every commit and
// wide-row boxing are all on the clock beside the scans.
//
// The table grows by one file per cycle, so latency depends on the cycle
// index. To keep the measured distribution the same however many cycles a
// window fits, cycles run in epochs of ingestCycles, each on a fresh table,
// and a window measures whole epochs.
type ingestWorkload struct {
	par     int
	seed    int64
	dataDir string
	cycles  int

	sess    *photon.Session
	table   *photon.DeltaTable
	dir     string // current epoch's Delta directory
	epoch   int
	nextID  int64
	firstID int64 // first id of the current epoch
	tally   map[string]*kindTally
	rng     *rand.Rand
}

func (w *ingestWorkload) name() string      { return "ingest_readback" }
func (w *ingestWorkload) reportsTail() bool { return true }
func (w *ingestWorkload) classes() []string { return ingestClasses }

func (w *ingestWorkload) sessionConfig() photon.Config {
	return photon.Config{Parallelism: w.par}
}

func (w *ingestWorkload) config() map[string]any {
	return map[string]any{
		"clients": 1, "parallelism": w.par, "storage": "delta+parquet+lz4", "loop": "closed",
		"append_rows": ingestAppendRows, "select_rows": ingestSelectRows, "cycles_per_epoch": w.cycles,
	}
}

func (w *ingestWorkload) setUp() error {
	w.close()
	if err := os.MkdirAll(w.dataDir, 0o755); err != nil {
		return err
	}
	w.sess = photon.NewSession(w.sessionConfig())
	w.rng = rand.New(rand.NewSource(w.seed))
	w.nextID, w.epoch = 0, 0
	warm := newRecorder(ingestClasses)
	if err := w.runEpoch(min(ingestWarmCycles, w.cycles), warm); err != nil {
		return err
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted(), warm.errs)
	}
	return nil
}

// newEpoch replaces the events table with an empty one in a fresh
// directory (off the clock).
func (w *ingestWorkload) newEpoch() error {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.epoch++
	w.dir = filepath.Join(w.dataDir, fmt.Sprintf("events-%d", w.epoch))
	t, err := w.sess.CreateDeltaTable("events", w.dir, eventsSchema)
	if err != nil {
		return fmt.Errorf("create events table: %w", err)
	}
	w.table = t
	w.firstID = w.nextID
	w.tally = map[string]*kindTally{}
	return nil
}

// runEpoch runs n append → scan_agg → wide_select cycles on a fresh table.
func (w *ingestWorkload) runEpoch(n int, rec *recorder) error {
	if err := w.newEpoch(); err != nil {
		return err
	}
	ctx := context.Background()
	for c := 0; c < n; c++ {
		rows := eventRows(w.seed, w.nextID, ingestAppendRows)
		for _, r := range rows {
			t := w.tally[r[2].(string)]
			if t == nil {
				t = &kindTally{}
				w.tally[r[2].(string)] = t
			}
			t.count++
			t.cents += int64(r[4].(types.Decimal128).Lo)
			if r[6] != nil {
				t.opts++
			}
		}
		w.nextID += ingestAppendRows
		lo := w.firstID + w.rng.Int63n(w.nextID-w.firstID-ingestSelectRows+1)
		hi := lo + ingestSelectRows - 1

		rec.begin()
		start := time.Now()
		appendErr := w.table.AppendRows(rows)
		appendTook := time.Since(start)
		rec.op(classAppend, appendTook)

		start = time.Now()
		agg, aggErr := w.sess.SQLContext(ctx, scanAggSQL)
		rec.op(classScanAgg, time.Since(start))

		start = time.Now()
		wide, wideErr := w.sess.SQLContext(ctx, fmt.Sprintf(wideSelectSQL, lo, hi))
		rec.op(classWideSelect, time.Since(start))
		rec.end()

		rec.appendRows += ingestAppendRows
		rec.appendNs += int64(appendTook)
		if appendErr != nil {
			rec.fail(classAppend, appendErr)
		}
		if aggErr == nil {
			aggErr = w.checkScanAgg(agg)
		}
		if aggErr != nil {
			rec.fail(classScanAgg, aggErr)
		}
		if wideErr == nil {
			wideErr = w.checkWideSelect(wide, lo, hi)
		}
		if wideErr != nil {
			rec.fail(classWideSelect, wideErr)
		}
	}
	return nil
}

// checkScanAgg compares scan_agg's groups with the generator's tallies.
func (w *ingestWorkload) checkScanAgg(res *photon.Result) error {
	if len(res.Rows) != len(w.tally) {
		return fmt.Errorf("scan_agg returned %d kinds, generated %d", len(res.Rows), len(w.tally))
	}
	for _, row := range res.Rows {
		t := w.tally[row[0].(string)]
		if t == nil {
			return fmt.Errorf("scan_agg returned unknown kind %v", row[0])
		}
		sum := row[2].(types.Decimal128)
		if row[1].(int64) != t.count || sum != types.DecimalFromInt64(t.cents) || row[3].(int64) != t.opts {
			return fmt.Errorf("scan_agg kind %v = (%v, %v, %v), generated (%d, %d cents, %d)",
				row[0], row[1], types.FormatDecimal(sum, 2), row[3], t.count, t.cents, t.opts)
		}
	}
	return nil
}

// checkWideSelect regenerates ids [lo, hi] and compares canonical rows.
func (w *ingestWorkload) checkWideSelect(res *photon.Result, lo, hi int64) error {
	want := canonicalRows(&photon.Result{Schema: eventsSchema, Rows: eventRows(w.seed, lo, int(hi-lo+1))}, false)
	got := canonicalRows(res, false)
	if len(got) != len(want) {
		return fmt.Errorf("wide_select [%d, %d] returned %d rows, want %d", lo, hi, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("wide_select [%d, %d] row %d = %q, generated %q", lo, hi, i, got[i], want[i])
		}
	}
	return nil
}

func (w *ingestWorkload) measure(d time.Duration, rec *recorder) {
	for start := time.Now(); time.Since(start) < d; {
		if err := w.runEpoch(w.cycles, rec); err != nil {
			rec.op(classAppend, 0)
			rec.fail(classAppend, err)
			return
		}
	}
}

// extra reports the last epoch's bytes on disk per appended row.
func (w *ingestWorkload) extra(m map[string]metric) error {
	bytes, err := dirBytes(w.dir)
	if err != nil {
		return err
	}
	m["stored_bytes_per_row"] = metric{float64(bytes) / float64(w.nextID-w.firstID), "B"}
	return nil
}

func (w *ingestWorkload) close() {
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
	w.sess, w.table, w.dir = nil, nil, ""
}
