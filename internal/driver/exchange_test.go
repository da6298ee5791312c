package driver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"photon/internal/catalog"
	"photon/internal/fault"
	"photon/internal/mem"
	"photon/internal/obs"
	"photon/internal/sched"
	"photon/internal/shuffle"
	"photon/internal/sql"
	"photon/internal/sql/catalyst"
	"photon/internal/tpch"
	"photon/internal/vector"
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
				testTaskStart: func(f *catalyst.Fragment, taskID int, _ *stagedJob) {
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

// spillAtTaskStart is a testTaskStart hook that writes everything the
// exchange store holds to files before each task starts: a task's inputs
// were all committed by then, so it reads every one of them from a file.
func spillAtTaskStart(t *testing.T) func(*catalyst.Fragment, int, *stagedJob) {
	return func(_ *catalyst.Fragment, _ int, j *stagedJob) {
		if _, err := j.store.Spill(math.MaxInt64); err != nil {
			t.Errorf("write out the exchange store: %v", err)
		}
	}
}

// TestExchangeInMemoryMatchesFiles runs all 22 TPC-H queries at parallelism
// 4, with broadcast joins and with every join forced to shuffle, once with
// exchanges left where the size of their partitions puts them and once with
// every map output forced to files: same rows. At this scale factor nothing
// fills a block, so the first run writes no file at all.
func TestExchangeInMemoryMatchesFiles(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	for _, bc := range []int64{0, -1} {
		for _, q := range tpch.QueryNumbers() {
			t.Run(fmt.Sprintf("broadcast=%v/Q%02d", bc == 0, q), func(t *testing.T) {
				memReg, fileReg := obs.NewRegistry(), obs.NewRegistry()
				var memStats, fileStats RunStats
				inMem := runTPCH(t, cat, q, Options{Parallelism: 4, ShuffleDir: t.TempDir(),
					BroadcastRows: bc, Metrics: memReg, Stats: &memStats})
				files := runTPCH(t, cat, q, Options{Parallelism: 4, ShuffleDir: t.TempDir(),
					BroadcastRows: bc, Metrics: fileReg, Stats: &fileStats, testTaskStart: spillAtTaskStart(t)})
				if a, b := render(inMem), render(files); !equalSorted(a, b) {
					t.Fatalf("in memory %d rows, through files %d rows", len(a), len(b))
				}
				// Committed attempts only (the profile): a speculative duplicate's
				// rows are in the counters too.
				sum := func(rs RunStats) (rows, memRows, bytes int64) {
					for _, st := range rs.Profile.Stages {
						rows, memRows, bytes = rows+st.ShuffleRows, memRows+st.ShuffleMemRows, bytes+st.ShuffleBytes
					}
					return
				}
				rows, kept, bytes := sum(memStats)
				if kept != rows || bytes != 0 || memReg.Counter("photon_shuffle_write_bytes_total", "").Load() != 0 {
					t.Errorf("unforced run: %d of %d exchanged rows handed over in memory, %d bytes to files", kept, rows, bytes)
				}
				if forced, _, _ := sum(fileStats); forced != rows {
					t.Errorf("forced run exchanged %d rows, unforced %d", forced, rows)
				}
				if rows > 0 && fileReg.Counter("photon_shuffle_read_bytes_total", "").Load() == 0 {
					t.Error("forced run read no shuffle file")
				}
				for _, reg := range []*obs.Registry{memReg, fileReg} {
					if held := reg.Gauge("photon_exchange_held_bytes", "").Load(); held != 0 {
						t.Errorf("%d bytes still held for exchanges after Run", held)
					}
				}
			})
		}
	}
}

// TestProfileMixedExchange: a query with one exchange whose partitions fill
// blocks and one that stays in memory reports each for what it was — in
// StageProfile, in the rendered EXPLAIN ANALYZE line, and in the counters.
func TestProfileMixedExchange(t *testing.T) {
	cat := tpch.NewGen(0.02).Generate()
	reg := obs.NewRegistry()
	var stats RunStats
	// Every join a shuffle, and no runtime filter thinning the probe side:
	// lineitem's exchange fills blocks, the aggregation's does not.
	runTPCH(t, cat, 3, Options{Parallelism: 2, ShuffleDir: t.TempDir(), BroadcastRows: -1,
		testNoRuntimeFilters: true, Stats: &stats, Metrics: reg})
	var filed, kept *StageProfile
	var rows, memRows, bytes int64
	for i := range stats.Profile.Stages {
		st := &stats.Profile.Stages[i]
		rows, memRows, bytes = rows+st.ShuffleRows, memRows+st.ShuffleMemRows, bytes+st.ShuffleBytes
		switch {
		case st.ShuffleRows == 0:
		case st.ShuffleMemRows == st.ShuffleRows:
			kept = st
			if st.ShuffleBytes != 0 || st.ShuffleRawBytes != 0 || st.EncCounts != [3]int64{} {
				t.Errorf("stage %d kept every row in memory yet reports file volume: %+v", st.ID, st)
			}
		case st.ShuffleRows-st.ShuffleMemRows >= vector.DefaultBatchSize:
			filed = st
			if st.ShuffleBytes == 0 || st.ShuffleRawBytes < st.ShuffleBytes/2 || st.EncCounts == [3]int64{} {
				t.Errorf("stage %d wrote blocks yet reports no file volume: %+v", st.ID, st)
			}
		}
	}
	if filed == nil || kept == nil {
		t.Fatalf("want a file-backed and an in-memory exchange, got:\n%s", stats.Profile.Render())
	}
	out := stats.Profile.Render()
	for _, st := range []*StageProfile{filed, kept} {
		want := fmt.Sprintf("shuffle[rows=%d bytes=%d raw=%d enc=%s] mem=%d",
			st.ShuffleRows, st.ShuffleBytes, st.ShuffleRawBytes, encString(st.EncCounts), st.ShuffleMemRows)
		if !strings.Contains(out, want) {
			t.Errorf("rendered profile lacks %q:\n%s", want, out)
		}
	}
	count := func(name string) int64 { return reg.Counter(name, "").Load() }
	if count("photon_shuffle_write_rows_total") != rows || count("photon_exchange_mem_rows_total") != memRows ||
		count("photon_shuffle_write_bytes_total") != bytes || count("photon_exchange_mem_bytes_total") == 0 {
		t.Errorf("counters disagree with the profile (rows %d mem %d bytes %d): rows %d mem %d bytes %d membytes %d",
			rows, memRows, bytes, count("photon_shuffle_write_rows_total"), count("photon_exchange_mem_rows_total"),
			count("photon_shuffle_write_bytes_total"), count("photon_exchange_mem_bytes_total"))
	}
}

// TestExchangeReadStoppedEarlyClosesItsFile: a LIMIT over a shuffle join
// stops its task while the probe side's reader is inside a partition file
// it has not finished; closing the operator tree closes that file.
func TestExchangeReadStoppedEarlyClosesItsFile(t *testing.T) {
	cat := tpch.NewGen(0.01).Generate()
	stmt, err := sql.Parse("SELECT l_orderkey, o_orderdate FROM lineitem JOIN orders ON l_orderkey = o_orderkey LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sql.Analyze(cat, stmt)
	if err == nil {
		plan, err = catalyst.Optimize(plan)
	}
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rows, _, err := Run(context.Background(), plan, Options{Parallelism: 2, ShuffleDir: t.TempDir(),
		BroadcastRows: -1, testNoRuntimeFilters: true, Metrics: reg, testTaskStart: spillAtTaskStart(t)})
	if err != nil || len(rows) != 5 {
		t.Fatalf("%d rows, err %v", len(rows), err)
	}
	written := reg.Counter("photon_shuffle_write_bytes_total", "").Load()
	read := reg.Counter("photon_shuffle_read_bytes_total", "").Load()
	if read == 0 || read >= written {
		t.Fatalf("read %d of the %d bytes written: no consumer stopped inside its exchange", read, written)
	}
	if n := shuffle.OpenFiles(); n != 0 {
		t.Fatalf("%d partition files still open after Run", n)
	}
}

// TestExchangeUnderMemoryLimit: with a memory limit below what a broadcast
// build holds, the query still completes, through files, with the clean
// run's rows, and the exchange store reports what it wrote out.
func TestExchangeUnderMemoryLimit(t *testing.T) {
	cat := tpch.NewGen(0.01).Generate()
	want := runTPCH(t, cat, 3, Options{Parallelism: 4, ShuffleDir: t.TempDir()})

	// How much the clean run's exchanges hold.
	reg := obs.NewRegistry()
	runTPCH(t, cat, 3, Options{Parallelism: 4, ShuffleDir: t.TempDir(), Metrics: reg})
	held := reg.Counter("photon_exchange_mem_bytes_total", "").Load()
	if held == 0 || reg.Counter("photon_shuffle_write_bytes_total", "").Load() != 0 {
		t.Fatalf("clean run kept %d bytes in memory and wrote files", held)
	}

	reg = obs.NewRegistry()
	var store *shuffle.Store
	var once sync.Once
	// A quarter of what the exchanges hold: the store keeps what fits and
	// sends the rest to files, and the joins' and aggregations' reservations
	// must then push held outputs out. At half, operators whose scratch is
	// sized by the rows they see fit in the room the store leaves unused.
	mm := mem.NewManager(held / 4)
	// One slot, so one task at a time: under a limit this low the joins spill
	// too, and an operator's Spill is not safe to call from another running
	// task's reservation (the memory manager's standing limitation; this test
	// is about the exchange).
	got := runTPCH(t, cat, 3, Options{Parallelism: 4, ShuffleDir: t.TempDir(), Metrics: reg, Mem: mm,
		Pool:          sched.NewPool(1),
		testTaskStart: func(_ *catalyst.Fragment, _ int, j *stagedJob) { once.Do(func() { store = j.store }) }})
	if a, b := render(want), render(got); !equalSorted(a, b) {
		t.Fatalf("under the limit: %d rows, want %d", len(b), len(a))
	}
	if n := reg.Counter("photon_shuffle_write_bytes_total", "").Load(); n == 0 {
		t.Error("no exchange went through a file under a limit a quarter of the exchanges' size")
	}
	if store.SpilledBytes() == 0 {
		t.Error("the exchange consumer reports no spilled bytes")
	}
	if batches, bytes := store.Held(); batches != 0 || bytes != 0 || mm.Used() != 0 {
		t.Errorf("after Run: store holds %d batches, %d bytes; manager %d", batches, bytes, mm.Used())
	}
	t.Logf("exchanges hold %d bytes unconstrained; limit %d: %d spilled by the store, %d bytes of files",
		held, held/4, store.SpilledBytes(), reg.Counter("photon_shuffle_write_bytes_total", "").Load())
}
