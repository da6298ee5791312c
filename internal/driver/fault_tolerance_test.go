package driver

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/fault"
	"photon/internal/mem"
	"photon/internal/obs"
	"photon/internal/sched"
	"photon/internal/shuffle"
	"photon/internal/sql/catalyst"
	"photon/internal/tpch"
)

// faultTolerantPool builds a slot pool with enough retry headroom for tests
// that inject many transient failures into one query.
func faultTolerantPool(slots, maxAttempts int) *sched.Pool {
	pool := sched.NewPool(slots)
	pool.SetOptions(sched.PoolOptions{
		MaxAttempts:     maxAttempts,
		RetryBackoff:    50 * time.Microsecond,
		RetryBackoffCap: 2 * time.Millisecond,
	})
	return pool
}

// corruptShuffleFiles writes out everything the query's exchange store holds
// (at SF 0.002 no partition fills a block, so nothing is a file until then)
// and damages every committed shuffle partition file of the queries under
// base: mode "bitflip" XORs one byte in the middle of each non-empty file
// (checksum mismatch on read), mode "delete" removes the files outright
// (missing partition file). Returns how many files were damaged.
func corruptShuffleFiles(t *testing.T, store *shuffle.Store, base, mode string) int {
	t.Helper()
	if _, err := store.Spill(math.MaxInt64); err != nil {
		t.Fatalf("write out the exchange store: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join(base, "query-*", "shuffle-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range paths {
		switch mode {
		case "delete":
			if err := os.Remove(p); err != nil {
				t.Fatalf("remove %s: %v", p, err)
			}
			n++
		case "bitflip":
			info, err := os.Stat(p)
			if err != nil || info.Size() == 0 {
				continue
			}
			f, err := os.OpenFile(p, os.O_RDWR, 0)
			if err != nil {
				t.Fatalf("open %s: %v", p, err)
			}
			off := info.Size() / 2
			var b [1]byte
			if _, err := f.ReadAt(b[:], off); err != nil {
				f.Close()
				t.Fatalf("read %s: %v", p, err)
			}
			b[0] ^= 0xFF
			if _, err := f.WriteAt(b[:], off); err != nil {
				f.Close()
				t.Fatalf("write %s: %v", p, err)
			}
			f.Close()
			n++
		default:
			t.Fatalf("unknown corruption mode %q", mode)
		}
	}
	return n
}

// TestShuffleCorruptionRecovered is the lineage-recovery acceptance test: a
// query whose committed shuffle output is damaged mid-flight (bit flips or
// deleted partition files) must detect the corruption via block checksums,
// transparently re-run the producing map tasks, and still return exactly the
// clean run's result — observable through the corruption/recovery metrics and
// the EXPLAIN ANALYZE profile.
func TestShuffleCorruptionRecovered(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	want := runTPCH(t, cat, 3, Options{Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: -1})

	for _, mode := range []string{"bitflip", "delete"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			reg := obs.NewRegistry()
			var stats RunStats
			var once sync.Once
			damaged := 0
			base := t.TempDir()
			opts := Options{
				Parallelism:   4,
				ShuffleDir:    base,
				BroadcastRows: -1, // all exchanges are hash shuffles
				Pool:          faultTolerantPool(4, 12),
				Metrics:       reg,
				Stats:         &stats,
				// When the first shuffle-consuming task starts, its input
				// stages have committed: damage every published file once.
				testTaskStart: func(f *catalyst.Fragment, taskID int, j *stagedJob) {
					if !f.ReadsHash {
						return
					}
					once.Do(func() { damaged = corruptShuffleFiles(t, j.store, base, mode) })
				},
			}
			got := runTPCH(t, cat, 3, opts)
			if damaged == 0 {
				t.Fatal("corruption hook never damaged a file")
			}
			if a, b := render(want), render(got); !equalSorted(a, b) {
				t.Fatalf("recovered run returned wrong result: %d rows, want %d", len(b), len(a))
			}

			corrupt := reg.Counter("photon_shuffle_blocks_corrupt_total", "").Load()
			recovered := reg.Counter("photon_shuffle_blocks_recovered_total", "").Load()
			if corrupt == 0 {
				t.Error("no corrupt block detected despite damaged files")
			}
			if recovered == 0 {
				t.Error("no map task recovery recorded")
			}
			t.Logf("mode=%s damaged=%d corrupt=%d recovered=%d", mode, damaged, corrupt, recovered)

			// EXPLAIN ANALYZE surfaces per-stage recovery counts.
			if stats.Profile == nil {
				t.Fatal("no profile")
			}
			var profRecovered int64
			for _, sp := range stats.Profile.Stages {
				profRecovered += sp.Recovered
			}
			if profRecovered == 0 {
				t.Error("profile reports zero recovered map tasks")
			}
			if !strings.Contains(stats.Profile.Render(), "recovery[recovered=") {
				t.Error("rendered profile missing recovery annotation")
			}
		})
	}
}

// TestFailpointCoverageDistributed arms the five distributed-execution
// failpoints with a fail-once policy each and runs shuffle- and
// broadcast-join queries through the driver: every site must fire, every
// injected failure must be retried transparently, and results must match the
// clean run. (Spill-path sites are covered by the exec package's
// TestSpillFailpointsRetryable; together these tests are the CI failpoint-
// coverage check.)
func TestFailpointCoverageDistributed(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	clean := map[string][]string{}
	for _, shape := range []struct {
		name string
		bc   int64
	}{{"shuffle", -1}, {"broadcast", 0}} {
		rows := runTPCH(t, cat, 3, Options{Parallelism: 4, ShuffleDir: t.TempDir(), BroadcastRows: shape.bc})
		clean[shape.name] = render(rows)
	}

	r := fault.NewRegistry(11)
	sites := []fault.Site{
		fault.ShuffleWrite, fault.ShuffleRead, fault.BroadcastFetch,
		fault.TaskStart, fault.MemReserve,
	}
	for _, s := range sites {
		r.Arm(s, fault.Policy{FailN: 1})
	}
	reg := obs.NewRegistry()
	r.Instrument(reg)
	defer fault.Activate(r)()

	for _, shape := range []struct {
		name string
		bc   int64
	}{{"shuffle", -1}, {"broadcast", 0}} {
		got := runTPCH(t, cat, 3, Options{
			Parallelism:   4,
			ShuffleDir:    t.TempDir(),
			BroadcastRows: shape.bc,
			Mem:           mem.NewManager(0),
			Pool:          faultTolerantPool(4, 8),
		})
		if a, b := clean[shape.name], render(got); !equalSorted(a, b) {
			t.Fatalf("%s: result diverged under injected faults (%d rows, want %d)",
				shape.name, len(b), len(a))
		}
	}

	for _, s := range sites {
		if r.Fires(s) == 0 {
			t.Errorf("site %s never fired", s)
		}
		c := reg.Counter(fmt.Sprintf("photon_failpoint_fires_total{site=%q}", string(s)), "")
		if c.Load() == 0 {
			t.Errorf("site %s fires not mirrored into metrics", s)
		}
	}
}

// TestSpeculativeStragglerDistributed injects one long task-start stall into
// a distributed query and asserts the straggler detector launches exactly one
// speculative duplicate whose winner commits once: results match the clean
// run, and the speculation shows up in pool metrics and the stitched profile.
func TestSpeculativeStragglerDistributed(t *testing.T) {
	cat := tpch.NewGen(0.002).Generate()
	cleanReg := obs.NewRegistry()
	want := runTPCH(t, cat, 1, Options{Parallelism: 4, ShuffleDir: t.TempDir(), Metrics: cleanReg})

	r := fault.NewRegistry(7)
	r.Arm(fault.TaskStart, fault.Policy{Latency: 2 * time.Second, LatencyN: 1})
	defer fault.Activate(r)()

	// MinTaskTime sits far above a clean task, even under -race on a loaded
	// host (where 15 ms let a second task be duplicated), and far below the
	// injected stall.
	pool := sched.NewPool(8)
	pool.SetOptions(sched.PoolOptions{Speculation: sched.SpeculationOptions{
		Multiplier:          2,
		MinCompleteFraction: 0.5,
		Interval:            time.Millisecond,
		MinTaskTime:         250 * time.Millisecond,
	}})
	reg := obs.NewRegistry()
	pool.Instrument(reg)

	var stats RunStats
	start := time.Now()
	got := runTPCH(t, cat, 1, Options{
		Parallelism: 4, ShuffleDir: t.TempDir(),
		Pool: pool, Stats: &stats, Metrics: reg,
	})
	wall := time.Since(start)
	if a, b := render(want), render(got); !equalSorted(a, b) {
		t.Fatalf("speculative run returned wrong result: %d rows, want %d", len(b), len(a))
	}
	if wall >= 2*time.Second {
		t.Errorf("query took %v: speculation did not mask the injected 2s stall", wall)
	}

	launched := reg.Counter("photon_speculative_launched_total", "").Load()
	won := reg.Counter("photon_speculative_won_total", "").Load()
	if launched != 1 {
		t.Errorf("speculative launches = %d, want exactly 1", launched)
	}
	// The losing attempt's batches are not published: the exchange handed
	// over exactly the clean run's rows, and holds nothing afterwards.
	const memRows = "photon_exchange_mem_rows_total"
	if got, clean := reg.Counter(memRows, "").Load(), cleanReg.Counter(memRows, "").Load(); got != clean || clean == 0 {
		t.Errorf("%s = %d with a duplicate attempt, %d without", memRows, got, clean)
	}
	if held := reg.Gauge("photon_exchange_held_bytes", "").Load(); held != 0 {
		t.Errorf("%d bytes still held for exchanges after Run", held)
	}
	if won != 1 {
		t.Errorf("speculative wins = %d, want exactly 1", won)
	}
	var profSpec, profWins int64
	for _, sp := range stats.Profile.Stages {
		profSpec += sp.Speculated
		profWins += sp.SpecWins
	}
	if profSpec != 1 || profWins != 1 {
		t.Errorf("profile speculation = launched %d won %d, want 1/1", profSpec, profWins)
	}
	if !strings.Contains(stats.Profile.Render(), "spec[launched=") {
		t.Error("rendered profile missing speculation annotation")
	}
}

// equalSorted compares two rendered row sets order-insensitively.
func equalSorted(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
