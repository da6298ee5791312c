package ht

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// buildShape is one table shape the allocation guard and BenchmarkTableBuild
// share: an int64 key with a 32-byte payload, or a string key.
type buildShape struct {
	name     string
	keyType  types.DataType
	payloadW int
}

var buildShapes = []buildShape{
	{"int64+32B", types.Int64Type, 32},
	{"string", types.StringType, 0},
}

const buildBatch = 2048

// buildTable inserts rows distinct keys the way a join build does, batch by
// batch, and returns the table.
func buildTable(tb testing.TB, s buildShape, rows int) *Table {
	tbl := New([]types.DataType{s.keyType}, s.payloadW)
	key := vector.New(s.keyType, buildBatch)
	keys := []*vector.Vector{key}
	lanes := make([]uint64, buildBatch)
	hashes := make([]uint64, buildBatch)
	rowIDs := make([]int32, buildBatch)
	inserted := make([]bool, buildBatch)
	strBuf := make([]byte, 0, buildBatch*len("customer#000000000"))
	for lo := 0; lo < rows; lo += buildBatch {
		n := min(buildBatch, rows-lo)
		if s.keyType.ID == types.String {
			strBuf = strBuf[:0]
			for i := 0; i < n; i++ {
				at := len(strBuf)
				strBuf = append(strBuf, "customer#000000000"...)
				for v, d := lo+i, len(strBuf)-1; v > 0; v, d = v/10, d-1 {
					strBuf[d] = byte('0' + v%10)
				}
				key.Str[i] = strBuf[at:len(strBuf):len(strBuf)]
			}
			kernels.HashBytes(key.Str, key.Nulls, false, nil, n, hashes)
		} else {
			for i := 0; i < n; i++ {
				key.I64[i] = int64(lo+i) * 2654435761
				lanes[i] = uint64(key.I64[i])
			}
			kernels.HashU64(lanes, key.Nulls, false, nil, n, hashes)
		}
		if err := tbl.InsertDup(keys, hashes, nil, n, rowIDs[:n], inserted[:n]); err != nil {
			tb.Fatal(err)
		}
	}
	if tbl.NumRows() != rows {
		tb.Fatalf("built %d rows, want %d", tbl.NumRows(), rows)
	}
	return tbl
}

// allocatedBy reports the bytes f allocates (runtime.MemStats.TotalAlloc,
// which only ever grows, so a GC in the middle does not disturb it).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTableBuildAllocBound is the allocation guard: building a table may
// allocate little more than the table it ends with — no storage is allocated
// again and copied as the table grows — and a five-row table must not pay
// for that with a large first page. Race instrumentation changes allocation,
// so CI runs this in a non-race step.
func TestTableBuildAllocBound(t *testing.T) {
	// What the contiguous-slab table (the commit before paged storage)
	// allocated for the same five-row builds, measured by tableAlloc there.
	parentFiveRows := map[string]uint64{"int64+32B": 1_064, "string": 624}
	for _, s := range buildShapes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, rows := range []int{1_000, 150_000, 1_000_000} {
				got, kept := tableAlloc(t, s, rows)
				if limit := kept * 5 / 4; got > limit {
					t.Errorf("%d rows: allocated %d bytes building a table of %d (limit %d)", rows, got, kept, limit)
				}
			}
			if got, _ := tableAlloc(t, s, 5); got > parentFiveRows[s.name] {
				t.Errorf("5 rows: allocated %d bytes, the contiguous table allocated %d", got, parentFiveRows[s.name])
			}
		})
	}
}

// tableAlloc builds a table of the given size and reports the bytes the
// table allocated on the way and the bytes it ends up holding. buildTable's
// own key vector, hash lanes and id arrays — what building zero rows
// allocates — are not the table's and are subtracted. Each is the
// smallest of three measurements: the runtime's own stray allocations only add.
func tableAlloc(t *testing.T, s buildShape, rows int) (allocated, kept uint64) {
	driver, allocated := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var tbl *Table
	for range 3 {
		driver = min(driver, allocatedBy(func() { buildTable(t, s, 0) }))
		allocated = min(allocated, allocatedBy(func() { tbl = buildTable(t, s, rows) }))
	}
	return allocated - min(allocated, driver), uint64(tbl.MemoryUsage())
}

// TestMemoryUsageMatchesHeap holds MemoryUsage to what the runtime says a
// 200k-row build keeps alive.
func TestMemoryUsageMatchesHeap(t *testing.T) {
	for _, s := range buildShapes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tbl := buildTable(t, s, 200_000)
			runtime.GC()
			runtime.ReadMemStats(&after)
			heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			usage := float64(tbl.MemoryUsage())
			if usage < 0.9*heap || usage > 1.1*heap {
				t.Errorf("MemoryUsage %.0f bytes, heap grew by %.0f (ratio %.3f, want within 10%%)", usage, heap, usage/heap)
			}
			runtime.KeepAlive(tbl)
		})
	}
}

// BenchmarkTableBuild reports a join-shaped build's time and, with -benchmem,
// its allocation per table.
func BenchmarkTableBuild(b *testing.B) {
	for _, s := range buildShapes {
		for _, rows := range []int{5, 1_000, 150_000, 1_000_000} {
			s, rows := s, rows
			b.Run(fmt.Sprintf("%s/rows=%d", s.name, rows), func(b *testing.B) {
				b.ReportAllocs()
				var kept int64
				for i := 0; i < b.N; i++ {
					kept = buildTable(b, s, rows).MemoryUsage()
				}
				b.ReportMetric(float64(kept), "kept_B")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		}
	}
}

// TestSmallTableScratch holds a small table to what its rows use: probing a
// batch needs scratch of one probe window, not of the batch, and a table no
// duplicate was ever linked into holds no chain links.
func TestSmallTableScratch(t *testing.T) {
	const n = buildBatch
	key := vector.New(types.Int64Type, n)
	lanes := make([]uint64, n)
	hashes := make([]uint64, n)
	rowIDs := make([]int32, n)
	inserted := make([]bool, n)
	for i := range lanes {
		key.I64[i] = int64(i % 5)
		lanes[i] = uint64(key.I64[i])
	}
	kernels.HashU64(lanes, key.Nulls, false, nil, n, hashes)
	keys := []*vector.Vector{key}

	var tbl *Table
	groups := uint64(math.MaxUint64)
	for range 3 {
		groups = min(groups, allocatedBy(func() {
			tbl = New([]types.DataType{types.Int64Type}, 32)
			if err := tbl.FindOrInsert(keys, hashes, nil, n, rowIDs, inserted); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if tbl.Len() != 5 {
		t.Fatalf("%d groups, want 5", tbl.Len())
	}
	if groups > 24<<10 {
		t.Errorf("5 groups over one %d-row batch allocated %d bytes, want at most %d", n, groups, 24<<10)
	}

	join := uint64(math.MaxUint64)
	for range 3 {
		join = min(join, allocatedBy(func() {
			tbl = New([]types.DataType{types.Int64Type}, 32)
			if err := tbl.InsertDup(keys, hashes, nil, 5, rowIDs, inserted); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Find(keys, hashes, nil, 25, rowIDs); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if join > 1_400 {
		t.Errorf("a 5-row build probed by 25 rows allocated %d bytes, want at most 1400", join)
	}

	// Two equal tables of 100 distinct keys; linking one duplicate into the
	// second must add the chain links the first does not hold.
	var ones [2]*Table
	for k := range ones {
		ones[k] = New([]types.DataType{types.Int64Type}, 32)
		for i := range lanes[:100] {
			key.I64[i] = int64(i)
			lanes[i] = uint64(i)
		}
		kernels.HashU64(lanes, key.Nulls, false, nil, 100, hashes)
		if err := ones[k].FindOrInsert(keys, hashes, nil, 100, rowIDs, inserted); err != nil {
			t.Fatal(err)
		}
	}
	before := ones[1].MemoryUsage()
	if err := ones[1].InsertDup(keys, hashes, nil, 1, rowIDs, inserted); err != nil {
		t.Fatal(err)
	}
	if ones[1].NumRows() != 101 || ones[1].Next(rowIDs[0]) != -1 {
		t.Fatalf("after linking one duplicate: NumRows %d, want 101; its Next %d, want -1", ones[1].NumRows(), ones[1].Next(rowIDs[0]))
	}
	if linked := ones[1].MemoryUsage() - before; linked < 4*100 {
		t.Errorf("linking the first duplicate added %d bytes: a FindOrInsert-only table of %d bytes already holds chain links",
			linked, ones[0].MemoryUsage())
	}
}
