package ht

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// buildKeys creates one int64 key vector from vals.
func buildKeys(vals []int64, nullAt map[int]bool) ([]*vector.Vector, []uint64) {
	v := vector.New(types.Int64Type, len(vals))
	copy(v.I64, vals)
	for i := range nullAt {
		v.SetNull(i)
	}
	hashes := make([]uint64, len(vals))
	u := make([]uint64, len(vals))
	for i, x := range vals {
		u[i] = uint64(x)
	}
	kernels.HashU64(u, v.Nulls, v.HasNulls(), nil, len(vals), hashes)
	return []*vector.Vector{v}, hashes
}

func TestFindOrInsertBasic(t *testing.T) {
	tbl := New([]types.DataType{types.Int64Type}, 8)
	vals := []int64{10, 20, 10, 30, 20, 10}
	keys, hashes := buildKeys(vals, nil)
	rowIDs := make([]int32, len(vals))
	inserted := make([]bool, len(vals))
	tbl.FindOrInsert(keys, hashes, nil, len(vals), rowIDs, inserted)

	if tbl.Len() != 3 {
		t.Fatalf("distinct keys = %d, want 3", tbl.Len())
	}
	if !inserted[0] || !inserted[1] || !inserted[3] {
		t.Error("first occurrences should insert")
	}
	if inserted[2] || inserted[4] || inserted[5] {
		t.Error("repeats should not insert")
	}
	if rowIDs[0] != rowIDs[2] || rowIDs[0] != rowIDs[5] {
		t.Error("same key resolved to different entries")
	}
	if rowIDs[0] == rowIDs[1] || rowIDs[1] == rowIDs[3] {
		t.Error("different keys resolved to same entry")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	tbl := New([]types.DataType{types.Int64Type}, 8)
	keys, hashes := buildKeys([]int64{1, 2, 3}, nil)
	rowIDs := make([]int32, 3)
	inserted := make([]bool, 3)
	tbl.FindOrInsert(keys, hashes, nil, 3, rowIDs, inserted)
	for i, r := range rowIDs {
		binary.LittleEndian.PutUint64(tbl.PayloadBytes(r), uint64(i)*100)
	}
	for i, r := range rowIDs {
		if got := binary.LittleEndian.Uint64(tbl.PayloadBytes(r)); got != uint64(i)*100 {
			t.Errorf("payload[%d] = %d", i, got)
		}
	}
}

func TestFindAbsent(t *testing.T) {
	tbl := New([]types.DataType{types.Int64Type}, 0)
	keys, hashes := buildKeys([]int64{1, 2, 3}, nil)
	rowIDs := make([]int32, 3)
	inserted := make([]bool, 3)
	tbl.FindOrInsert(keys, hashes, nil, 3, rowIDs, inserted)

	probeKeys, probeHashes := buildKeys([]int64{2, 99, 3}, nil)
	got := make([]int32, 3)
	tbl.Find(probeKeys, probeHashes, nil, 3, got)
	if got[0] == -1 || got[2] == -1 {
		t.Error("present keys not found")
	}
	if got[1] != -1 {
		t.Error("absent key reported found")
	}
}

func TestGroupingNullsEqual(t *testing.T) {
	tbl := New([]types.DataType{types.Int64Type}, 0)
	keys, hashes := buildKeys([]int64{5, 5, 5}, map[int]bool{0: true, 2: true})
	rowIDs := make([]int32, 3)
	inserted := make([]bool, 3)
	tbl.FindOrInsert(keys, hashes, nil, 3, rowIDs, inserted)
	if tbl.Len() != 2 {
		t.Fatalf("NULL and 5 should form 2 groups, got %d", tbl.Len())
	}
	if rowIDs[0] != rowIDs[2] {
		t.Error("two NULL keys should group together")
	}
	if rowIDs[0] == rowIDs[1] {
		t.Error("NULL grouped with non-null")
	}
}

func TestMultiColumnStringKeys(t *testing.T) {
	iv := vector.New(types.Int32Type, 4)
	sv := vector.New(types.StringType, 4)
	data := []struct {
		i int32
		s string
	}{{1, "a"}, {1, "b"}, {2, "a"}, {1, "a"}}
	for i, d := range data {
		iv.I32[i] = d.i
		sv.Str[i] = []byte(d.s)
	}
	hashes := make([]uint64, 4)
	u := make([]uint64, 4)
	for i := range u {
		u[i] = uint64(iv.I32[i])
	}
	kernels.HashU64(u, nil, false, nil, 4, hashes)
	kernels.RehashBytes(sv.Str, nil, false, nil, 4, hashes)

	tbl := New([]types.DataType{types.Int32Type, types.StringType}, 0)
	rowIDs := make([]int32, 4)
	inserted := make([]bool, 4)
	tbl.FindOrInsert([]*vector.Vector{iv, sv}, hashes, nil, 4, rowIDs, inserted)
	if tbl.Len() != 3 {
		t.Fatalf("distinct (int,string) keys = %d, want 3", tbl.Len())
	}
	if rowIDs[0] != rowIDs[3] {
		t.Error("(1,a) occurrences split")
	}
	// Read keys back out.
	out := vector.New(types.StringType, 4)
	tbl.ReadKey(rowIDs[1], 1, out, 0)
	if string(out.Str[0]) != "b" {
		t.Errorf("ReadKey string = %q", out.Str[0])
	}
}

func TestInsertDupChains(t *testing.T) {
	tbl := New([]types.DataType{types.Int64Type}, 0)
	keys, hashes := buildKeys([]int64{7, 7, 7, 8}, nil)
	rowIDs := make([]int32, 4)
	inserted := make([]bool, 4)
	tbl.InsertDup(keys, hashes, nil, 4, rowIDs, inserted)
	if tbl.Len() != 2 {
		t.Fatalf("distinct = %d", tbl.Len())
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("total rows = %d", tbl.NumRows())
	}
	// Probe 7 and walk the chain: expect 3 entries.
	pk, ph := buildKeys([]int64{7}, nil)
	got := make([]int32, 1)
	tbl.Find(pk, ph, nil, 1, got)
	count := 0
	for r := got[0]; r != -1; r = tbl.Next(r) {
		count++
	}
	if count != 3 {
		t.Errorf("chain length = %d, want 3", count)
	}
}

// Property: batch FindOrInsert agrees with a Go map across random workloads,
// including growth and selective batches.
func TestRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tbl := New([]types.DataType{types.Int64Type}, 0)
	oracle := make(map[int64]int32)
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(256)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(500)) // plenty of repeats
		}
		keys, hashes := buildKeys(vals, nil)
		var sel []int32
		if round%3 == 0 {
			for i := 0; i < n; i += 2 {
				sel = append(sel, int32(i))
			}
		}
		rowIDs := make([]int32, n)
		inserted := make([]bool, n)
		tbl.FindOrInsert(keys, hashes, sel, n, rowIDs, inserted)
		check := func(i int) {
			want, seen := oracle[vals[i]]
			if seen {
				if inserted[i] {
					t.Fatalf("key %d re-inserted", vals[i])
				}
				if rowIDs[i] != want {
					t.Fatalf("key %d maps to %d, oracle %d", vals[i], rowIDs[i], want)
				}
			} else {
				oracle[vals[i]] = rowIDs[i]
			}
		}
		if sel == nil {
			for i := 0; i < n; i++ {
				check(i)
			}
		} else {
			for _, i := range sel {
				check(int(i))
			}
		}
	}
	if tbl.Len() != len(oracle) {
		t.Fatalf("table has %d keys, oracle %d", tbl.Len(), len(oracle))
	}
	// Batched Find and scalar Find agree everywhere.
	var all []int64
	for k := range oracle {
		all = append(all, k, k+1000) // mix of present and absent
	}
	keys, hashes := buildKeys(all, nil)
	a := make([]int32, len(all))
	b := make([]int32, len(all))
	tbl.Find(keys, hashes, nil, len(all), a)
	tbl.FindScalar(keys, hashes, nil, len(all), b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vectorized and scalar probe disagree at %d: %d vs %d", i, a[i], b[i])
		}
		want, seen := oracle[all[i]]
		if seen && a[i] != want {
			t.Fatalf("Find(%d) = %d, oracle %d", all[i], a[i], want)
		}
		if !seen && a[i] != -1 {
			t.Fatalf("Find(absent %d) = %d", all[i], a[i])
		}
	}
}

func TestGrowthKeepsEntries(t *testing.T) {
	tbl := New([]types.DataType{types.Int64Type}, 0)
	const n = 10_000
	for start := 0; start < n; start += 512 {
		end := min(start+512, n)
		vals := make([]int64, end-start)
		for i := range vals {
			vals[i] = int64(start + i)
		}
		keys, hashes := buildKeys(vals, nil)
		rowIDs := make([]int32, len(vals))
		inserted := make([]bool, len(vals))
		tbl.FindOrInsert(keys, hashes, nil, len(vals), rowIDs, inserted)
	}
	if tbl.Len() != n {
		t.Fatalf("after growth: %d keys, want %d", tbl.Len(), n)
	}
	vals := []int64{0, 5000, 9999, 10000}
	keys, hashes := buildKeys(vals, nil)
	got := make([]int32, 4)
	tbl.Find(keys, hashes, nil, 4, got)
	if got[0] == -1 || got[1] == -1 || got[2] == -1 {
		t.Error("keys lost after growth")
	}
	if got[3] != -1 {
		t.Error("phantom key after growth")
	}
	if tbl.MemoryUsage() <= 0 {
		t.Error("memory usage should be positive")
	}
}

func TestDecimalAndFloatKeys(t *testing.T) {
	dv := vector.New(types.DecimalType(10, 2), 3)
	dv.Dec[0] = types.DecimalFromInt64(100)
	dv.Dec[1] = types.DecimalFromInt64(200)
	dv.Dec[2] = types.DecimalFromInt64(100)
	hashes := make([]uint64, 3)
	lo := []uint64{dv.Dec[0].Lo, dv.Dec[1].Lo, dv.Dec[2].Lo}
	kernels.HashU64(lo, nil, false, nil, 3, hashes)
	tbl := New([]types.DataType{types.DecimalType(10, 2)}, 0)
	rowIDs := make([]int32, 3)
	ins := make([]bool, 3)
	tbl.FindOrInsert([]*vector.Vector{dv}, hashes, nil, 3, rowIDs, ins)
	if tbl.Len() != 2 || rowIDs[0] != rowIDs[2] {
		t.Error("decimal keys misgrouped")
	}
}

// TestDirectoryIgnoresPartitionBits builds the table one reducer of an
// np-way exchange sees: the exchange sends a row to hash % np, so every hash
// here shares its residue. The home slot must not depend on those low bits:
// a lookup must visit about as many slots as with uniform hashes.
func TestDirectoryIgnoresPartitionBits(t *testing.T) {
	const keys = 88_000 // a 131,072-slot directory 67 % full
	slotsPerLookup := func(np uint64) float64 {
		tbl := New([]types.DataType{types.Int64Type}, 0)
		key := vector.New(types.Int64Type, 2048)
		lanes, hashes := make([]uint64, 2048), make([]uint64, 2048)
		rowIDs, inserted := make([]int32, 2048), make([]bool, 2048)
		for k := uint64(0); tbl.Len() < keys; {
			n := 0
			for ; n < min(2048, keys-tbl.Len()); k++ {
				if kernels.Mix64(k)%np == 0 {
					key.I64[n], lanes[n] = int64(k), k
					n++
				}
			}
			kernels.HashU64(lanes, key.Nulls, false, nil, n, hashes)
			if err := tbl.FindOrInsert([]*vector.Vector{key}, hashes, nil, n, rowIDs, inserted); err != nil {
				t.Fatal(err)
			}
		}
		visits := 0
		for row := int32(0); row < keys; row++ {
			slot, step := tbl.RowHash(row)>>tbl.shift, uint64(0)
			for tbl.buckets[slot] != row {
				step++
				slot = (slot + step) & tbl.mask
			}
			visits += int(step) + 1
		}
		return float64(visits) / keys
	}
	uniform := slotsPerLookup(1)
	for _, np := range []uint64{2, 4, 8} {
		if got := slotsPerLookup(np); got > 1.05*uniform {
			t.Errorf("np=%d: %.3f slots a lookup, %.3f with uniform hashes", np, got, uniform)
		}
	}
}
