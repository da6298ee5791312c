package ht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// The oracle test drives a table and a Go map with the same random batches
// and requires them to agree on everything a caller can observe: which rows
// share an entry, which call created it, what ReadKey decodes, what the
// payload and its heap bytes hold, and which entries a duplicate chain links.
// It runs long enough to push entry storage and the bucket directory through
// several growth steps, so it pins behaviour across a storage rewrite.

// oracleKeySpec is one key-column shape: its type and a value generator
// (nil = NULL) over a domain small enough to repeat.
type oracleKeySpec struct {
	typ types.DataType
	gen func(r *rand.Rand) any
}

var oracleDecType = types.DecimalType(38, 2)

func oracleSpecs() map[string][]oracleKeySpec {
	nullable := func(gen func(r *rand.Rand) any) func(r *rand.Rand) any {
		return func(r *rand.Rand) any {
			if r.Intn(9) == 0 {
				return nil
			}
			return gen(r)
		}
	}
	boolS := oracleKeySpec{types.BoolType, nullable(func(r *rand.Rand) any { return r.Intn(2) == 0 })}
	i32S := oracleKeySpec{types.Int32Type, nullable(func(r *rand.Rand) any { return int32(r.Intn(4000) - 2000) })}
	dateS := oracleKeySpec{types.DateType, nullable(func(r *rand.Rand) any { return int32(9000 + r.Intn(3000)) })}
	i64S := oracleKeySpec{types.Int64Type, nullable(func(r *rand.Rand) any {
		if r.Intn(4) == 0 {
			return int64(r.Intn(8)) << 40 // differ only above 32 bits
		}
		return int64(r.Intn(5000)) - 2500
	})}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	f64S := oracleKeySpec{types.Float64Type, nullable(func(r *rand.Rand) any {
		if r.Intn(4) == 0 {
			return floats[r.Intn(len(floats))]
		}
		return float64(r.Intn(3000)) / 8
	})}
	decS := oracleKeySpec{oracleDecType, nullable(func(r *rand.Rand) any {
		d := types.DecimalFromInt64(int64(r.Intn(3000)) - 1500)
		if r.Intn(4) == 0 {
			d.Hi = int64(r.Intn(5)) - 2 // same low limb, different high limb
		}
		return d
	})}
	strS := oracleKeySpec{types.StringType, nullable(func(r *rand.Rand) any {
		switch r.Intn(8) {
		case 0:
			return ""
		case 1:
			return string(bytes.Repeat([]byte{'x'}, 1+r.Intn(300)))
		}
		return fmt.Sprintf("k%04d", r.Intn(3000))
	})}
	smallStr := oracleKeySpec{types.StringType, nullable(func(r *rand.Rand) any { return []string{"", "a", "ab", "b"}[r.Intn(4)] })}
	smallI32 := oracleKeySpec{types.Int32Type, nullable(func(r *rand.Rand) any { return int32(r.Intn(12)) })}
	smallDec := oracleKeySpec{oracleDecType, nullable(func(r *rand.Rand) any { return types.DecimalFromInt64(int64(r.Intn(6))) })}
	return map[string][]oracleKeySpec{
		"bool":    {boolS},
		"int32":   {i32S},
		"date":    {dateS},
		"int64":   {i64S},
		"float64": {f64S},
		"decimal": {decS},
		"string":  {strS},
		"multi":   {smallStr, smallI32, smallDec, boolS},
	}
}

// canon renders one key value so that two values are equal exactly when the
// table must treat them as one key: floats by bit pattern (NaN = NaN,
// -0 ≠ +0), NULL equal to NULL.
func canon(v any) string {
	switch x := v.(type) {
	case nil:
		return "∅"
	case float64:
		return fmt.Sprintf("f%016x", math.Float64bits(x))
	case types.Decimal128:
		return fmt.Sprintf("d%x/%x", x.Hi, x.Lo)
	case string:
		return "s" + x
	}
	return fmt.Sprintf("%T%v", v, v)
}

func canonRow(vals []any) string {
	var b bytes.Buffer
	for _, v := range vals {
		s := canon(v)
		fmt.Fprintf(&b, "%d:%s|", len(s), s)
	}
	return b.String()
}

// oracleBatch is one generated batch: its key vectors, the canonical form of
// every row, the hashes, and an optional position list.
type oracleBatch struct {
	keys   []*vector.Vector
	canon  []string
	hashes []uint64
	sel    []int32
	n      int
}

func (b *oracleBatch) active(f func(i int)) {
	if b.sel == nil {
		for i := 0; i < b.n; i++ {
			f(i)
		}
		return
	}
	for _, i := range b.sel {
		f(int(i))
	}
}

// genBatch draws n rows. hashBits < 64 truncates the hash so unequal keys
// collide on the full retained hash and probe sequences run long.
func genBatch(r *rand.Rand, specs []oracleKeySpec, n int, hashBits uint, sparse bool) *oracleBatch {
	b := &oracleBatch{n: n, canon: make([]string, n), hashes: make([]uint64, n)}
	for _, s := range specs {
		b.keys = append(b.keys, vector.New(s.typ, n))
	}
	row := make([]any, len(specs))
	for i := 0; i < n; i++ {
		for c, s := range specs {
			row[c] = s.gen(r)
			b.keys[c].Set(i, row[c])
		}
		b.canon[i] = canonRow(row)
		h := fnv.New64a()
		h.Write([]byte(b.canon[i]))
		b.hashes[i] = h.Sum64()
		if hashBits < 64 {
			b.hashes[i] &= 1<<hashBits - 1
		}
	}
	if sparse {
		b.sel = []int32{}
		for i := 0; i < n; i++ {
			if r.Intn(3) != 0 {
				b.sel = append(b.sel, int32(i))
			}
		}
	}
	return b
}

// readCanon decodes entry row's key through ReadKey into its canonical form.
func readCanon(tbl *Table, specs []oracleKeySpec, row int32) string {
	vals := make([]any, len(specs))
	for c, s := range specs {
		v := vector.New(s.typ, 3)
		tbl.ReadKey(row, c, v, 1)
		vals[c] = v.Get(1)
	}
	return canonRow(vals)
}

const oraclePayloadW = 12 // [ordinal u32][heap off u32][heap len u32]

// heapBytesFor is what entry number ord keeps in the table heap.
func heapBytesFor(ord uint32) []byte {
	return bytes.Repeat([]byte{byte('A' + ord%26)}, int(ord%37))
}

func writeOraclePayload(tbl *Table, row int32, ord uint32) {
	off, ln := tbl.AppendHeap(heapBytesFor(ord))
	p := tbl.PayloadBytes(row)
	binary.LittleEndian.PutUint32(p, ord)
	binary.LittleEndian.PutUint32(p[4:], off)
	binary.LittleEndian.PutUint32(p[8:], ln)
}

func checkOraclePayload(t *testing.T, tbl *Table, row int32, ord uint32) {
	t.Helper()
	p := tbl.PayloadBytes(row)
	if len(p) != oraclePayloadW {
		t.Fatalf("entry %d: payload is %d bytes, want %d", row, len(p), oraclePayloadW)
	}
	if got := binary.LittleEndian.Uint32(p); got != ord {
		t.Fatalf("entry %d: payload ordinal %d, want %d", row, got, ord)
	}
	got := tbl.HeapBytes(binary.LittleEndian.Uint32(p[4:]), binary.LittleEndian.Uint32(p[8:]))
	if !bytes.Equal(got, heapBytesFor(ord)) {
		t.Fatalf("entry %d: heap bytes %q, want %q", row, got, heapBytesFor(ord))
	}
}

func TestTableAgainstMapOracle(t *testing.T) {
	for name, specs := range oracleSpecs() {
		for _, hashBits := range []uint{64, 5} {
			name, specs, hashBits := name, specs, hashBits
			t.Run(fmt.Sprintf("%s/hash%d/group", name, hashBits), func(t *testing.T) {
				runGroupOracle(t, specs, hashBits)
			})
			t.Run(fmt.Sprintf("%s/hash%d/chain", name, hashBits), func(t *testing.T) {
				runChainOracle(t, specs, hashBits, 0)
			})
			if !manyKeys[name] {
				continue
			}
			// The first duplicate arrives while the first entry page is
			// still growing, and after three full pages.
			for _, distinct := range []int{firstPageRows + 13, 3 * pageRows} {
				distinct := distinct
				t.Run(fmt.Sprintf("%s/hash%d/chain_after_%d", name, hashBits, distinct), func(t *testing.T) {
					runChainOracle(t, specs, hashBits, distinct)
				})
			}
		}
	}
}

// manyKeys names the specs whose domains hold well over 3*pageRows keys.
var manyKeys = map[string]bool{"int64": true, "string": true, "multi": true}

// runGroupOracle is the aggregation shape: FindOrInsert, one entry per key.
func runGroupOracle(t *testing.T, specs []oracleKeySpec, hashBits uint) {
	r := rand.New(rand.NewSource(int64(len(specs))*131 + int64(hashBits)))
	keyTypes := make([]types.DataType, len(specs))
	for c, s := range specs {
		keyTypes[c] = s.typ
	}
	tbl := New(keyTypes, oraclePayloadW)
	entryOf := map[string]int32{}
	ords := map[int32]uint32{} // payload ordinal by entry id
	var batches []*oracleBatch
	rounds := 14
	if hashBits < 64 {
		rounds = 5 // every probe walks most of the table
	}
	for round := 0; round < rounds; round++ {
		b := genBatch(r, specs, 40+r.Intn(700), hashBits, round%3 == 1)
		batches = append(batches, b)
		rowIDs := make([]int32, b.n)
		inserted := make([]bool, b.n)
		for i := range rowIDs {
			rowIDs[i] = -7
		}
		if err := tbl.FindOrInsert(b.keys, b.hashes, b.sel, b.n, rowIDs, inserted); err != nil {
			t.Fatal(err)
		}
		b.active(func(i int) {
			want, seen := entryOf[b.canon[i]]
			switch {
			case seen && inserted[i]:
				t.Fatalf("round %d row %d: key %s inserted twice", round, i, b.canon[i])
			case seen && rowIDs[i] != want:
				t.Fatalf("round %d row %d: key %s → entry %d, oracle %d", round, i, b.canon[i], rowIDs[i], want)
			case !seen && !inserted[i]:
				t.Fatalf("round %d row %d: new key %s not reported inserted", round, i, b.canon[i])
			case !seen:
				if _, used := ords[rowIDs[i]]; used || rowIDs[i] < 0 || int(rowIDs[i]) >= tbl.NumRows() {
					t.Fatalf("round %d row %d: new entry id %d reused or out of range", round, i, rowIDs[i])
				}
				entryOf[b.canon[i]] = rowIDs[i]
				ords[rowIDs[i]] = uint32(len(ords))*3 + 1
				writeOraclePayload(tbl, rowIDs[i], ords[rowIDs[i]])
			}
		})
		if tbl.Len() != len(entryOf) || tbl.NumRows() != len(entryOf) {
			t.Fatalf("round %d: Len %d NumRows %d, oracle %d", round, tbl.Len(), tbl.NumRows(), len(entryOf))
		}
	}
	if tbl.MemoryUsage() <= 0 {
		t.Error("MemoryUsage should be positive")
	}
	// Every entry still decodes to its key and keeps its payload.
	for key, row := range entryOf {
		if got := readCanon(tbl, specs, row); got != key {
			t.Fatalf("entry %d: ReadKey gives %s, want %s", row, got, key)
		}
		checkOraclePayload(t, tbl, row, ords[row])
	}
	// Find, dense and sparse, batched and scalar, over seen and unseen keys.
	probes := append(batches, genBatch(r, specs, 600, hashBits, false), genBatch(r, specs, 600, hashBits, true))
	for _, b := range probes {
		got := make([]int32, b.n)
		scalar := make([]int32, b.n)
		if err := tbl.Find(b.keys, b.hashes, b.sel, b.n, got); err != nil {
			t.Fatal(err)
		}
		tbl.FindScalar(b.keys, b.hashes, b.sel, b.n, scalar)
		b.active(func(i int) {
			want, seen := entryOf[b.canon[i]]
			if !seen {
				want = -1
			}
			if got[i] != want || scalar[i] != want {
				t.Fatalf("Find(%s) = %d, FindScalar = %d, oracle %d", b.canon[i], got[i], scalar[i], want)
			}
		})
	}
}

// runChainOracle is the join-build shape: InsertDup, one entry per row,
// duplicates linked behind their key's head. The first distinct rows all
// carry distinct keys, so no row is linked before them.
func runChainOracle(t *testing.T, specs []oracleKeySpec, hashBits uint, distinct int) {
	r := rand.New(rand.NewSource(int64(len(specs))*977 + int64(hashBits) + int64(distinct)))
	keyTypes := make([]types.DataType, len(specs))
	for c, s := range specs {
		keyTypes[c] = s.typ
	}
	tbl := New(keyTypes, oraclePayloadW)
	entriesOf := map[string][]int32{}
	keyOf := map[int32]string{}
	total := 0
	var batches []*oracleBatch
	rounds := 9
	if hashBits < 64 {
		rounds = 6
	}
	for total < distinct {
		// Keep only rows whose keys the table has not seen.
		b := genBatch(r, specs, 200, hashBits, false)
		b.sel = []int32{}
		seen := map[string]bool{}
		for i := 0; i < b.n && total+len(b.sel) < distinct; i++ {
			if len(entriesOf[b.canon[i]]) == 0 && !seen[b.canon[i]] {
				seen[b.canon[i]] = true
				b.sel = append(b.sel, int32(i))
			}
		}
		batches = append(batches, b)
		insertChained(t, tbl, b, -1, entriesOf, keyOf, &total)
		if tbl.NumRows() != tbl.Len() {
			t.Fatalf("%d rows of distinct keys make %d heads", tbl.NumRows(), tbl.Len())
		}
	}
	for round := 0; round < rounds; round++ {
		b := genBatch(r, specs, 200+r.Intn(400), hashBits, round%3 == 2)
		batches = append(batches, b)
		insertChained(t, tbl, b, round, entriesOf, keyOf, &total)
	}
	if total < 1024 {
		t.Fatalf("only %d entries: too few to cross storage growth steps", total)
	}
	checkChains(t, tbl, specs, append(batches, genBatch(r, specs, 500, hashBits, true)), entriesOf, keyOf)
}

// insertChained inserts batch b through InsertDup and records every row's
// entry in the oracle maps.
func insertChained(t *testing.T, tbl *Table, b *oracleBatch, round int, entriesOf map[string][]int32, keyOf map[int32]string, total *int) {
	t.Helper()
	rowIDs := make([]int32, b.n)
	inserted := make([]bool, b.n)
	if err := tbl.InsertDup(b.keys, b.hashes, b.sel, b.n, rowIDs, inserted); err != nil {
		t.Fatal(err)
	}
	b.active(func(i int) {
		if _, dup := keyOf[rowIDs[i]]; dup || rowIDs[i] < 0 || int(rowIDs[i]) >= tbl.NumRows() {
			t.Fatalf("round %d row %d: entry id %d reused or out of range", round, i, rowIDs[i])
		}
		if first := len(entriesOf[b.canon[i]]) == 0; first && !inserted[i] {
			t.Fatalf("round %d row %d: first row of key %s not reported as a new head", round, i, b.canon[i])
		}
		keyOf[rowIDs[i]] = b.canon[i]
		entriesOf[b.canon[i]] = append(entriesOf[b.canon[i]], rowIDs[i])
		writeOraclePayload(tbl, rowIDs[i], uint32(rowIDs[i])+5)
		*total++
	})
	if tbl.NumRows() != *total || tbl.Len() != len(entriesOf) {
		t.Fatalf("round %d: NumRows %d Len %d, oracle %d rows %d keys", round, tbl.NumRows(), tbl.Len(), *total, len(entriesOf))
	}
}

// checkChains probes every batch and requires each key's chain to hold
// exactly the entries the oracle recorded for it, and every entry to keep
// its key and payload.
func checkChains(t *testing.T, tbl *Table, specs []oracleKeySpec, probes []*oracleBatch, entriesOf map[string][]int32, keyOf map[int32]string) {
	t.Helper()
	headOf := map[string]int32{} // keys whose chain has been walked
	for _, b := range probes {
		heads := make([]int32, b.n)
		if err := tbl.Find(b.keys, b.hashes, b.sel, b.n, heads); err != nil {
			t.Fatal(err)
		}
		b.active(func(i int) {
			want := entriesOf[b.canon[i]]
			if len(want) == 0 {
				if heads[i] != -1 {
					t.Fatalf("Find(absent %s) = %d", b.canon[i], heads[i])
				}
				return
			}
			if h, walked := headOf[b.canon[i]]; walked {
				if heads[i] != h {
					t.Fatalf("Find(%s) = %d, then %d", b.canon[i], h, heads[i])
				}
				return
			}
			headOf[b.canon[i]] = heads[i]
			var chain []int32
			for e := heads[i]; e != -1; e = tbl.Next(e) {
				if len(chain) > len(want) {
					t.Fatalf("chain of %s runs past its %d entries", b.canon[i], len(want))
				}
				chain = append(chain, e)
			}
			sorted := append([]int32(nil), want...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			sort.Slice(chain, func(a, b int) bool { return chain[a] < chain[b] })
			if fmt.Sprint(chain) != fmt.Sprint(sorted) {
				t.Fatalf("chain of %s = %v, oracle %v", b.canon[i], chain, sorted)
			}
		})
	}
	for row, key := range keyOf {
		if got := readCanon(tbl, specs, row); got != key {
			t.Fatalf("entry %d: ReadKey gives %s, want %s", row, got, key)
		}
		checkOraclePayload(t, tbl, row, uint32(row)+5)
	}
}

// TestEmptyStringBehindFullHeapPage stores an empty string when the heap page
// before it is exactly full — a page of 8-byte keys filled to its last byte,
// and a value longer than a page, which owns a page of its own length — and
// requires every key, the empty one included, to read back and be found, both
// while the empty string is the heap's last value and after another follows.
func TestEmptyStringBehindFullHeapPage(t *testing.T) {
	fill := make([]string, heapPageSize/8)
	for i := range fill {
		fill[i] = fmt.Sprintf("%08d", i)
	}
	for name, before := range map[string][]string{
		"full page":     fill,
		"oversize page": {string(bytes.Repeat([]byte{'x'}, heapPageSize+904))},
	} {
		t.Run(name, func(t *testing.T) {
			want := append(append([]string{}, before...), "", "after")
			n := len(want)
			key := vector.New(types.StringType, n)
			hashes := make([]uint64, n)
			for i, s := range want {
				key.Str[i] = []byte(s)
				h := fnv.New64a()
				h.Write(key.Str[i])
				hashes[i] = h.Sum64()
			}
			keys := []*vector.Vector{key}
			tbl := New([]types.DataType{types.StringType}, 0)
			ids, found := make([]int32, n), make([]int32, n)
			out := vector.New(types.StringType, 1)
			for _, upTo := range []int{n - 1, n} {
				if err := tbl.FindOrInsert(keys, hashes, nil, upTo, ids, make([]bool, n)); err != nil {
					t.Fatal(err)
				}
				if err := tbl.Find(keys, hashes, nil, upTo, found); err != nil {
					t.Fatal(err)
				}
				if tbl.Len() != upTo {
					t.Fatalf("%d keys after inserting %d distinct ones", tbl.Len(), upTo)
				}
				for i, s := range want[:upTo] {
					if found[i] != ids[i] {
						t.Fatalf("key %d (%d bytes): entry %d, found %d", i, len(s), ids[i], found[i])
					}
					if tbl.ReadKey(ids[i], 0, out, 0); out.Nulls[0] != 0 || string(out.Str[0]) != s {
						t.Fatalf("key %d reads back as %d bytes, want %d", i, len(out.Str[0]), len(s))
					}
				}
			}
		})
	}
}
