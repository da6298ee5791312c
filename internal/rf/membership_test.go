package rf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// memberCase is one build side of TestColFilterMembership: batches of keys
// in arrival order, batch i going to partial filter i mod the number of
// partials. lo and hi are the key type's smallest and largest values.
type memberCase struct {
	name    string
	expect  int64 // the build-row estimate every partial is sized from
	nulls   bool  // a NULL row opens each batch and follows every fifth key
	bloom   bool  // the merged filter ends as a Bloom, not an exact set
	batches func(lo, hi int64) [][]int64
}

// keyRun returns the keys lo, lo+step, ... (n of them).
func keyRun(lo, step int64, n int) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = lo + int64(i)*step
	}
	return ks
}

var memberCases = []memberCase{
	{name: "dense", expect: 1000, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(0, 1, 250), keyRun(250, 1, 250), keyRun(500, 1, 250), keyRun(750, 1, 250)}
	}},
	{name: "dense_shuffled", expect: 1000, batches: func(lo, hi int64) [][]int64 {
		ks := keyRun(1000, 1, 2000)
		rand.New(rand.NewSource(3)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		return [][]int64{ks[:500], ks[500:1000], ks[1000:1500], ks[1500:]}
	}},
	{name: "negative_descending", expect: 1000, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(-100_000, -3, 250), keyRun(-100_750, -3, 250), keyRun(-101_500, -3, 250), keyRun(-102_250, -3, 250)}
	}},
	{name: "dense_nulls", expect: 1000, nulls: true, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(0, 1, 250), keyRun(250, 1, 250), keyRun(500, 1, 250), keyRun(750, 1, 250)}
	}},
	{name: "sparse", bloom: true, expect: 1000, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(0, 1_000_003, 250), keyRun(250*1_000_003, 1_000_003, 250),
			keyRun(500*1_000_003, 1_000_003, 250), keyRun(750*1_000_003, 1_000_003, 250)}
	}},
	{name: "at_min", expect: 1000, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(lo, 1, 250), keyRun(lo+250, 1, 250), keyRun(lo+500, 1, 250), keyRun(lo+750, 1, 250)}
	}},
	{name: "at_max", expect: 1000, nulls: true, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(hi-249, 1, 250), keyRun(hi-499, 1, 250), keyRun(hi-749, 1, 250), keyRun(hi-999, 1, 250)}
	}},
	{name: "both_ends", bloom: true, expect: 1000, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{{lo, lo + 1}, {hi - 1, hi}, {lo + 2, lo + 64}, {hi - 2, hi - 64}}
	}},
	// The second batch's span is over the budget only from its middle row.
	{name: "outgrows_mid_batch", bloom: true, expect: 100, batches: func(lo, hi int64) [][]int64 {
		mid := append(append(keyRun(200, 1, 50), 1<<30), keyRun(250, 1, 50)...)
		return [][]int64{keyRun(0, 1, 200), mid, keyRun(300, 1, 100), keyRun(400, 1, 100)}
	}},
	// With two or four partials, one is sparse and the others are dense.
	{name: "mixed_partials", bloom: true, expect: 1000, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(0, 1, 250), keyRun(0, 4_000_037, 250), keyRun(250, 1, 250), keyRun(500, 1, 250)}
	}},
	// Each partial is dense on its own; their union is not.
	{name: "union_too_wide", bloom: true, expect: 1000, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{keyRun(0, 1, 500), keyRun(1<<20, 1, 500), keyRun(500, 1, 200), keyRun(1<<20+500, 1, 200)}
	}},
	{name: "only_nulls", expect: 10, nulls: true, batches: func(lo, hi int64) [][]int64 {
		return [][]int64{{}, {}}
	}},
	{name: "no_rows", expect: 10, batches: func(lo, hi int64) [][]int64 { return nil }},
}

// memberVec builds a key vector of type tp from ks, with NULL rows as
// memberCase.nulls places them, and returns it with its row count.
func memberVec(tp types.DataType, ks []int64, nulls bool) (*vector.Vector, int) {
	var vals []any
	add := func(k int64) {
		if tp.ID == types.Int32 || tp.ID == types.Date {
			vals = append(vals, int32(k))
		} else {
			vals = append(vals, k)
		}
	}
	if nulls {
		vals = append(vals, nil)
	}
	for i, k := range ks {
		add(k)
		if nulls && i%5 == 4 {
			vals = append(vals, nil)
		}
	}
	return buildVec(tp, vals), len(vals)
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestColFilterMembership compares integer-key runtime filters with a Go map
// of their build keys: dense, sparse and negative key sets, NULLs, keys at the
// type's extremes, a build that outgrows the filter's budget inside a batch
// and empty builds, for one, two and four partial filters published through a
// Registry in every order. A Bloom filter may pass a key it does not hold; an
// exact set may not, and neither may ever drop a key it holds.
func TestColFilterMembership(t *testing.T) {
	widths := []struct {
		tp     types.DataType
		lo, hi int64
	}{
		{types.Int32Type, math.MinInt32, math.MaxInt32},
		{types.DateType, math.MinInt32, math.MaxInt32},
		{types.Int64Type, math.MinInt64, math.MaxInt64},
		{types.TimestampType, math.MinInt64, math.MaxInt64},
	}
	for _, w := range widths {
		for _, mc := range memberCases {
			batches := mc.batches(w.lo, w.hi)
			member := map[int64]bool{}
			for _, b := range batches {
				for _, k := range b {
					member[k] = true
				}
			}
			probe := probeKeys(member, w.lo, w.hi)
			pv, pn := memberVec(w.tp, probe, true)
			for _, parts := range []int{1, 2, 4} {
				for _, order := range permutations(parts) {
					t.Run(fmt.Sprintf("%s/%s/parts=%d/order=%v", w.tp, mc.name, parts, order), func(t *testing.T) {
						f := publishPartials(w.tp, mc, batches, parts, order)
						c := f.Cols[0]
						if want := int64(len(keysOf(batches))); c.N != want {
							t.Fatalf("N = %d, want %d non-NULL build keys", c.N, want)
						}
						_, sized, exact := f.Keys()
						if sized != NewBloom(mc.expect).NumBits()/BitsPerKey {
							t.Fatalf("Keys() sized for %d, want %d", sized, NewBloom(mc.expect).NumBits()/BitsPerKey)
						}
						if exact != !mc.bloom || c.exact() != exact {
							t.Fatalf("Keys() exact = %v, column exact = %v, want %v", exact, c.exact(), !mc.bloom)
						}
						if exact && c.bloom != nil || !exact && c.set != nil {
							t.Fatal("a filter holds both an exact set and a Bloom")
						}
						checkMembership(t, c, pv, pn, probe, member)
					})
				}
			}
		}
	}
}

// keysOf flattens a case's batches.
func keysOf(batches [][]int64) []int64 {
	var ks []int64
	for _, b := range batches {
		ks = append(ks, b...)
	}
	return ks
}

// probeKeys returns every build key with its neighbours one and a word away,
// the type's extremes, and a few keys no case builds.
func probeKeys(member map[int64]bool, lo, hi int64) []int64 {
	seen := map[int64]bool{}
	var ks []int64
	add := func(k int64) {
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	for _, k := range []int64{lo, lo + 1, hi - 1, hi, 0, -1, 1, 1 << 29} {
		add(k)
	}
	for k := range member {
		add(k)
		for _, d := range []int64{-64, -1, 1, 63, 64} {
			if (d < 0 && k >= lo-d) || (d > 0 && k <= hi-d) {
				add(k + d)
			}
		}
	}
	slices.Sort(ks)
	return ks
}

// publishPartials builds parts partial filters over the case's batches and
// publishes them to a Registry in the given order, returning the merge.
func publishPartials(tp types.DataType, mc memberCase, batches [][]int64, parts int, order []int) *Filter {
	schema := types.NewSchema(types.Field{Name: "k", Type: tp})
	partials := make([]*Filter, parts)
	for p := range partials {
		partials[p] = NewFilter([]types.DataType{tp}, mc.expect)
	}
	var s HashScratch
	for i, ks := range batches {
		v, n := memberVec(tp, ks, mc.nulls)
		b := vector.NewBatch(schema, n)
		b.Vecs[0] = v
		b.NumRows = n
		partials[i%parts].Add(b, []int{0}, nil, b.NumRows, &s)
	}
	r := NewRegistry()
	r.Expect(1, parts)
	for _, p := range order {
		r.Publish(1, p, partials[p])
	}
	return r.Filter(1)
}

// checkMembership probes pv (the keys in probe, with NULL rows) through c,
// once over every row and once over every other row, and checks each key the
// map holds passes, each NULL is dropped, and an exact set passes nothing
// else.
func checkMembership(t *testing.T, c *ColFilter, pv *vector.Vector, pn int, probe []int64, member map[int64]bool) {
	t.Helper()
	// Row r of pv holds probe key keyAt[r], or is NULL (-1).
	keyAt := make([]int, 0, pn)
	keyAt = append(keyAt, -1)
	for i := range probe {
		keyAt = append(keyAt, i)
		if i%5 == 4 {
			keyAt = append(keyAt, -1)
		}
	}
	odd := []int32{}
	for r := 1; r < pn; r += 2 {
		odd = append(odd, int32(r))
	}
	var s HashScratch
	for _, sel := range [][]int32{nil, odd} {
		passed := map[int32]bool{}
		for _, r := range c.ProbeVec(pv, sel, pn, &s, nil) {
			passed[r] = true
		}
		rows := sel
		if rows == nil {
			rows = make([]int32, pn)
			for r := range rows {
				rows[r] = int32(r)
			}
		}
		for _, r := range rows {
			ki := keyAt[r]
			switch {
			case ki < 0 && passed[r]:
				t.Fatalf("row %d: NULL probe key passed", r)
			case ki >= 0 && member[probe[ki]] && !passed[r]:
				t.Fatalf("row %d: build key %d dropped (false negative)", r, probe[ki])
			case ki >= 0 && !member[probe[ki]] && passed[r] && c.exact():
				t.Fatalf("row %d: key %d passed an exact set that does not hold it", r, probe[ki])
			}
		}
		for r := range passed {
			if sel != nil && r%2 == 0 {
				t.Fatalf("row %d passed but is not in the position list", r)
			}
		}
	}
}
