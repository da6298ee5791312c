package rf

import (
	"math"
	"math/rand"
	"testing"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// TestBloomNoFalseNegatives is the property every runtime filter rests on:
// a key that was added is always reported as possibly present.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 100, 10_000, 200_000} {
		b := NewBloom(int64(n))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
			b.Add(keys[i])
		}
		for i, k := range keys {
			if !b.MayContain(k) {
				t.Fatalf("n=%d: false negative on key %d (%#x)", n, i, k)
			}
		}
	}
}

// TestBloomFalsePositiveRate checks the measured FPP at the n/m design point
// against the split-block theoretical rate. A split-block filter sets one
// bit per 32-bit word of one 256-bit block, so its theoretical FPP is the
// Poisson mixture over per-block loads L of (1 - (31/32)^L)^8 — higher than
// a classic Bloom filter of the same size (block-load variance), which is
// the price of one-cache-line probes. The measurement must stay within 2x
// of that theory.
func TestBloomFalsePositiveRate(t *testing.T) {
	const n = 50_000
	b := NewBloom(n)

	// Insert hashes of keys [0, n); probe [n, n+1M) — disjoint by Mix64
	// bijectivity.
	for i := 0; i < n; i++ {
		b.Add(kernels.Mix64(uint64(i)))
	}
	const probes = 1_000_000
	fp := 0
	for i := n; i < n+probes; i++ {
		if b.MayContain(kernels.Mix64(uint64(i))) {
			fp++
		}
	}
	measured := float64(fp) / probes

	// Split-block theory at this filter's actual geometry.
	numBlocks := float64(b.NumBits() / (blockWords * 32))
	lambda := n / numBlocks
	theory := 0.0
	pmf := math.Exp(-lambda)
	for l := 0; l < 256; l++ {
		if l > 0 {
			pmf *= lambda / float64(l)
		}
		theory += pmf * math.Pow(1-math.Pow(31.0/32.0, float64(l)), blockWords)
	}
	t.Logf("bits=%d bits/key=%.1f measured=%.5f%% theory=%.5f%%",
		b.NumBits(), float64(b.NumBits())/n, 100*measured, 100*theory)
	if theory > 0.005 {
		t.Fatalf("design point too weak: theoretical FPP %.4f%% > 0.5%%", 100*theory)
	}
	if measured > 2*theory {
		t.Fatalf("measured FPP %.5f%% exceeds 2x theoretical %.5f%%", 100*measured, 100*theory)
	}
}

// TestBloomUnion checks partial-filter unioning: the union must contain
// every key either side contained, and mismatched sizes must be rejected.
func TestBloomUnion(t *testing.T) {
	a, b := NewBloom(1000), NewBloom(1000)
	for i := 0; i < 500; i++ {
		a.Add(kernels.Mix64(uint64(i)))
		b.Add(kernels.Mix64(uint64(10_000 + i)))
	}
	if !a.Union(b) {
		t.Fatal("union of same-size filters failed")
	}
	for i := 0; i < 500; i++ {
		if !a.MayContain(kernels.Mix64(uint64(i))) || !a.MayContain(kernels.Mix64(uint64(10_000+i))) {
			t.Fatalf("union lost key %d", i)
		}
	}
	if a.Union(NewBloom(1 << 20)) {
		t.Fatal("union of mismatched sizes must report false")
	}
	if a.Union(nil) {
		t.Fatal("union with nil must report false")
	}
}

// buildVec fills a vector of type tp from vals ( nil entries become NULL).
func buildVec(tp types.DataType, vals []any) *vector.Vector {
	v := vector.New(tp, len(vals))
	for i, x := range vals {
		if x == nil {
			v.SetNull(i)
			continue
		}
		v.Set(i, x)
	}
	return v
}

// TestColFilterNoFalseNegatives: every non-NULL probe value equal to some
// build value survives ProbeVec, for each supported key type.
func TestColFilterNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		tp  types.DataType
		gen func() any
	}{
		{types.Int64Type, func() any { return rng.Int63n(1 << 40) }},
		{types.Int32Type, func() any { return int32(rng.Int31()) }},
		{types.Float64Type, func() any { return rng.NormFloat64() * 1e6 }},
		{types.StringType, func() any {
			b := make([]byte, 1+rng.Intn(20))
			rng.Read(b)
			return b
		}},
	}
	for _, tc := range cases {
		const n = 4096
		vals := make([]any, n)
		for i := range vals {
			if i%37 == 0 {
				continue // NULL build keys are skipped by AddVec
			}
			vals[i] = tc.gen()
		}
		v := buildVec(tc.tp, vals)
		c := NewColFilter(tc.tp, n)
		if c == nil {
			t.Fatalf("%v: unsupported", tc.tp)
		}
		var s HashScratch
		c.AddVec(v, nil, n, &s)
		out := c.ProbeVec(v, nil, n, &s, nil)
		// Every non-NULL row must survive a self-probe.
		want := 0
		for _, x := range vals {
			if x != nil {
				want++
			}
		}
		if len(out) != want {
			t.Fatalf("%v: self-probe kept %d of %d non-NULL rows", tc.tp, len(out), want)
		}
	}
}

// TestColFilterRejects: values far outside the build range are rejected by
// the range envelope, and an empty build side rejects everything.
func TestColFilterRejects(t *testing.T) {
	build := buildVec(types.Int64Type, []any{int64(100), int64(200), int64(300)})
	c := NewColFilter(types.Int64Type, 3)
	var s HashScratch
	c.AddVec(build, nil, 3, &s)

	probe := buildVec(types.Int64Type, []any{int64(50), int64(200), int64(999), nil})
	out := c.ProbeVec(probe, nil, 4, &s, nil)
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("want only row 1 (value 200), got %v", out)
	}

	empty := NewColFilter(types.Int64Type, 3)
	if got := empty.ProbeVec(probe, nil, 4, &s, nil); len(got) != 0 {
		t.Fatalf("empty build side must reject everything, got %v", got)
	}
}

// TestColFilterMerge: merged partials behave like a filter built from the
// concatenated inputs.
func TestColFilterMerge(t *testing.T) {
	a := NewColFilter(types.Int64Type, 100)
	b := NewColFilter(types.Int64Type, 100)
	var s HashScratch
	va := buildVec(types.Int64Type, []any{int64(1), int64(2)})
	vb := buildVec(types.Int64Type, []any{int64(1000), int64(2000)})
	a.AddVec(va, nil, 2, &s)
	b.AddVec(vb, nil, 2, &s)
	a.Merge(b)
	probe := buildVec(types.Int64Type, []any{int64(1), int64(2000), int64(500_000)})
	out := a.ProbeVec(probe, nil, 3, &s, nil)
	if len(out) != 2 || out[0] != 0 || out[1] != 1 {
		t.Fatalf("merged filter: want rows [0 1], got %v", out)
	}
	if a.N != 4 {
		t.Fatalf("merged N = %d, want 4", a.N)
	}
}

// TestFilterNaNKillsRange: a NaN build key disables the range envelope but
// keeps the Bloom filter; probes equal to build keys still pass.
func TestFilterNaNKillsRange(t *testing.T) {
	c := NewColFilter(types.Float64Type, 10)
	var s HashScratch
	v := buildVec(types.Float64Type, []any{1.5, math.NaN(), 99.5})
	c.AddVec(v, nil, 3, &s)
	probe := buildVec(types.Float64Type, []any{1.5, 99.5, math.NaN()})
	out := c.ProbeVec(probe, nil, 3, &s, nil)
	// Rows 0 and 1 must pass (no false negatives). NaN probe hashes like the
	// build NaN, so row 2 passing is acceptable too.
	if len(out) < 2 || out[0] != 0 || out[1] != 1 {
		t.Fatalf("NaN build: want rows 0,1 to survive, got %v", out)
	}
}

// TestRegistry covers the publish/expect lifecycle and its best-effort
// degradation modes.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Expect(5, 2)
	if r.Filter(5) != nil {
		t.Fatal("filter must be nil before all tasks publish")
	}
	f0 := NewFilter([]types.DataType{types.Int64Type}, 10)
	var s HashScratch
	b := vector.NewBatch(types.NewSchema(types.Field{Name: "k", Type: types.Int64Type}), 2)
	b.Vecs[0].Set(0, int64(7))
	b.Vecs[0].Set(1, int64(8))
	b.NumRows = 2
	f0.Add(b, []int{0}, nil, 2, &s)
	r.Publish(5, 0, f0)
	if r.Filter(5) != nil {
		t.Fatal("filter must be nil while task 1 is outstanding")
	}
	r.Publish(5, 1, nil) // coalesced-away task: counts, contributes nothing
	got := r.Filter(5)
	if got == nil || !got.Usable() {
		t.Fatal("filter must be complete after all tasks publish")
	}
	if got.Cols[0].N != 2 {
		t.Fatalf("merged N = %d, want 2", got.Cols[0].N)
	}
	// Duplicate publish is idempotent.
	r.Publish(5, 0, NewFilter([]types.DataType{types.Int64Type}, 10))
	if r.Filter(5).Cols[0].N != 2 {
		t.Fatal("duplicate publish must be ignored")
	}
	// Drop: consumers read nil.
	r.Drop(5)
	if r.Filter(5) != nil {
		t.Fatal("dropped filter must read nil")
	}
	// Unknown IDs and nil registries are safe.
	if r.Filter(99) != nil {
		t.Fatal("unknown id must read nil")
	}
	var nilReg *Registry
	nilReg.Expect(1, 1)
	nilReg.Publish(1, 0, nil)
	if nilReg.Filter(1) != nil {
		t.Fatal("nil registry must read nil")
	}
}

// TestUnsupportedKeyType: Decimal keys yield a nil ColFilter (pass-through)
// without breaking the surrounding Filter.
func TestUnsupportedKeyType(t *testing.T) {
	f := NewFilter([]types.DataType{types.DecimalType(10, 2), types.Int64Type}, 10)
	if f.Cols[0] != nil {
		t.Fatal("decimal key must yield a nil column filter")
	}
	if !f.Usable() {
		t.Fatal("filter with one supported column must be usable")
	}
	if NewFilter([]types.DataType{types.DecimalType(10, 2)}, 10).Usable() {
		t.Fatal("filter with no supported columns must not be usable")
	}
}
