package kernels

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"photon/internal/mem"
)

func TestAddVVDenseAndSel(t *testing.T) {
	a := []int64{1, 2, 3, 4}
	b := []int64{10, 20, 30, 40}
	out := make([]int64, 4)
	AddVV(a, b, out, nil, 4)
	for i, want := range []int64{11, 22, 33, 44} {
		if out[i] != want {
			t.Errorf("dense out[%d]=%d", i, out[i])
		}
	}
	out2 := make([]int64, 4)
	AddVV(a, b, out2, []int32{1, 3}, 4)
	if out2[1] != 22 || out2[3] != 44 {
		t.Errorf("sel results wrong: %v", out2)
	}
	if out2[0] != 0 || out2[2] != 0 {
		t.Errorf("inactive rows were written: %v", out2)
	}
}

func TestDivVVZeroProducesNull(t *testing.T) {
	a := []float64{10, 20, 30}
	b := []float64{2, 0, 5}
	out := make([]float64, 3)
	nulls := make([]byte, 3)
	produced := DivVV(a, b, out, nulls, nil, 3)
	if !produced {
		t.Error("expected NULL production")
	}
	if nulls[1] != 1 || nulls[0] != 0 || nulls[2] != 0 {
		t.Errorf("nulls = %v", nulls)
	}
	if out[0] != 5 || out[2] != 6 {
		t.Errorf("out = %v", out)
	}
}

func TestModVV(t *testing.T) {
	a := []int64{10, 7, 5}
	b := []int64{3, 0, 5}
	out := make([]int64, 3)
	nulls := make([]byte, 3)
	if !ModVV(a, b, out, nulls, nil, 3) {
		t.Error("expected NULL on mod by zero")
	}
	if out[0] != 1 || nulls[1] != 1 || out[2] != 0 {
		t.Errorf("out=%v nulls=%v", out, nulls)
	}
}

func TestSelCmpVSAllOps(t *testing.T) {
	a := []int32{5, 10, 15, 20}
	cases := []struct {
		op   CmpOp
		want []int32
	}{
		{CmpEq, []int32{1}},
		{CmpNe, []int32{0, 2, 3}},
		{CmpLt, []int32{0}},
		{CmpLe, []int32{0, 1}},
		{CmpGt, []int32{2, 3}},
		{CmpGe, []int32{1, 2, 3}},
	}
	for _, c := range cases {
		got := SelCmpVS(c.op, a, 10, nil, false, nil, 4, nil)
		if !eqSel(got, c.want) {
			t.Errorf("op %d: got %v want %v", c.op, got, c.want)
		}
	}
	// With nulls: row 1 null.
	nulls := []byte{0, 1, 0, 0}
	got := SelCmpVS(CmpGe, a, 10, nulls, true, nil, 4, nil)
	if !eqSel(got, []int32{2, 3}) {
		t.Errorf("null filtering: got %v", got)
	}
	// Under selection.
	got = SelCmpVS(CmpGt, a, 5, nil, false, []int32{0, 2}, 4, nil)
	if !eqSel(got, []int32{2}) {
		t.Errorf("sel: got %v", got)
	}
}

func TestSelBetweenMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int32, 500)
	nulls := make([]byte, 500)
	for i := range vals {
		vals[i] = int32(rng.Intn(100))
		if rng.Intn(10) == 0 {
			nulls[i] = 1
		}
	}
	fused := SelBetweenVS(vals, 20, 60, nulls, true, nil, 500, nil)
	step1 := SelCmpVS(CmpGe, vals, 20, nulls, true, nil, 500, nil)
	unfused := SelCmpVS(CmpLe, vals, 60, nulls, true, step1, 500, nil)
	if !eqSel(fused, unfused) {
		t.Errorf("fused %d rows, unfused %d rows", len(fused), len(unfused))
	}
}

func TestSelCmpBytes(t *testing.T) {
	vals := [][]byte{[]byte("apple"), []byte("banana"), []byte("cherry")}
	got := SelCmpBytesVS(CmpGt, vals, []byte("avocado"), nil, false, nil, 3, nil)
	if !eqSel(got, []int32{1, 2}) {
		t.Errorf("bytes VS: %v", got)
	}
	b := [][]byte{[]byte("apple"), []byte("zzz"), []byte("cherry")}
	got = SelCmpBytesVV(CmpEq, vals, b, nil, nil, false, nil, 3, nil)
	if !eqSel(got, []int32{0, 2}) {
		t.Errorf("bytes VV: %v", got)
	}
}

func TestUnionDiffDenseSel(t *testing.T) {
	a := []int32{1, 3, 5}
	b := []int32{2, 3, 6}
	if got := UnionSel(a, b, nil); !eqSel(got, []int32{1, 2, 3, 5, 6}) {
		t.Errorf("union: %v", got)
	}
	parent := []int32{1, 2, 3, 5, 6}
	if got := DiffSel(parent, a, nil); !eqSel(got, []int32{2, 6}) {
		t.Errorf("diff: %v", got)
	}
	if got := DenseSel(3, nil); !eqSel(got, []int32{0, 1, 2}) {
		t.Errorf("dense: %v", got)
	}
}

func TestSelIsNullNotNull(t *testing.T) {
	nulls := []byte{0, 1, 0, 1}
	if got := SelIsNull(nulls, true, nil, 4, nil); !eqSel(got, []int32{1, 3}) {
		t.Errorf("isnull: %v", got)
	}
	if got := SelIsNotNull(nulls, true, nil, 4, nil); !eqSel(got, []int32{0, 2}) {
		t.Errorf("isnotnull: %v", got)
	}
	if got := SelIsNull(nulls, false, nil, 4, nil); len(got) != 0 {
		t.Errorf("isnull no-null fast path: %v", got)
	}
	if got := SelIsNotNull(nulls, false, []int32{1, 2}, 4, nil); !eqSel(got, []int32{1, 2}) {
		t.Errorf("isnotnull passthrough: %v", got)
	}
}

func TestIsASCIISWAR(t *testing.T) {
	cases := []struct {
		s    string
		want bool
	}{
		{"", true},
		{"hello", true},
		{"hello world this is a longer ascii string!", true},
		{"héllo", false},
		{"exactly8", true},
		{"exactly8bytes€", false},
		{strings.Repeat("x", 1000), true},
		{strings.Repeat("x", 999) + "é", false},
	}
	for _, c := range cases {
		if got := IsASCII([]byte(c.s)); got != c.want {
			t.Errorf("IsASCII(%q) = %v", c.s, got)
		}
	}
}

func TestUpperLowerSWARMatchesReference(t *testing.T) {
	f := func(s string) bool {
		// Constrain to ASCII for the SWAR path.
		b := make([]byte, len(s))
		for i := 0; i < len(s); i++ {
			b[i] = s[i] & 0x7f
		}
		up := make([]byte, len(b))
		UpperASCIIInto(up, b)
		lo := make([]byte, len(b))
		LowerASCIIInto(lo, b)
		return string(up) == strings.ToUpper(string(b)) && string(lo) == strings.ToLower(string(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestUpperASCIIEdgeBytes(t *testing.T) {
	// Bytes adjacent to the letter ranges must not flip.
	in := []byte("`az{@AZ[0129 \t~")
	out := make([]byte, len(in))
	UpperASCIIInto(out, in)
	if string(out) != "`AZ{@AZ[0129 \t~" {
		t.Errorf("edge bytes: %q", out)
	}
	LowerASCIIInto(out, in)
	if string(out) != "`az{@az[0129 \t~" {
		t.Errorf("edge bytes lower: %q", out)
	}
}

func TestUpperKernelsPreserveInactive(t *testing.T) {
	arena := mem.NewArena(0)
	vals := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
	out := make([][]byte, 3)
	out[1] = []byte("keep") // inactive row holds live data
	UpperASCIIV(vals, nil, false, []int32{0, 2}, 3, arena, out)
	if string(out[0]) != "AA" || string(out[2]) != "CC" {
		t.Errorf("active rows wrong: %q %q", out[0], out[2])
	}
	if string(out[1]) != "keep" {
		t.Errorf("inactive row overwritten: %q", out[1])
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		pattern string
		s       string
		want    bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"he%", "hello", true},
		{"he%", "ahello", false},
		{"%llo", "hello", true},
		{"%ell%", "hello", true},
		{"%xyz%", "hello", false},
		{"h_llo", "hello", true},
		{"h_llo", "hallo", true},
		{"h_llo", "hllo", false},
		{"%o_l%", "world", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"%", "anything", true},
		{"%", "", true},
		{"_", "", false},
		{"_", "x", true},
		{"special%request", "special request", true}, // % matches the space
		{"special%requests", "specialrequest", false},
		{"ab%ab", "ab", false},   // segments may not overlap
		{"a\x00_", "axy", false}, // a NUL in a pattern is literal
		{"a\x00_", "a\x00y", true},
		{"a\x00%b%c", "axqbc", false},
		{"_", "é", true}, // _ is one character, not one byte
		{"a_c", "aéc", true},
		{"__", "é", false},
		{"%_", "é", true},
		{"_\xff", "\xff\xff", true}, // a byte that starts no UTF-8 sequence is one character
		{"a_", "a\xc3", true},
	}
	for _, c := range cases {
		p := CompileLike(c.pattern)
		if got := p.Match([]byte(c.s)); got != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestSubstr(t *testing.T) {
	s := []byte("hello world")
	if got := substrOne(s, 1, 5, true); string(got) != "hello" {
		t.Errorf("substr(1,5) = %q", got)
	}
	if got := substrOne(s, 7, 100, true); string(got) != "world" {
		t.Errorf("substr(7,100) = %q", got)
	}
	if got := substrOne(s, -5, 5, true); string(got) != "world" {
		t.Errorf("substr(-5,5) = %q", got)
	}
	if got := substrOne(s, 100, 5, true); len(got) != 0 {
		t.Errorf("substr past end = %q", got)
	}
	u := []byte("héllo")
	if got := substrOne(u, 2, 3, false); string(got) != "éll" {
		t.Errorf("utf8 substr = %q", got)
	}
}

func TestHashDeterminismAndSpread(t *testing.T) {
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i)
	}
	out1 := make([]uint64, 100)
	out2 := make([]uint64, 100)
	HashU64(vals, nil, false, nil, 100, out1)
	HashU64(vals, nil, false, nil, 100, out2)
	seen := make(map[uint64]bool)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("hash not deterministic")
		}
		if seen[out1[i]] {
			t.Fatalf("hash collision among first 100 ints at %d", i)
		}
		seen[out1[i]] = true
	}
	// Null rows hash to the null seed consistently.
	nulls := make([]byte, 2)
	nulls[0] = 1
	out := make([]uint64, 2)
	HashU64([]uint64{123, 123}, nulls, true, nil, 2, out)
	if out[0] == out[1] {
		t.Error("null should hash differently from value")
	}
}

func TestRehashOrderMatters(t *testing.T) {
	out1 := make([]uint64, 1)
	out2 := make([]uint64, 1)
	HashU64([]uint64{1}, nil, false, nil, 1, out1)
	RehashU64([]uint64{2}, nil, false, nil, 1, out1)
	HashU64([]uint64{2}, nil, false, nil, 1, out2)
	RehashU64([]uint64{1}, nil, false, nil, 1, out2)
	if out1[0] == out2[0] {
		t.Error("(1,2) and (2,1) should hash differently")
	}
}

func TestHashBytes(t *testing.T) {
	a := HashBytesOne([]byte("hello"))
	b := HashBytesOne([]byte("hellp"))
	c := HashBytesOne([]byte("hello"))
	if a == b {
		t.Error("distinct strings collided")
	}
	if a != c {
		t.Error("same string hashed differently")
	}
	if HashBytesOne(nil) != HashBytesOne([]byte{}) {
		t.Error("nil vs empty mismatch")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[uint64]uint64{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func eqSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
