package types

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func dec(t *testing.T, s string, scale int) Decimal128 {
	t.Helper()
	d, err := ParseDecimal(s, scale)
	if err != nil {
		t.Fatalf("ParseDecimal(%q, %d): %v", s, scale, err)
	}
	return d
}

func TestDecimalParseFormat(t *testing.T) {
	cases := []struct {
		in    string
		scale int
		out   string
	}{
		{"0", 2, "0.00"},
		{"123.45", 2, "123.45"},
		{"-123.45", 2, "-123.45"},
		{"123.456", 2, "123.46"}, // rounds
		{"123.454", 2, "123.45"},
		{".5", 1, "0.5"},
		{"1", 0, "1"},
		{"-0.01", 2, "-0.01"},
		{"99999999999999999999.99", 2, "99999999999999999999.99"}, // > 64 bits unscaled
		{"-99999999999999999999999999999999999999", 0, "-99999999999999999999999999999999999999"},
		{"0.00000000000000000000000000000000000001", 38, "0.00000000000000000000000000000000000001"},
	}
	for _, c := range cases {
		d := dec(t, c.in, c.scale)
		if got := FormatDecimal(d, c.scale); got != c.out {
			t.Errorf("ParseDecimal(%q,%d) -> %q, want %q", c.in, c.scale, got, c.out)
		}
	}
}

func TestDecimalParseErrors(t *testing.T) {
	for _, s := range []string{"", "abc", "1.2.3", "--5", "12a"} {
		if _, err := ParseDecimal(s, 2); err == nil {
			t.Errorf("ParseDecimal(%q) should fail", s)
		}
	}
}

func TestDecimalAddSubNegAbs(t *testing.T) {
	a := dec(t, "10.50", 2)
	b := dec(t, "-3.25", 2)
	if got := FormatDecimal(a.Add(b), 2); got != "7.25" {
		t.Errorf("10.50 + -3.25 = %s", got)
	}
	if got := FormatDecimal(a.Sub(b), 2); got != "13.75" {
		t.Errorf("10.50 - -3.25 = %s", got)
	}
	if got := FormatDecimal(b.Neg(), 2); got != "3.25" {
		t.Errorf("neg(-3.25) = %s", got)
	}
	if got := FormatDecimal(b.Abs(), 2); got != "3.25" {
		t.Errorf("abs(-3.25) = %s", got)
	}
}

func TestDecimalMulRescale(t *testing.T) {
	price := dec(t, "100.00", 2)
	disc := dec(t, "0.05", 2)
	// price * (1 - disc), scale 2+2=4.
	one := dec(t, "1.00", 2)
	got := price.Mul(one.Sub(disc))
	if s := FormatDecimal(got, 4); s != "95.0000" {
		t.Errorf("100.00*(1-0.05) = %s, want 95.0000", s)
	}
	back := got.Rescale(4, 2)
	if s := FormatDecimal(back, 2); s != "95.00" {
		t.Errorf("rescale 4->2 = %s", s)
	}
}

func TestDecimalRescaleRounding(t *testing.T) {
	d := dec(t, "1.005", 3)
	if s := FormatDecimal(d.Rescale(3, 2), 2); s != "1.01" {
		t.Errorf("1.005 @scale2 = %s, want 1.01 (round half away)", s)
	}
	nd := dec(t, "-1.005", 3)
	if s := FormatDecimal(nd.Rescale(3, 2), 2); s != "-1.01" {
		t.Errorf("-1.005 @scale2 = %s, want -1.01", s)
	}
	// Large rescale down (> 19 digits).
	big := dec(t, "12345678901234567890123.0", 1)
	if s := FormatDecimal(big.Rescale(1, 0), 0); s != "12345678901234567890123" {
		t.Errorf("rescale large = %s", s)
	}
}

func TestDecimalCmp(t *testing.T) {
	vals := []string{"-100.00", "-0.01", "0.00", "0.01", "99.99", "9999999999999999999.00"}
	for i := range vals {
		for j := range vals {
			a, b := dec(t, vals[i], 2), dec(t, vals[j], 2)
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Cmp(b); got != want {
				t.Errorf("Cmp(%s, %s) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

func TestDecimalDiv(t *testing.T) {
	a := dec(t, "100.00", 2)
	b := dec(t, "8.00", 2)
	q := a.Div(b) // unscaled 10000/800 = 12
	if got := q.ToInt64(); got != 12 {
		t.Errorf("Div = %d, want 12", got)
	}
	neg := dec(t, "-100.00", 2)
	q2, _ := neg.DivInt64(3)
	if got := q2.ToInt64(); got != -3333 {
		t.Errorf("(-10000)/3 = %d, want -3333", got)
	}
}

// Property: native 128-bit arithmetic matches math/big for random operands.
func TestDecimalMatchesBigRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randDec := func() Decimal128 {
		// Mix of small and large magnitudes.
		switch rng.Intn(3) {
		case 0:
			return DecimalFromInt64(rng.Int63n(1_000_000) - 500_000)
		case 1:
			return DecimalFromInt64(rng.Int63() - (1 << 62))
		default:
			return Decimal128{Hi: rng.Int63n(1 << 30), Lo: rng.Uint64()}
		}
	}
	mod128 := new(big.Int).Lsh(big.NewInt(1), 128)
	half := new(big.Int).Lsh(big.NewInt(1), 127)
	wrap := func(x *big.Int) *big.Int {
		x.Mod(x, mod128)
		if x.Cmp(half) >= 0 {
			x.Sub(x, mod128)
		}
		return x
	}
	for i := 0; i < 2000; i++ {
		a, b := randDec(), randDec()
		ab, bb := a.Big(), b.Big()
		if got, want := a.Add(b).Big(), wrap(new(big.Int).Add(ab, bb)); got.Cmp(want) != 0 {
			t.Fatalf("Add mismatch: %v + %v: got %v want %v", ab, bb, got, want)
		}
		if got, want := a.Sub(b).Big(), wrap(new(big.Int).Sub(ab, bb)); got.Cmp(want) != 0 {
			t.Fatalf("Sub mismatch: got %v want %v", got, want)
		}
		if got, want := a.Mul(b).Big(), wrap(new(big.Int).Mul(ab, bb)); got.Cmp(want) != 0 {
			t.Fatalf("Mul mismatch: %v * %v: got %v want %v", ab, bb, got, want)
		}
		if !b.IsZero() {
			if got, want := a.Div(b).Big(), new(big.Int).Quo(ab, bb); got.Cmp(want) != 0 {
				t.Fatalf("Div mismatch: %v / %v: got %v want %v", ab, bb, got, want)
			}
		}
		if got, want := a.Cmp(b), ab.Cmp(bb); got != want {
			t.Fatalf("Cmp mismatch: %v vs %v: got %d want %d", ab, bb, got, want)
		}
	}
}

// Property: parse/format round-trips via testing/quick.
func TestDecimalFormatParseRoundTrip(t *testing.T) {
	f := func(v int64, scaleSeed uint8) bool {
		scale := int(scaleSeed % 10)
		d := DecimalFromInt64(v)
		s := FormatDecimal(d, scale)
		back, err := ParseDecimal(s, scale)
		return err == nil && back.Cmp(d) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecimalFromBigOverflow(t *testing.T) {
	big128 := new(big.Int).Lsh(big.NewInt(1), 127)
	if _, ok := DecimalFromBig(big128); ok {
		t.Error("2^127 should overflow Decimal128")
	}
	just := new(big.Int).Sub(big128, big.NewInt(1))
	d, ok := DecimalFromBig(just)
	if !ok {
		t.Fatal("2^127-1 should fit")
	}
	if d.Big().Cmp(just) != 0 {
		t.Error("2^127-1 round-trip failed")
	}
	negBig := new(big.Int).Neg(big128)
	if _, ok := DecimalFromBig(negBig); ok {
		// -2^127 technically fits in two's complement but our Abs-based
		// check rejects it; that is acceptable and documented here.
		t.Log("-2^127 accepted")
	}
}

func TestPow10(t *testing.T) {
	want := big.NewInt(1)
	ten := big.NewInt(10)
	for i := 0; i <= 38; i++ {
		if got := Pow10(i).Big(); got.Cmp(want) != 0 {
			t.Fatalf("Pow10(%d) = %v, want %v", i, got, want)
		}
		want.Mul(want, ten)
	}
}

func TestToFloat64(t *testing.T) {
	d := dec(t, "123.45", 2)
	if got := d.ToFloat64() / 100; got < 123.44 || got > 123.46 {
		t.Errorf("ToFloat64 = %v", got)
	}
	n := dec(t, "-123.45", 2)
	if got := n.ToFloat64() / 100; got > -123.44 || got < -123.46 {
		t.Errorf("ToFloat64 neg = %v", got)
	}
}
