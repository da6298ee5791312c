package types

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strings"
)

// Decimal128 is a 128-bit two's-complement signed integer used as the
// unscaled value of a fixed-point decimal. The scale lives in the DataType.
//
// Photon vectorizes decimal arithmetic with native integer types (§6.2, Q1:
// "Photon vectorizes Decimal arithmetic with native integer types. DBR ...
// uses infinite-precision Java Decimal"), so this type implements add, sub,
// mul, div, cmp, and rescale with int64/uint64 limb arithmetic only. The
// baseline row engine uses math/big instead, reproducing the cost asymmetry.
//
// Lo comes first so that, on a little-endian host, a value's memory is its
// 16-byte wire form and runs of them move in bulk (internal/lebytes).
type Decimal128 struct {
	Lo uint64 // low 64 bits
	Hi int64  // high 64 bits (sign-carrying)
}

// DecimalZero is the zero decimal.
var DecimalZero = Decimal128{}

// DecimalFromInt64 converts a signed 64-bit integer.
func DecimalFromInt64(v int64) Decimal128 {
	if v < 0 {
		return Decimal128{Hi: -1, Lo: uint64(v)}
	}
	return Decimal128{Hi: 0, Lo: uint64(v)}
}

// IsNeg reports whether d < 0.
func (d Decimal128) IsNeg() bool { return d.Hi < 0 }

// IsZero reports whether d == 0.
func (d Decimal128) IsZero() bool { return d.Hi == 0 && d.Lo == 0 }

// Add returns d + o (wrapping on 128-bit overflow, like the engine's
// overflow-unchecked fast path; checked variants live in AddChecked).
func (d Decimal128) Add(o Decimal128) Decimal128 {
	lo, carry := bits.Add64(d.Lo, o.Lo, 0)
	hi := uint64(d.Hi) + uint64(o.Hi) + carry
	return Decimal128{Hi: int64(hi), Lo: lo}
}

// Sub returns d - o.
func (d Decimal128) Sub(o Decimal128) Decimal128 {
	lo, borrow := bits.Sub64(d.Lo, o.Lo, 0)
	hi := uint64(d.Hi) - uint64(o.Hi) - borrow
	return Decimal128{Hi: int64(hi), Lo: lo}
}

// Neg returns -d.
func (d Decimal128) Neg() Decimal128 {
	return Decimal128{}.Sub(d)
}

// Abs returns |d|.
func (d Decimal128) Abs() Decimal128 {
	if d.IsNeg() {
		return d.Neg()
	}
	return d
}

// Mul returns d * o, truncated to 128 bits.
func (d Decimal128) Mul(o Decimal128) Decimal128 {
	hi, lo := bits.Mul64(d.Lo, o.Lo)
	hi += uint64(d.Hi)*o.Lo + d.Lo*uint64(o.Hi)
	return Decimal128{Hi: int64(hi), Lo: lo}
}

// MulInt64 returns d * v.
func (d Decimal128) MulInt64(v int64) Decimal128 {
	return d.Mul(DecimalFromInt64(v))
}

// Cmp returns -1, 0, or 1 comparing d and o as signed 128-bit integers.
func (d Decimal128) Cmp(o Decimal128) int {
	if d.Hi != o.Hi {
		if d.Hi < o.Hi {
			return -1
		}
		return 1
	}
	if d.Lo != o.Lo {
		if d.Lo < o.Lo {
			return -1
		}
		return 1
	}
	return 0
}

// divmod64 divides |d| (treated as unsigned) by a positive v, returning
// quotient and remainder. Caller handles signs.
func (d Decimal128) divmod64(v uint64) (q Decimal128, r uint64) {
	qhi := uint64(d.Hi) / v
	rhi := uint64(d.Hi) % v
	qlo, rlo := bits.Div64(rhi, d.Lo, v)
	return Decimal128{Hi: int64(qhi), Lo: qlo}, rlo
}

// DivInt64 returns d / v truncated toward zero, and the remainder's absolute
// value. v must be non-zero.
func (d Decimal128) DivInt64(v int64) (Decimal128, uint64) {
	neg := false
	ad := d
	if d.IsNeg() {
		ad = d.Neg()
		neg = !neg
	}
	av := uint64(v)
	if v < 0 {
		av = uint64(-v)
		neg = !neg
	}
	q, r := ad.divmod64(av)
	if neg {
		q = q.Neg()
	}
	return q, r
}

// Div returns d / o truncated toward zero using big-free long division when o
// fits in 64 bits, falling back to big.Int otherwise. o must be non-zero.
func (d Decimal128) Div(o Decimal128) Decimal128 {
	if fits64(o) {
		q, _ := d.DivInt64(o.ToInt64())
		return q
	}
	var x, y big.Int
	d.bigInto(&x)
	o.bigInto(&y)
	x.Quo(&x, &y)
	out, _ := DecimalFromBig(&x)
	return out
}

func fits64(d Decimal128) bool {
	return (d.Hi == 0 && d.Lo <= math.MaxInt64) || (d.Hi == -1 && d.Lo >= 1<<63)
}

// Fits64 reports whether d is representable as an int64, i.e. the high limb
// is exactly the sign extension of the low limb. This is the admission test
// for the narrow-decimal (int64) kernel family.
func Fits64(d Decimal128) bool { return d.Hi == int64(d.Lo)>>63 }

// SignExtend64 widens an int64 unscaled value back to the canonical
// Decimal128 representation (inverse of ToInt64 for values that fit).
func SignExtend64(v int64) Decimal128 { return Decimal128{Hi: v >> 63, Lo: uint64(v)} }

// ToInt64 truncates to the low 64 bits as a signed integer.
func (d Decimal128) ToInt64() int64 { return int64(d.Lo) }

// ToFloat64 converts to float64 (lossy).
func (d Decimal128) ToFloat64() float64 {
	if d.IsNeg() {
		a := d.Neg()
		return -(float64(uint64(a.Hi))*math.Pow(2, 64) + float64(a.Lo))
	}
	return float64(uint64(d.Hi))*math.Pow(2, 64) + float64(d.Lo)
}

// pow10 holds 10^i for i in [0, 19] as uint64.
var pow10 = [...]uint64{
	1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
	1000000000, 10000000000, 100000000000, 1000000000000, 10000000000000,
	100000000000000, 1000000000000000, 10000000000000000, 100000000000000000,
	1000000000000000000, 10000000000000000000,
}

// Pow10 returns 10^n as a Decimal128. n must be in [0, 38].
func Pow10(n int) Decimal128 {
	if n < 0 || n > 38 {
		panic(fmt.Sprintf("types: Pow10 out of range: %d", n))
	}
	if n <= 19 {
		return Decimal128{Lo: pow10[n]}
	}
	return Decimal128{Lo: pow10[19]}.Mul(Decimal128{Lo: pow10[n-19]})
}

// Rescale adjusts the unscaled value from scale `from` to scale `to`,
// multiplying by powers of ten when to > from and dividing (round half away
// from zero) when to < from.
func (d Decimal128) Rescale(from, to int) Decimal128 {
	switch {
	case to == from:
		return d
	case to > from:
		return d.Mul(Pow10(to - from))
	default:
		diff := from - to
		neg := d.IsNeg()
		a := d.Abs()
		for diff > 19 {
			a, _ = a.divmod64(pow10[19])
			diff -= 19
		}
		div := pow10[diff]
		q, r := a.divmod64(div)
		if r*2 >= div { // round half away from zero
			q = q.Add(Decimal128{Lo: 1})
		}
		if neg {
			q = q.Neg()
		}
		return q
	}
}

// bigInto writes d into b as a signed big integer.
func (d Decimal128) bigInto(b *big.Int) {
	neg := d.IsNeg()
	a := d
	if neg {
		a = d.Neg()
	}
	b.SetUint64(uint64(a.Hi))
	b.Lsh(b, 64)
	var lo big.Int
	lo.SetUint64(a.Lo)
	b.Or(b, &lo)
	if neg {
		b.Neg(b)
	}
}

// Big returns d as a big.Int (used by the baseline engine and by tests that
// cross-check native decimal arithmetic against math/big).
func (d Decimal128) Big() *big.Int {
	var b big.Int
	d.bigInto(&b)
	return &b
}

// DecimalFromBig converts a big.Int, reporting overflow of 128 bits.
func DecimalFromBig(b *big.Int) (Decimal128, bool) {
	neg := b.Sign() < 0
	var a big.Int
	a.Abs(b)
	if a.BitLen() > 127 {
		return Decimal128{}, false
	}
	var lo, hi big.Int
	lo.And(&a, new(big.Int).SetUint64(math.MaxUint64))
	hi.Rsh(&a, 64)
	d := Decimal128{Hi: int64(hi.Uint64()), Lo: lo.Uint64()}
	if neg {
		d = d.Neg()
	}
	return d, true
}

// ParseDecimal parses a decimal literal like "-123.45" into an unscaled
// Decimal128 at the requested scale.
func ParseDecimal(s string, scale int) (Decimal128, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Decimal128{}, fmt.Errorf("types: empty decimal literal")
	}
	neg := false
	switch s[0] {
	case '-':
		neg = true
		s = s[1:]
	case '+':
		s = s[1:]
	}
	intPart, fracPart, _ := strings.Cut(s, ".")
	if intPart == "" && fracPart == "" {
		return Decimal128{}, fmt.Errorf("types: invalid decimal literal")
	}
	d := Decimal128{}
	ten := Decimal128{Lo: 10}
	digits := 0
	for _, c := range intPart {
		if c < '0' || c > '9' {
			return Decimal128{}, fmt.Errorf("types: invalid decimal digit %q", c)
		}
		d = d.Mul(ten).Add(Decimal128{Lo: uint64(c - '0')})
		digits++
	}
	// Consume fractional digits up to the target scale, then round on the
	// first excess digit.
	taken := 0
	for _, c := range fracPart {
		if c < '0' || c > '9' {
			return Decimal128{}, fmt.Errorf("types: invalid decimal digit %q", c)
		}
		if taken < scale {
			d = d.Mul(ten).Add(Decimal128{Lo: uint64(c - '0')})
			taken++
		} else {
			if c >= '5' {
				d = d.Add(Decimal128{Lo: 1})
			}
			break
		}
	}
	for taken < scale {
		d = d.Mul(ten)
		taken++
	}
	if neg {
		d = d.Neg()
	}
	return d, nil
}

// FormatDecimal renders the unscaled value at the given scale, e.g.
// (12345, scale 2) -> "123.45".
func FormatDecimal(d Decimal128, scale int) string {
	var buf [48]byte
	return string(AppendDecimal(buf[:0], d, scale))
}

// AppendDecimal appends the text FormatDecimal returns to dst.
func AppendDecimal(dst []byte, d Decimal128, scale int) []byte {
	if d.IsNeg() {
		dst = append(dst, '-')
	}
	// The magnitude's digits, least significant first, 19 per division;
	// every group but the most significant keeps its leading zeros.
	start := len(dst)
	for a := d.Abs(); ; {
		q, r := a.divmod64(pow10[19])
		a = q
		for k := 0; k < 19 && (r != 0 || !a.IsZero()); k++ {
			dst = append(dst, byte('0'+r%10))
			r /= 10
		}
		if a.IsZero() {
			break
		}
	}
	for len(dst)-start <= scale {
		dst = append(dst, '0')
	}
	slices.Reverse(dst[start:])
	if scale > 0 {
		p := len(dst) - scale
		dst = append(dst, 0)
		copy(dst[p+1:], dst[p:])
		dst[p] = '.'
	}
	return dst
}
