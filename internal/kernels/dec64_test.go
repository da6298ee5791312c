package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"photon/internal/types"
)

// Property harness for the narrow-decimal kernels: each must agree
// byte-for-byte with its 128-bit reference whenever it reports ok, and the
// cast kernel must report !ok exactly when some active row's true result does
// not fit int64 (the overflow escape contract). Values are drawn weighted
// toward the ±2^63 boundaries where the two families can diverge.

// boundary64 draws int64 values clustered near the overflow boundaries.
func boundary64(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return math.MaxInt64 - rng.Int63n(1_000)
	case 1:
		return math.MinInt64 + rng.Int63n(1_000)
	case 2:
		return int64(rng.Uint64()) // full range
	default:
		return rng.Int63n(2_000_001) - 1_000_000
	}
}

// someSel builds a strided selection vector over [0, n).
func someSel(rng *rand.Rand, n int) []int32 {
	var sel []int32
	for i := 0; i < n; i += 1 + rng.Intn(3) {
		sel = append(sel, int32(i))
	}
	return sel
}

// forActive visits the active rows of (sel, n).
func forActive(sel []int32, n int, f func(i int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	for _, i := range sel {
		f(int(i))
	}
}

// randDec draws a canonical Decimal128, biased narrow with occasional wide.
func randDec(rng *rand.Rand, wideEvery int) types.Decimal128 {
	if wideEvery > 0 && rng.Intn(wideEvery) == 0 {
		return types.Decimal128{Hi: rng.Int63() | 1, Lo: rng.Uint64()}
	}
	return types.SignExtend64(boundary64(rng))
}

func TestDec64CheckV(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n = 111
	for trial := 0; trial < 200; trial++ {
		a := make([]types.Decimal128, n)
		nulls := make([]byte, n)
		hasNulls := trial%3 != 0
		allNarrow := true
		for i := range a {
			a[i] = randDec(rng, 20)
			if hasNulls && rng.Intn(6) == 0 {
				nulls[i] = 1
				// A wide value under a NULL must not affect the verdict.
				a[i] = types.Decimal128{Hi: 42, Lo: 7}
			} else if !types.Fits64(a[i]) {
				allNarrow = false
			}
		}
		var sel []int32
		if trial%2 == 1 {
			sel = someSel(rng, n)
			allNarrow = true
			forActive(sel, n, func(i int) {
				if nulls[i] == 0 && !types.Fits64(a[i]) {
					allNarrow = false
				}
			})
		}
		if got := Dec64CheckV(a, nulls, hasNulls, sel, n); got != allNarrow {
			t.Fatalf("check trial %d: got %v want %v", trial, got, allNarrow)
		}
	}
}

func TestDec64RescaleDecAgainstWide(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	const n = 97
	for trial := 0; trial < 300; trial++ {
		from, to := rng.Intn(7), rng.Intn(7)
		a := make([]types.Decimal128, n)
		nulls := make([]byte, n)
		hasNulls := trial%2 == 0
		for i := range a {
			a[i] = types.SignExtend64(boundary64(rng))
			if hasNulls && rng.Intn(6) == 0 {
				nulls[i] = 1
			}
		}
		var sel []int32
		if trial%3 == 0 {
			sel = someSel(rng, n)
		}
		out := make([]types.Decimal128, n)
		ok := Dec64RescaleDecV(a, out, from, to, nulls, hasNulls, sel, n)
		wantOK := true
		forActive(sel, n, func(i int) {
			if hasNulls && nulls[i] != 0 {
				return
			}
			if !types.Fits64(a[i].Rescale(from, to)) {
				wantOK = false
			}
		})
		if ok != wantOK {
			t.Fatalf("rescaleDec(%d->%d) trial %d: ok=%v want %v", from, to, trial, ok, wantOK)
		}
		if !ok {
			continue
		}
		forActive(sel, n, func(i int) {
			if hasNulls && nulls[i] != 0 {
				return
			}
			if w := a[i].Rescale(from, to); out[i] != w {
				t.Fatalf("rescaleDec(%d->%d) row %d: got %v want %v", from, to, i, out[i], w)
			}
		})
	}
}

func TestDec64SelCmpAgainstWide(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	const n = 131
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	for trial := 0; trial < 200; trial++ {
		a, b := make([]types.Decimal128, n), make([]types.Decimal128, n)
		nulls1, nulls2 := make([]byte, n), make([]byte, n)
		hasNulls := trial%2 == 0
		for i := range a {
			// Narrow by contract (the dispatcher qualifies first).
			a[i] = types.SignExtend64(boundary64(rng))
			b[i] = types.SignExtend64(boundary64(rng))
			if rng.Intn(4) == 0 {
				b[i] = a[i] // exercise equality edges
			}
			if hasNulls {
				if rng.Intn(8) == 0 {
					nulls1[i] = 1
				}
				if rng.Intn(8) == 0 {
					nulls2[i] = 1
				}
			}
		}
		var sel []int32
		if trial%3 == 0 {
			sel = someSel(rng, n)
		}
		s := types.SignExtend64(boundary64(rng))
		for _, op := range ops {
			gotVS := SelCmpDec64VS(op, a, s.ToInt64(), nulls1, hasNulls, sel, n, nil)
			wantVS := SelCmpDecVS(op, a, s, nulls1, hasNulls, sel, n, nil)
			if !reflect.DeepEqual(gotVS, wantVS) {
				t.Fatalf("selCmpVS op=%v trial %d: %v != %v", op, trial, gotVS, wantVS)
			}
			gotVV := SelCmpDec64VV(op, a, b, nulls1, nulls2, hasNulls, sel, n, nil)
			wantVV := SelCmpDecVV(op, a, b, nulls1, nulls2, hasNulls, sel, n, nil)
			if !reflect.DeepEqual(gotVV, wantVV) {
				t.Fatalf("selCmpVV op=%v trial %d: %v != %v", op, trial, gotVV, wantVV)
			}
		}
	}
}

func TestDec64HashLanesMatchWide(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	const n = 211
	a := make([]types.Decimal128, n)
	for i := range a {
		a[i] = types.SignExtend64(boundary64(rng))
	}
	got := make([]uint64, n)
	Dec64HashLanes(a, got, n)
	for i := range a {
		want := a[i].Lo ^ uint64(a[i].Hi)*0x9e3779b97f4a7c15
		if got[i] != want {
			t.Fatalf("hash lane %d: got %#x want %#x (value %v)", i, got[i], want, a[i])
		}
	}
}
