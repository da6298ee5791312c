package kernels

import (
	"math/rand"
	"reflect"
	"testing"

	"photon/internal/types"
)

// Property harness: every arithmetic kernel must agree with a naive
// row-at-a-time reference under all four (nulls × activity)
// specializations, and never write inactive rows.

type arithSpec struct {
	name string
	run  func(a, b, out []int64, outNulls []byte, sel []int32, n int, hasNulls bool)
	ref  func(a, b int64) (int64, bool) // (result, isNull)
}

func TestArithKernelsAgainstReference(t *testing.T) {
	specs := []arithSpec{
		{
			name: "add",
			run: func(a, b, out []int64, nulls []byte, sel []int32, n int, hn bool) {
				if hn {
					AddVVNulls(a, b, out, nulls, sel, n)
				} else {
					AddVV(a, b, out, sel, n)
				}
			},
			ref: func(x, y int64) (int64, bool) { return x + y, false },
		},
		{
			name: "sub",
			run: func(a, b, out []int64, nulls []byte, sel []int32, n int, hn bool) {
				if hn {
					SubVVNulls(a, b, out, nulls, sel, n)
				} else {
					SubVV(a, b, out, sel, n)
				}
			},
			ref: func(x, y int64) (int64, bool) { return x - y, false },
		},
		{
			name: "mul",
			run: func(a, b, out []int64, nulls []byte, sel []int32, n int, hn bool) {
				if hn {
					MulVVNulls(a, b, out, nulls, sel, n)
				} else {
					MulVV(a, b, out, sel, n)
				}
			},
			ref: func(x, y int64) (int64, bool) { return x * y, false },
		},
		{
			name: "div",
			run: func(a, b, out []int64, nulls []byte, sel []int32, n int, hn bool) {
				DivVV(a, b, out, nulls, sel, n)
			},
			ref: func(x, y int64) (int64, bool) {
				if y == 0 {
					return 0, true
				}
				return x / y, false
			},
		},
	}
	rng := rand.New(rand.NewSource(21))
	const n = 257
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = rng.Int63n(1000) - 500
		b[i] = rng.Int63n(20) - 10 // zeros included for div
	}
	var sel []int32
	for i := 0; i < n; i += 3 {
		sel = append(sel, int32(i))
	}
	active := map[int32]bool{}
	for _, i := range sel {
		active[i] = true
	}
	for _, spec := range specs {
		for _, mode := range []string{"dense", "selective"} {
			out := make([]int64, n)
			nulls := make([]byte, n)
			var useSel []int32
			if mode == "selective" {
				useSel = sel
				// Poison inactive output slots to detect writes.
				for i := 0; i < n; i++ {
					if !active[int32(i)] {
						out[i] = -999999
					}
				}
			}
			spec.run(a, b, out, nulls, useSel, n, true)
			check := func(i int) {
				want, wantNull := spec.ref(a[i], b[i])
				if wantNull {
					if nulls[i] == 0 {
						t.Errorf("%s/%s: row %d should be NULL", spec.name, mode, i)
					}
					return
				}
				if out[i] != want {
					t.Errorf("%s/%s: row %d = %d, want %d", spec.name, mode, i, out[i], want)
				}
			}
			if useSel == nil {
				for i := 0; i < n; i++ {
					check(i)
				}
			} else {
				for _, i := range sel {
					check(int(i))
				}
				for i := 0; i < n; i++ {
					if !active[int32(i)] && out[i] != -999999 {
						t.Errorf("%s: inactive row %d was written", spec.name, i)
					}
				}
			}
		}
	}
}

func TestScalarArithKernels(t *testing.T) {
	a := []int64{1, 2, 3, 4}
	out := make([]int64, 4)
	AddVS(a, int64(10), out, nil, 4)
	if !reflect.DeepEqual(out, []int64{11, 12, 13, 14}) {
		t.Errorf("AddVS: %v", out)
	}
	SubVS(a, int64(1), out, nil, 4)
	if !reflect.DeepEqual(out, []int64{0, 1, 2, 3}) {
		t.Errorf("SubVS: %v", out)
	}
	SubSV(int64(10), a, out, nil, 4)
	if !reflect.DeepEqual(out, []int64{9, 8, 7, 6}) {
		t.Errorf("SubSV: %v", out)
	}
	MulVS(a, int64(3), out, []int32{1, 3}, 4)
	if out[1] != 6 || out[3] != 12 {
		t.Errorf("MulVS sel: %v", out)
	}
	NegV(a, out, nil, 4)
	if !reflect.DeepEqual(out, []int64{-1, -2, -3, -4}) {
		t.Errorf("NegV: %v", out)
	}
}

func dec64(v int64) types.Decimal128 { return types.DecimalFromInt64(v) }

func TestDecimalKernels(t *testing.T) {
	a := []types.Decimal128{dec64(100), dec64(-50), dec64(7)}
	b := []types.Decimal128{dec64(1), dec64(2), dec64(3)}
	out := make([]types.Decimal128, 3)

	DecAddVV(a, b, out, nil, 3)
	if out[0].ToInt64() != 101 || out[1].ToInt64() != -48 || out[2].ToInt64() != 10 {
		t.Errorf("DecAddVV: %v", out)
	}
	DecSubVV(a, b, out, nil, 3)
	if out[0].ToInt64() != 99 || out[1].ToInt64() != -52 {
		t.Errorf("DecSubVV: %v", out)
	}
	DecMulVV(a, b, out, nil, 3)
	if out[0].ToInt64() != 100 || out[1].ToInt64() != -100 || out[2].ToInt64() != 21 {
		t.Errorf("DecMulVV: %v", out)
	}
	DecAddVS(a, dec64(5), out, nil, 3)
	if out[0].ToInt64() != 105 || out[1].ToInt64() != -45 {
		t.Errorf("DecAddVS: %v", out)
	}
	DecSubSV(dec64(0), a, out, nil, 3)
	if out[0].ToInt64() != -100 || out[1].ToInt64() != 50 {
		t.Errorf("DecSubSV: %v", out)
	}
	// Rescale 2 -> 4 multiplies by 100.
	DecRescaleV(a, out, 2, 4, []int32{0, 2}, 3)
	if out[0].ToInt64() != 10000 || out[2].ToInt64() != 700 {
		t.Errorf("DecRescaleV: %v", out)
	}
}

func TestSelDecimalCompare(t *testing.T) {
	a := []types.Decimal128{dec64(10), dec64(20), dec64(30)}
	b := []types.Decimal128{dec64(30), dec64(20), dec64(10)}
	if got := SelCmpDecVS(CmpGe, a, dec64(20), nil, false, nil, 3, nil); !eqSel(got, []int32{1, 2}) {
		t.Errorf("dec VS: %v", got)
	}
	if got := SelCmpDecVV(CmpLt, a, b, nil, nil, false, nil, 3, nil); !eqSel(got, []int32{0}) {
		t.Errorf("dec VV: %v", got)
	}
	nulls := []byte{1, 0, 0}
	if got := SelCmpDecVS(CmpGe, a, dec64(0), nulls, true, nil, 3, nil); !eqSel(got, []int32{1, 2}) {
		t.Errorf("dec VS nulls: %v", got)
	}
}

func TestSelVVAllOps(t *testing.T) {
	a := []int64{1, 2, 3, 4}
	b := []int64{4, 2, 1, 4}
	if got := SelCmpVV(CmpEq, a, b, nil, nil, false, nil, 4, nil); !eqSel(got, []int32{1, 3}) {
		t.Errorf("eq: %v", got)
	}
	if got := SelCmpVV(CmpNe, a, b, nil, nil, false, nil, 4, nil); !eqSel(got, []int32{0, 2}) {
		t.Errorf("ne: %v", got)
	}
	if got := SelCmpVV(CmpLt, a, b, nil, nil, false, nil, 4, nil); !eqSel(got, []int32{0}) {
		t.Errorf("lt: %v", got)
	}
	if got := SelCmpVV(CmpLe, a, b, nil, nil, false, nil, 4, nil); !eqSel(got, []int32{0, 1, 3}) {
		t.Errorf("le: %v", got)
	}
	if got := SelCmpVV(CmpGt, a, b, nil, nil, false, nil, 4, nil); !eqSel(got, []int32{2}) {
		t.Errorf("gt: %v", got)
	}
	if got := SelCmpVV(CmpGe, a, b, nil, nil, false, nil, 4, nil); !eqSel(got, []int32{1, 2, 3}) {
		t.Errorf("ge: %v", got)
	}
	// With nulls and selection.
	nulls := []byte{0, 1, 0, 0}
	if got := SelCmpVV(CmpEq, a, b, nulls, nulls, true, []int32{0, 1, 3}, 4, nil); !eqSel(got, []int32{3}) {
		t.Errorf("eq nulls+sel: %v", got)
	}
	if got := SelCmpVV(CmpNe, a, b, nulls, nulls, true, nil, 4, nil); !eqSel(got, []int32{0, 2}) {
		t.Errorf("ne nulls: %v", got)
	}
	if got := SelCmpVV(CmpLt, a, b, nulls, nulls, true, nil, 4, nil); !eqSel(got, []int32{0}) {
		t.Errorf("lt nulls: %v", got)
	}
	if got := SelCmpVV(CmpLe, a, b, nulls, nulls, true, []int32{1, 2, 3}, 4, nil); !eqSel(got, []int32{3}) {
		t.Errorf("le nulls+sel: %v", got)
	}
}

// TestSelFromBool: a BOOLEAN vector's TRUE rows are the rows <> FALSE.
func TestSelFromBool(t *testing.T) {
	vals := []byte{1, 0, 1, 1}
	nulls := []byte{0, 0, 1, 0}
	if got := SelCmpVS(CmpNe, vals, 0, nulls, false, nil, 4, nil); !eqSel(got, []int32{0, 2, 3}) {
		t.Errorf("no-null: %v", got)
	}
	if got := SelCmpVS(CmpNe, vals, 0, nulls, true, nil, 4, nil); !eqSel(got, []int32{0, 3}) {
		t.Errorf("nulls: %v", got)
	}
	if got := SelCmpVS(CmpNe, vals, 0, nulls, true, []int32{0, 1, 2}, 4, nil); !eqSel(got, []int32{0}) {
		t.Errorf("sel: %v", got)
	}
}

func TestNullHelpers(t *testing.T) {
	n1 := []byte{0, 1, 0, 0}
	n2 := []byte{0, 0, 1, 0}
	out := make([]byte, 4)
	if !OrNulls(n1, n2, out, nil, 4) {
		t.Error("OrNulls should report nulls")
	}
	if !reflect.DeepEqual(out, []byte{0, 1, 1, 0}) {
		t.Errorf("OrNulls: %v", out)
	}
	clear(out)
	if !CopyNulls(n1, out, []int32{1, 3}, 4) {
		t.Error("CopyNulls should report nulls under sel including row 1")
	}
	if out[1] != 1 || out[3] != 0 {
		t.Errorf("CopyNulls: %v", out)
	}
	zero := make([]byte, 4)
	if OrNulls(zero, zero, out, nil, 4) {
		t.Error("OrNulls over clean inputs reported nulls")
	}
}

func TestHashAndRehashBytesVectors(t *testing.T) {
	vals := [][]byte{[]byte("a"), []byte("bb"), nil}
	nulls := []byte{0, 0, 1}
	out := make([]uint64, 3)
	HashBytes(vals, nulls, true, nil, 3, out)
	if out[0] == out[1] {
		t.Error("distinct strings collided")
	}
	before := append([]uint64(nil), out...)
	RehashBytes(vals, nulls, true, nil, 3, out)
	for i := range out {
		if out[i] == before[i] {
			t.Errorf("rehash did not change hash %d", i)
		}
	}
}

func TestCheckASCIIVector(t *testing.T) {
	vals := [][]byte{[]byte("plain"), []byte("also plain"), nil}
	nulls := []byte{0, 0, 1}
	if !CheckASCII(vals, nulls, true, nil, 3) {
		t.Error("ASCII batch misreported")
	}
	vals[1] = []byte("héllo")
	if CheckASCII(vals, nulls, true, nil, 3) {
		t.Error("non-ASCII batch misreported")
	}
	// Under selection excluding the non-ASCII row.
	if !CheckASCII(vals, nulls, true, []int32{0}, 3) {
		t.Error("selection should exclude the non-ASCII row")
	}
}
