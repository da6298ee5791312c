package kernels

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// TestSelCmpBytesVSAgainstCompare checks every operator of SelCmpBytesVS —
// = and <> by equality, the rest by a three-way compare — against
// bytes.Compare on random strings: empty, sharing prefixes, non-ASCII and
// invalid UTF-8 bytes, NULL rows, with and without a selection vector.
func TestSelCmpBytesVSAgainstCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefixes := []string{"", "a", "ab", "abc", "δ", "δέλτα", "\xff", "DELIVER IN PERSON"}
	str := func() []byte {
		s := []byte(prefixes[rng.Intn(len(prefixes))])
		for k := rng.Intn(3); k > 0; k-- {
			s = append(s, []byte{'a', 'b', 0, 0xce, 0xff}[rng.Intn(5)])
		}
		return s
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(80)
		a := make([][]byte, n)
		nulls := make([]byte, n)
		hasNulls := rng.Intn(2) == 0
		for i := range a {
			a[i] = str()
			if hasNulls && rng.Intn(4) == 0 {
				nulls[i] = 1
			}
		}
		var sel []int32
		if rng.Intn(2) == 0 {
			sel = []int32{}
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		s := str()
		if rng.Intn(3) == 0 {
			s = slices.Clone(a[rng.Intn(n)])
		}
		for op := CmpEq; op <= CmpGe; op++ {
			var want []int32
			for i := 0; i < n; i++ {
				if sel != nil && !slices.Contains(sel, int32(i)) || hasNulls && nulls[i] != 0 {
					continue
				}
				if holds(op, bytes.Compare(a[i], s)) {
					want = append(want, int32(i))
				}
			}
			got := SelCmpBytesVS(op, a, s, nulls, hasNulls, sel, n, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d, s=%q, sel=%v: got %v, want %v", op, s, sel, got, want)
			}
		}
	}
}

// holds is the scalar reference: whether a three-way compare result c
// satisfies op.
func holds(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	panic("bad op")
}
