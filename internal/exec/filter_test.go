package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"photon/internal/expr"
	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// conjunctOrderBatches builds batches of x, y, z whose pass rates under the
// conjuncts of TestFilterConjunctOrder invert halfway through, the way a
// table stored in another order would: y is small and z small in the first
// half, both large in the second. x is often 0 and sometimes NULL;
// every third batch arrives with a sparse position list, and one with an
// empty one.
func conjunctOrderBatches(r *rand.Rand, nb, rows int) []*vector.Batch {
	schema := intSchema("x", "y", "z")
	out := make([]*vector.Batch, nb)
	for i := range out {
		second := i >= nb/2
		b := vector.NewBatch(schema, rows)
		for row := 0; row < rows; row++ {
			if r.Intn(16) == 0 {
				b.Vecs[0].SetNull(row)
			} else {
				b.Vecs[0].I64[row] = int64(r.Intn(24) - 4)
			}
			y, z := int64(r.Intn(100)), int64(r.Intn(100)-40)
			if second {
				y, z = y+80, z+80
			}
			b.Vecs[1].I64[row], b.Vecs[2].I64[row] = y, z
		}
		b.NumRows = rows
		switch {
		case i == nb/3:
			b.SetSel([]int32{})
		case i%3 == 1:
			var sel []int32
			for row := 0; row < rows; row++ {
				if r.Intn(4) != 0 {
					sel = append(sel, int32(row))
				}
			}
			b.SetSel(sel)
		}
		out[i] = b
	}
	return out
}

// TestFilterConjunctOrder: a filter over a conjunction emits, batch by
// batch, exactly the rows the conjunction evaluated in its written order
// keeps, whatever order the filter runs its conjuncts in. The inputs' pass
// rates invert halfway through; they carry NULLs and sparse and empty
// position lists; one conjunct passes every row and one rejects every row;
// and `x <> 0 AND 10 / x > 1` divides by the zeros the guard removes
// (division by zero is NULL, not an error, so no order can fail).
func TestFilterConjunctOrder(t *testing.T) {
	x := expr.Col(0, "x", types.Int64Type)
	y := expr.Col(1, "y", types.Int64Type)
	z := expr.Col(2, "z", types.Int64Type)
	cmp := func(op kernels.CmpOp, e expr.Expr, v int64) expr.Filter { return expr.MustCmp(op, e, expr.Int64Lit(v)) }
	guard := cmp(kernels.CmpNe, x, 0)
	div := cmp(kernels.CmpGt, expr.MustArith(expr.OpDiv, expr.Int64Lit(10), x), 1)
	yLow := cmp(kernels.CmpLt, y, 90)             // passes 90 % of the first half, 10 % of the second
	zHigh := cmp(kernels.CmpGt, z, 50)            // the other way round
	all := cmp(kernels.CmpGe, z, -1000)           // passes every row
	none := cmp(kernels.CmpLt, y, -1)             // rejects every row
	xNull := &expr.IsNull{Inner: x, Negate: true} // x IS NOT NULL
	cases := []*expr.And{
		expr.NewAnd(guard, div, yLow, zHigh, all),
		expr.NewAnd(all, yLow, zHigh, div, guard),
		expr.NewAnd(zHigh, xNull, yLow, all),
		expr.NewAnd(yLow, zHigh, none, all, div),
		expr.NewAnd(div, all, yLow, zHigh),
	}
	for ci, pred := range cases {
		t.Run(fmt.Sprint(ci), func(t *testing.T) {
			const rows = 512
			batches := conjunctOrderBatches(rand.New(rand.NewSource(int64(ci+1))), 96, rows)
			schema := batches[0].Schema
			p := NewFilter(newSliceSource(schema, nil), pred)
			f := p.steps[0].(*FilterOp)
			tc := NewTaskCtx(nil, rows)
			if err := p.Open(tc); err != nil {
				t.Fatal(err)
			}
			ref := expr.NewCtx(rows)
			var kept int
			for bi, b := range batches {
				ref.Arena.Reset()
				refIn := *b
				want, err := pred.EvalSel(ref, &refIn, nil)
				if err != nil {
					t.Fatal(err)
				}
				tc.Expr.Arena.Reset()
				in := cloneBatches([]*vector.Batch{b})[0]
				got, err := f.processBatch(in)
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				var gotRows []int32
				if got != nil {
					for i := 0; i < got.NumActive(); i++ {
						gotRows = append(gotRows, int32(got.RowIndex(i)))
					}
				}
				if !slices.Equal(gotRows, want) {
					t.Fatalf("batch %d: filter kept %d rows %v, written order keeps %d %v", bi, len(gotRows), gotRows, len(want), want)
				}
				kept += len(want)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); st.RowsOut.Load() != int64(kept) {
				t.Errorf("RowsOut = %d, want %d", st.RowsOut.Load(), kept)
			}
		})
	}
}
