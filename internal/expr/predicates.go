package expr

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// Between is the fused BETWEEN filter (§3.3): a single kernel evaluates
// col >= lo AND col <= hi, avoiding the interpretation overhead of a
// two-comparison conjunction. Created by the optimizer when it spots the
// conjunction pattern, or directly from SQL BETWEEN.
type Between struct {
	Inner  Expr
	Lo, Hi *Literal
}

// NewBetween builds a fused BETWEEN filter. Both bounds must be non-NULL
// literals: the fused kernel has no NULL result, so a BETWEEN with a NULL
// bound stays its two comparisons (the SQL front end and the optimizer
// never build one), and NewBetween panics on it.
func NewBetween(inner Expr, lo, hi *Literal) *Between {
	if lo.IsNullLit() || hi.IsNullLit() {
		panic(fmt.Sprintf("expr: BETWEEN with a NULL bound: %s AND %s; build the two comparisons", lo, hi))
	}
	return &Between{Inner: inner, Lo: lo, Hi: hi}
}

// String implements Filter.
func (f *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", f.Inner, f.Lo, f.Hi)
}

// EvalSel implements Filter.
func (f *Between) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	n, sel, hn := b.NumRows, b.Sel, v.HasNulls()
	switch v.Type.ID {
	case types.Int32, types.Date:
		return kernels.SelBetweenVS(v.I32, f.Lo.I32(), f.Hi.I32(), v.Nulls, hn, sel, n, out), nil
	case types.Int64, types.Timestamp:
		return kernels.SelBetweenVS(v.I64, f.Lo.I64(), f.Hi.I64(), v.Nulls, hn, sel, n, out), nil
	case types.Float64:
		return kernels.SelBetweenVS(v.F64, f.Lo.F64(), f.Hi.F64(), v.Nulls, hn, sel, n, out), nil
	case types.Decimal:
		_, lo, _ := DecAtScale(kernels.CmpGe, f.Lo, v.Type.Scale)
		_, hi, _ := DecAtScale(kernels.CmpLe, f.Hi, v.Type.Scale)
		tmp := ctx.GetSel()
		tmp = kernels.SelCmpDecVS(kernels.CmpGe, v.Dec, lo, v.Nulls, hn, sel, n, tmp)
		out = kernels.SelCmpDecVS(kernels.CmpLe, v.Dec, hi, v.Nulls, false, tmp, len(tmp), out)
		ctx.PutSel(tmp)
		return out, nil
	case types.String:
		tmp := ctx.GetSel()
		tmp = kernels.SelCmpBytesVS(kernels.CmpGe, v.Str, f.Lo.Bytes(), v.Nulls, hn, sel, n, tmp)
		out = kernels.SelCmpBytesVS(kernels.CmpLe, v.Str, f.Hi.Bytes(), v.Nulls, false, tmp, len(tmp), out)
		ctx.PutSel(tmp)
		return out, nil
	}
	return nil, errType("between", v.Type)
}

// NullSel implements nullAware.
func (f *Between) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	return kernels.SelIsNull(v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
}

// In filters rows whose value appears in a literal list. Numeric lists use
// a sorted-slice binary search (a DECIMAL list's values at the column's
// scale); string lists of up to inLinearMax values a linear scan, longer
// ones a map. The lookup structures build once (plans are shared across
// concurrent tasks).
type In struct {
	Inner Expr
	Vals  []*Literal

	once    sync.Once
	strs    []string
	strSet  map[string]struct{}
	i64s    []int64
	i32s    []int32
	f64s    []float64
	decs    []types.Decimal128
	nullLit bool // a NULL in the list: a value not found is NULL, not FALSE
}

// inLinearMax is the longest string IN-list scanned rather than hashed.
// Comparing lengths first, a scan of short strings beats a map lookup up
// to 9–12 values (BenchmarkInStrings); 8 stays on the scan's side of that.
const inLinearMax = 8

// NewIn builds an IN-list filter with its lookup structures prepared.
func NewIn(inner Expr, vals []*Literal) *In {
	f := &In{Inner: inner, Vals: vals}
	f.prepare()
	return f
}

// String implements Filter.
func (f *In) String() string {
	parts := make([]string, len(f.Vals))
	for i, v := range f.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s IN (%s))", f.Inner, strings.Join(parts, ", "))
}

func (f *In) prepare() {
	f.once.Do(f.build)
}

func (f *In) build() {
	for _, v := range f.Vals {
		f.nullLit = f.nullLit || v.IsNullLit()
	}
	switch f.Inner.Type().ID {
	case types.String:
		for _, v := range f.Vals {
			if !v.IsNullLit() {
				f.strs = append(f.strs, v.Val.(string))
			}
		}
		if len(f.strs) > inLinearMax {
			f.strSet = make(map[string]struct{}, len(f.strs))
			for _, s := range f.strs {
				f.strSet[s] = struct{}{}
			}
		}
	case types.Int64, types.Timestamp:
		f.i64s = sortedList(f.Vals, (*Literal).I64)
	case types.Int32, types.Date:
		f.i32s = sortedList(f.Vals, (*Literal).I32)
	case types.Float64:
		f.f64s = sortedList(f.Vals, (*Literal).F64)
	case types.Decimal:
		// At the column's scale; a value with none there equals no row.
		for _, v := range f.Vals {
			if v.IsNullLit() {
				continue
			}
			if _, d, ok := DecAtScale(kernels.CmpEq, v, f.Inner.Type().Scale); ok {
				f.decs = append(f.decs, d)
			}
		}
		slices.SortFunc(f.decs, types.Decimal128.Cmp)
	}
}

// sortedList is a list's non-NULL values, sorted. NaN equals nothing, not
// even NaN, so it is left out.
func sortedList[T int32 | int64 | float64](vals []*Literal, get func(*Literal) T) []T {
	var out []T
	for _, v := range vals {
		if !v.IsNullLit() && get(v) == get(v) {
			out = append(out, get(v))
		}
	}
	slices.Sort(out)
	return out
}

// inSorted appends the rows whose value is in list (sorted), by binary
// search.
func inSorted[T int32 | int64 | float64](vals, list []T, nulls []byte, hn bool, sel []int32, n int, out []int32) []int32 {
	apply(sel, n, func(i int32) {
		if hn && nulls[i] != 0 {
			return
		}
		if _, ok := slices.BinarySearch(list, vals[i]); ok {
			out = append(out, i)
		}
	})
	return out
}

// EvalSel implements Filter.
func (f *In) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	f.prepare()
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	hn := v.HasNulls()
	switch v.Type.ID {
	case types.String:
		apply(b.Sel, b.NumRows, func(i int32) {
			if hn && v.Nulls[i] != 0 {
				return
			}
			if f.hasStr(v.Str[i]) {
				out = append(out, i)
			}
		})
	case types.Int64, types.Timestamp:
		out = inSorted(v.I64, f.i64s, v.Nulls, hn, b.Sel, b.NumRows, out)
	case types.Int32, types.Date:
		out = inSorted(v.I32, f.i32s, v.Nulls, hn, b.Sel, b.NumRows, out)
	case types.Float64:
		out = inSorted(v.F64, f.f64s, v.Nulls, hn, b.Sel, b.NumRows, out)
	case types.Decimal:
		apply(b.Sel, b.NumRows, func(i int32) {
			if hn && v.Nulls[i] != 0 {
				return
			}
			if _, ok := slices.BinarySearchFunc(f.decs, v.Dec[i], types.Decimal128.Cmp); ok {
				out = append(out, i)
			}
		})
	default:
		return nil, errType("in", v.Type)
	}
	return out, nil
}

// hasStr reports whether x is in a string list. A short list is scanned
// (Go compares string lengths before bytes), a long one hashed.
func (f *In) hasStr(x []byte) bool {
	if f.strSet != nil {
		_, ok := f.strSet[string(x)]
		return ok
	}
	for _, s := range f.strs {
		if s == string(x) {
			return true
		}
	}
	return false
}

// NullSel implements nullAware: the rows whose value is NULL, or, when the
// list holds a NULL, every row whose value is not found.
func (f *In) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	f.prepare()
	if f.nullLit {
		hit, err := f.EvalSel(ctx, b, ctx.GetSel())
		if err != nil {
			return nil, err
		}
		out = activeMinus(ctx, b, hit, out)
		ctx.PutSel(hit)
		return out, nil
	}
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	return kernels.SelIsNull(v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
}

// Like filters strings against a SQL LIKE pattern.
type Like struct {
	Inner   Expr
	Pattern string
	Negate  bool
	p       *kernels.LikePattern
}

// NewLike compiles a LIKE filter.
func NewLike(inner Expr, pattern string, negate bool) *Like {
	return &Like{Inner: inner, Pattern: pattern, Negate: negate, p: kernels.CompileLike(pattern)}
}

// Compiled exposes the pre-compiled pattern (shared with the row engine so
// neither engine recompiles per row).
func (f *Like) Compiled() *kernels.LikePattern { return f.p }

// String implements Filter.
func (f *Like) String() string {
	if f.Negate {
		return fmt.Sprintf("(%s NOT LIKE '%s')", f.Inner, f.Pattern)
	}
	return fmt.Sprintf("(%s LIKE '%s')", f.Inner, f.Pattern)
}

// EvalSel implements Filter.
func (f *Like) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	if v.Type.ID != types.String {
		return nil, errType("like", v.Type)
	}
	if !f.Negate {
		return kernels.SelLike(f.p, v.Str, v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
	}
	hn := v.HasNulls()
	apply(b.Sel, b.NumRows, func(i int32) {
		if hn && v.Nulls[i] != 0 {
			return
		}
		if !f.p.Match(v.Str[i]) {
			out = append(out, i)
		}
	})
	return out, nil
}

// NullSel implements nullAware.
func (f *Like) NullSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	return kernels.SelIsNull(v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
}

// IsNull filters rows whose value is (or is not) NULL. Also usable as a
// BOOLEAN expression.
type IsNull struct {
	Inner  Expr
	Negate bool // IS NOT NULL
}

// String implements Filter and Expr.
func (f *IsNull) String() string {
	if f.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", f.Inner)
	}
	return fmt.Sprintf("(%s IS NULL)", f.Inner)
}

// Type implements Expr.
func (f *IsNull) Type() types.DataType { return types.BoolType }

// EvalSel implements Filter.
func (f *IsNull) EvalSel(ctx *Ctx, b *vector.Batch, out []int32) ([]int32, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	if f.Negate {
		return kernels.SelIsNotNull(v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
	}
	return kernels.SelIsNull(v.Nulls, v.HasNulls(), b.Sel, b.NumRows, out), nil
}

// Eval implements Expr (never NULL itself).
func (f *IsNull) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	v, owned, err := evalChild(ctx, f.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, v, owned)
	out := ctx.Get(types.BoolType)
	want := byte(1)
	if f.Negate {
		want = 0
	}
	apply(b.Sel, b.NumRows, func(i int32) {
		if v.Nulls[i] == want {
			out.Bool[i] = 1
		} else {
			out.Bool[i] = 0
		}
	})
	return out, nil
}
