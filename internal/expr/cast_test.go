package expr

import (
	"math"
	"strconv"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// TestCastToStringWritesArena: CAST of INT, BIGINT, DATE, TIMESTAMP, DOUBLE,
// DECIMAL and BOOLEAN to STRING renders what strconv and the types package
// render, keeps NULLs and the types' extremes, and writes every row into the
// expression arena (BOOLEAN rows share two constant payloads): the
// allocations of an Eval over a 2,048-row batch do not grow with the rows.
func TestCastToStringWritesArena(t *testing.T) {
	dec38 := types.Pow10(38).Sub(types.DecimalFromInt64(1)) // 38 nines
	const n = 2048
	cases := []struct {
		tp       types.DataType
		specials []any
		val      func(i int) any
		want     func(x any) string
	}{
		{types.Int32Type, []any{int32(math.MinInt32), int32(math.MaxInt32), int32(0), int32(-1)},
			func(i int) any { return int32(i*997 - 1_000_000) },
			func(x any) string { return strconv.FormatInt(int64(x.(int32)), 10) }},
		{types.Int64Type, []any{int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(-1)},
			func(i int) any { return int64(i)*1_000_000_007 - 1<<40 },
			func(x any) string { return strconv.FormatInt(x.(int64), 10) }},
		{types.DateType, []any{int32(0), int32(-1), int32(-719_162), int32(2_932_896)},
			func(i int) any { return int32(i*37 - 30_000) },
			func(x any) string { return types.FormatDate(x.(int32)) }},
		{types.TimestampType, []any{int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(-1)},
			func(i int) any { return int64(i)*86_400_000_123 - 1<<50 },
			func(x any) string { return types.FormatTimestamp(x.(int64)) }},
		{types.Float64Type, []any{-math.MaxFloat64, math.SmallestNonzeroFloat64, 0.0, math.Inf(-1)},
			func(i int) any { return float64(i)/7 - 100 },
			func(x any) string { return strconv.FormatFloat(x.(float64), 'g', -1, 64) }},
		{types.DecimalType(38, 0), []any{dec38, dec38.Neg(), types.Decimal128{}, types.DecimalFromInt64(-1)},
			func(i int) any { return types.DecimalFromInt64(int64(i)*1_000_000_007 - 1<<40) },
			func(x any) string { return types.FormatDecimal(x.(types.Decimal128), 0) }},
		{types.DecimalType(38, 10), []any{dec38, dec38.Neg(), types.Decimal128{}, types.DecimalFromInt64(-1)},
			func(i int) any { return types.DecimalFromInt64(int64(i)*7_919 - 5_000_000) },
			func(x any) string { return types.FormatDecimal(x.(types.Decimal128), 10) }},
		{types.BoolType, []any{true, false},
			func(i int) any { return i%3 == 0 },
			func(x any) string { return strconv.FormatBool(x.(bool)) }},
	}
	for _, tc := range cases {
		t.Run(tc.tp.String(), func(t *testing.T) {
			b := vector.NewBatch(types.NewSchema(types.Field{Name: "x", Type: tc.tp}), n)
			vals := make([]any, n)
			for i := range vals {
				switch {
				case i < len(tc.specials):
					vals[i] = tc.specials[i]
				case i%9 == 4:
				default:
					vals[i] = tc.val(i)
				}
				b.Vecs[0].Set(i, vals[i])
			}
			b.NumRows = n
			ctx := NewCtx(n)
			cast := NewCast(Col(0, "x", tc.tp), types.StringType)
			v, err := cast.Eval(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range vals {
				switch {
				case x == nil && !v.IsNull(i):
					t.Fatalf("row %d: NULL cast to %q", i, v.Str[i])
				case x != nil && (v.IsNull(i) || string(v.Str[i]) != tc.want(x)):
					t.Fatalf("row %d: %v cast to %q, want %q", i, x, v.Str[i], tc.want(x))
				}
			}
			ctx.Put(v)
			allocs := testing.AllocsPerRun(20, func() {
				ctx.Arena.Reset()
				v, err := cast.Eval(ctx, b)
				if err != nil {
					t.Fatal(err)
				}
				ctx.Put(v)
			})
			if allocs > 4 {
				t.Errorf("CAST(%s AS STRING) over %d rows: %.0f allocations, want at most 4", tc.tp, n, allocs)
			}
		})
	}
}
