package expr

import (
	"fmt"
	"strconv"

	"photon/internal/kernels"
	"photon/internal/types"
	"photon/internal/vector"
)

// Cast converts between types. Semantics follow Spark: numeric narrowing
// truncates, string-to-number produces NULL on malformed input (raw data in
// the lake frequently stores numbers and dates as strings, §1), and
// number-to-string renders SQL literals.
type Cast struct {
	Inner Expr
	To    types.DataType
}

// trueText and falseText are the payloads every BOOLEAN row cast to STRING
// points at, as every row of a STRING literal points at one.
var trueText, falseText = []byte("true"), []byte("false")

// NewCast builds a cast node.
func NewCast(inner Expr, to types.DataType) *Cast { return &Cast{Inner: inner, To: to} }

// Type implements Expr.
func (c *Cast) Type() types.DataType { return c.To }

// String implements Expr.
func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.Inner, c.To) }

// Eval implements Expr.
func (c *Cast) Eval(ctx *Ctx, b *vector.Batch) (*vector.Vector, error) {
	iv, owned, err := evalChild(ctx, c.Inner, b)
	if err != nil {
		return nil, err
	}
	defer putOwned(ctx, iv, owned)
	from := iv.Type
	if from.Equal(c.To) {
		if owned {
			// Transfer ownership by copying the reference; caller recycles.
			out := ctx.Get(c.To)
			n := b.NumRows
			apply(b.Sel, n, func(i int32) { out.CopyRow(int(i), iv, int(i)) })
			out.SetHasNulls(iv.HasNulls())
			return out, nil
		}
		return iv, nil
	}
	out := ctx.Get(c.To)
	n, sel, hn := b.NumRows, b.Sel, iv.HasNulls()
	if hn {
		out.SetHasNulls(kernels.CopyNulls(iv.Nulls, out.Nulls, sel, n))
	}

	fail := func() (*vector.Vector, error) {
		ctx.Put(out)
		return nil, errType("cast", from, c.To)
	}

	switch from.ID {
	case types.Int32, types.Date:
		switch c.To.ID {
		case types.Int64:
			apply(sel, n, func(i int32) { out.I64[i] = int64(iv.I32[i]) })
		case types.Float64:
			apply(sel, n, func(i int32) { out.F64[i] = float64(iv.I32[i]) })
		case types.Decimal:
			scale := c.To.Scale
			apply(sel, n, func(i int32) {
				out.Dec[i] = types.DecimalFromInt64(int64(iv.I32[i])).Rescale(0, scale)
			})
		case types.String:
			apply(sel, n, func(i int32) {
				if out.Nulls[i] != 0 {
					return
				}
				var buf [32]byte
				if from.ID == types.Date {
					out.Str[i] = ctx.Arena.Copy(types.AppendDate(buf[:0], iv.I32[i]))
				} else {
					out.Str[i] = ctx.Arena.Copy(strconv.AppendInt(buf[:0], int64(iv.I32[i]), 10))
				}
			})
		default:
			return fail()
		}
	case types.Int64, types.Timestamp:
		switch c.To.ID {
		case types.Int32:
			apply(sel, n, func(i int32) { out.I32[i] = int32(iv.I64[i]) })
		case types.Float64:
			apply(sel, n, func(i int32) { out.F64[i] = float64(iv.I64[i]) })
		case types.Decimal:
			scale := c.To.Scale
			apply(sel, n, func(i int32) {
				out.Dec[i] = types.DecimalFromInt64(iv.I64[i]).Rescale(0, scale)
			})
		case types.String:
			apply(sel, n, func(i int32) {
				if out.Nulls[i] != 0 {
					return
				}
				var buf [64]byte
				if from.ID == types.Timestamp {
					out.Str[i] = ctx.Arena.Copy(types.AppendTimestamp(buf[:0], iv.I64[i]))
				} else {
					out.Str[i] = ctx.Arena.Copy(strconv.AppendInt(buf[:0], iv.I64[i], 10))
				}
			})
		case types.Date:
			if from.ID != types.Timestamp {
				return fail()
			}
			apply(sel, n, func(i int32) {
				out.I32[i] = int32(iv.I64[i] / types.MicrosPerSecond / types.SecondsPerDay)
			})
		default:
			return fail()
		}
	case types.Float64:
		switch c.To.ID {
		case types.Int32:
			apply(sel, n, func(i int32) { out.I32[i] = int32(iv.F64[i]) })
		case types.Int64:
			apply(sel, n, func(i int32) { out.I64[i] = int64(iv.F64[i]) })
		case types.Decimal:
			scale := c.To.Scale
			mul := types.Pow10(scale).ToFloat64()
			apply(sel, n, func(i int32) {
				out.Dec[i] = decFromFloat(iv.F64[i] * mul)
			})
		case types.String:
			apply(sel, n, func(i int32) {
				if out.Nulls[i] != 0 {
					return
				}
				var buf [32]byte
				out.Str[i] = ctx.Arena.Copy(strconv.AppendFloat(buf[:0], iv.F64[i], 'g', -1, 64))
			})
		default:
			return fail()
		}
	case types.Decimal:
		switch c.To.ID {
		case types.Decimal:
			rescaled := false
			if ctx.Dec64Qualified(iv, sel, n) {
				if kernels.Dec64RescaleDecV(iv.Dec, out.Dec, from.Scale, c.To.Scale, iv.Nulls, hn, sel, n) {
					out.Dec64 = vector.Dec64All
					ctx.Dec64Batches++
					rescaled = true
				} else {
					ctx.Dec64Escapes++
				}
			} else {
				ctx.Dec128Batches++
			}
			if !rescaled {
				kernels.DecRescaleV(iv.Dec, out.Dec, from.Scale, c.To.Scale, sel, n)
			}
		case types.Float64:
			div := types.Pow10(from.Scale).ToFloat64()
			apply(sel, n, func(i int32) { out.F64[i] = iv.Dec[i].ToFloat64() / div })
		case types.Int64:
			apply(sel, n, func(i int32) { out.I64[i] = iv.Dec[i].Div(types.Pow10(from.Scale)).ToInt64() })
		case types.String:
			scale := from.Scale
			apply(sel, n, func(i int32) {
				if out.Nulls[i] != 0 {
					return
				}
				var buf [48]byte
				out.Str[i] = ctx.Arena.Copy(types.AppendDecimal(buf[:0], iv.Dec[i], scale))
			})
		default:
			return fail()
		}
	case types.String:
		switch c.To.ID {
		case types.Int32:
			castStr(out, iv, sel, n, func(s []byte) (int32, bool) {
				v, err := strconv.ParseInt(string(s), 10, 32)
				return int32(v), err == nil
			}, func(i int32, v int32) { out.I32[i] = v })
		case types.Int64:
			castStr(out, iv, sel, n, func(s []byte) (int64, bool) {
				v, err := strconv.ParseInt(string(s), 10, 64)
				return v, err == nil
			}, func(i int32, v int64) { out.I64[i] = v })
		case types.Float64:
			castStr(out, iv, sel, n, func(s []byte) (float64, bool) {
				v, err := strconv.ParseFloat(string(s), 64)
				return v, err == nil
			}, func(i int32, v float64) { out.F64[i] = v })
		case types.Date:
			castStr(out, iv, sel, n, func(s []byte) (int32, bool) {
				v, err := types.ParseDate(string(s))
				return v, err == nil
			}, func(i int32, v int32) { out.I32[i] = v })
		case types.Timestamp:
			castStr(out, iv, sel, n, func(s []byte) (int64, bool) {
				v, err := types.ParseTimestamp(string(s))
				return v, err == nil
			}, func(i int32, v int64) { out.I64[i] = v })
		case types.Decimal:
			scale := c.To.Scale
			castStr(out, iv, sel, n, func(s []byte) (types.Decimal128, bool) {
				v, err := types.ParseDecimal(string(s), scale)
				return v, err == nil
			}, func(i int32, v types.Decimal128) { out.Dec[i] = v })
		default:
			return fail()
		}
	case types.Bool:
		switch c.To.ID {
		case types.Int32:
			apply(sel, n, func(i int32) { out.I32[i] = int32(iv.Bool[i]) })
		case types.Int64:
			apply(sel, n, func(i int32) { out.I64[i] = int64(iv.Bool[i]) })
		case types.String:
			apply(sel, n, func(i int32) {
				if out.Nulls[i] != 0 {
					return
				}
				if iv.Bool[i] != 0 {
					out.Str[i] = trueText
				} else {
					out.Str[i] = falseText
				}
			})
		default:
			return fail()
		}
	default:
		return fail()
	}
	return out, nil
}

// castStr runs a parse function over active string rows, producing NULL on
// malformed input.
func castStr[T any](out, iv *vector.Vector, sel []int32, n int, parse func([]byte) (T, bool), store func(int32, T)) {
	apply(sel, n, func(i int32) {
		if out.Nulls[i] != 0 {
			return
		}
		v, ok := parse(iv.Str[i])
		if !ok {
			out.SetNull(int(i))
			return
		}
		store(i, v)
	})
}

// decFromFloat rounds a float into a Decimal128 (already pre-scaled).
func decFromFloat(f float64) types.Decimal128 {
	if f >= 0 {
		return types.DecimalFromInt64(int64(f + 0.5))
	}
	return types.DecimalFromInt64(int64(f - 0.5))
}
