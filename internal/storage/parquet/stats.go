package parquet

import (
	"encoding/binary"
	"math"
	"math/bits"

	"photon/internal/expr"
	"photon/internal/types"
)

// Chunk statistics — min, max and NULL count, the basis for Delta's file
// skipping (§2.1) and part of the write-path cost Fig. 7 measures
// ("statistics computation kernels") — are expr.Envelope's: the vectorized
// writer folds them with expr.EnvelopeOf, the row writer one boxed value at
// a time by the same rules, and both store the bounds through encodeStat.

// StatsStringCap is the most bytes a string statistic keeps, like Parquet's:
// a longer minimum or maximum is cut to its first StatsStringCap bytes.
const StatsStringCap = 32

// encodeStat renders a boxed bound in the footer encoding, nil for none:
// 8 little-endian bytes for the fixed-width types but DECIMAL's 16, a
// string's first StatsStringCap bytes (an empty string's are not nil).
func encodeStat(v any, t types.DataType) []byte {
	if v == nil {
		return nil
	}
	var b [16]byte
	switch t.ID {
	case types.Bool:
		if v.(bool) {
			b[0] = 1
		}
	case types.Int32, types.Date:
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v.(int32))))
	case types.Int64, types.Timestamp:
		binary.LittleEndian.PutUint64(b[:], uint64(v.(int64)))
	case types.Float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.(float64)))
	case types.Decimal:
		d := v.(types.Decimal128)
		binary.LittleEndian.PutUint64(b[:8], d.Lo)
		binary.LittleEndian.PutUint64(b[8:], uint64(d.Hi))
		return b[:]
	case types.String:
		s := v.(string)
		return append([]byte{}, s[:min(len(s), StatsStringCap)]...)
	default:
		return nil
	}
	return b[:8]
}

// DecodeStatValue converts an encoded stat back to a boxed value for
// planner-side data skipping.
func DecodeStatValue(b []byte, t types.DataType) any {
	if b == nil {
		return nil
	}
	switch t.ID {
	case types.Bool:
		return binary.LittleEndian.Uint64(b) != 0
	case types.Int32, types.Date:
		return int32(int64(binary.LittleEndian.Uint64(b)))
	case types.Int64, types.Timestamp:
		return int64(binary.LittleEndian.Uint64(b))
	case types.Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	case types.Decimal:
		return types.Decimal128{
			Lo: binary.LittleEndian.Uint64(b[:8]),
			Hi: int64(binary.LittleEndian.Uint64(b[8:])),
		}
	case types.String:
		return string(b)
	}
	return nil
}

// Envelope returns the chunk's statistics for a column of type t. A string
// maximum of StatsStringCap bytes may have been cut: not an upper bound.
func (cm *ColumnChunkMeta) Envelope(t types.DataType) expr.Envelope {
	return expr.Envelope{
		Min:   DecodeStatValue(cm.Min, t),
		Max:   DecodeStatValue(cm.Max, t),
		Nulls: cm.NullCount,
		Rows:  cm.NumValues,
	}
}

// frame returns the least value of a chunk bounded by lo and hi (boxed) and
// the bits its values span above it, and whether they can be stored as FOR:
// the type is an integer or a DECIMAL, some value is non-NULL, the span is
// below 2^32, and a decimal's bounds fit int64.
func frame(lo, hi any) (base int64, width int, ok bool) {
	var l, h int64
	switch x := lo.(type) {
	case int32:
		l, h = int64(x), int64(hi.(int32))
	case int64:
		l, h = x, hi.(int64)
	case types.Decimal128:
		y := hi.(types.Decimal128)
		if !types.Fits64(x) || !types.Fits64(y) {
			return 0, 0, false
		}
		l, h = x.ToInt64(), y.ToInt64()
	default:
		return 0, 0, false
	}
	span := uint64(h - l) // exact: h ≥ l, and the difference wraps mod 2^64
	if span >= 1<<32 {
		return 0, 0, false
	}
	return l, bits.Len64(span), true
}
