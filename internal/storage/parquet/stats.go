package parquet

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"

	"photon/internal/types"
	"photon/internal/vector"
)

// statsAcc accumulates per-chunk min/max/null-count statistics, the basis
// for Delta's file skipping (§2.1) and part of the write-path cost Fig. 7
// measures ("statistics computation kernels").
type statsAcc struct {
	t         types.DataType
	nullCount int64
	seen      bool
	minI      int64
	maxI      int64
	minF      float64
	maxF      float64
	minD      types.Decimal128
	maxD      types.Decimal128
	minS      []byte
	maxS      []byte
}

// update folds one vector's rows [0, n) into the accumulator — a tight
// column loop in the vectorized writer.
func (s *statsAcc) update(v *vector.Vector, n int) {
	hn := v.HasNulls()
	for i := 0; i < n; i++ {
		if hn && v.Nulls[i] != 0 {
			s.nullCount++
			continue
		}
		switch s.t.ID {
		case types.Bool:
			s.updI(int64(v.Bool[i]))
		case types.Int32, types.Date:
			s.updI(int64(v.I32[i]))
		case types.Int64, types.Timestamp:
			s.updI(v.I64[i])
		case types.Float64:
			s.updF(v.F64[i])
		case types.Decimal:
			s.updD(v.Dec[i])
		case types.String:
			s.updS(v.Str[i])
		}
	}
}

func (s *statsAcc) updI(x int64) {
	if !s.seen || x < s.minI {
		s.minI = x
	}
	if !s.seen || x > s.maxI {
		s.maxI = x
	}
	s.seen = true
}

func (s *statsAcc) updF(x float64) {
	if !s.seen || x < s.minF {
		s.minF = x
	}
	if !s.seen || x > s.maxF {
		s.maxF = x
	}
	s.seen = true
}

func (s *statsAcc) updD(x types.Decimal128) {
	if !s.seen || x.Cmp(s.minD) < 0 {
		s.minD = x
	}
	if !s.seen || x.Cmp(s.maxD) > 0 {
		s.maxD = x
	}
	s.seen = true
}

func (s *statsAcc) updS(x []byte) {
	if !s.seen || bytes.Compare(x, s.minS) < 0 {
		s.minS = append(s.minS[:0], x...)
	}
	if !s.seen || bytes.Compare(x, s.maxS) > 0 {
		s.maxS = append(s.maxS[:0], x...)
	}
	s.seen = true
}

// frame returns the minimum of a chunk of a forType and the bits its values
// span above it, and whether they can be stored as FOR: some value is
// non-NULL, the span is below 2^32, and a decimal's minimum and maximum fit
// int64.
func (s *statsAcc) frame() (base int64, width int, ok bool) {
	lo, hi := s.minI, s.maxI
	if s.t.ID == types.Decimal {
		if !types.Fits64(s.minD) || !types.Fits64(s.maxD) {
			return 0, 0, false
		}
		lo, hi = s.minD.ToInt64(), s.maxD.ToInt64()
	}
	span := uint64(hi - lo) // exact: hi ≥ lo, and the difference wraps mod 2^64
	if !s.seen || !forType(s.t.ID) || span >= 1<<32 {
		return 0, 0, false
	}
	return lo, bits.Len64(span), true
}

// StatsStringCap is the most bytes a string statistic keeps, like Parquet's:
// a longer minimum or maximum is cut to its first StatsStringCap bytes.
const StatsStringCap = 32

// encode returns the (min, max) byte encodings, nil when all values NULL.
func (s *statsAcc) encode() (minB, maxB []byte) {
	if !s.seen {
		return nil, nil
	}
	enc := func(isMin bool) []byte {
		switch s.t.ID {
		case types.Bool, types.Int32, types.Date, types.Int64, types.Timestamp:
			var b [8]byte
			x := s.maxI
			if isMin {
				x = s.minI
			}
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			return b[:]
		case types.Float64:
			var b [8]byte
			x := s.maxF
			if isMin {
				x = s.minF
			}
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			return b[:]
		case types.Decimal:
			var b [16]byte
			x := s.maxD
			if isMin {
				x = s.minD
			}
			binary.LittleEndian.PutUint64(b[:8], x.Lo)
			binary.LittleEndian.PutUint64(b[8:], uint64(x.Hi))
			return b[:]
		case types.String:
			x := s.maxS
			if isMin {
				x = s.minS
			}
			if len(x) > StatsStringCap {
				x = x[:StatsStringCap]
			}
			return append([]byte(nil), x...)
		}
		return nil
	}
	return enc(true), enc(false)
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
