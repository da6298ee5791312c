// Package lebytes moves runs of fixed-width values between typed slices and
// their little-endian wire form — the PLAIN encoding of Parquet chunks and
// shuffle blocks. On little-endian hosts (unsafe_le.go) a run is one memmove
// over the slice's own memory; this file is the portable twin, compiled
// everywhere so a test can hold the two against each other.
package lebytes

import (
	"encoding/binary"
	"math"

	"photon/internal/types"
)

func append4Portable(dst []byte, v []int32) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

func append8Portable[T int64 | float64](dst []byte, v []T) []byte {
	switch v := any(v).(type) {
	case []int64:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
		}
	case []float64:
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return dst
}

func append16Portable(dst []byte, v []types.Decimal128) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, x.Lo)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x.Hi))
	}
	return dst
}

func get4Portable(v []int32, src []byte) {
	_ = src[:4*len(v)]
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func get8Portable[T int64 | float64](v []T, src []byte) {
	_ = src[:8*len(v)]
	switch v := any(v).(type) {
	case []int64:
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float64:
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

func get16Portable(v []types.Decimal128, src []byte) {
	_ = src[:16*len(v)]
	for i := range v {
		v[i] = types.Decimal128{
			Lo: binary.LittleEndian.Uint64(src[16*i:]),
			Hi: int64(binary.LittleEndian.Uint64(src[16*i+8:])),
		}
	}
}
