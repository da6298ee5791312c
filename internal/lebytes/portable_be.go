//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package lebytes

import "photon/internal/types"

// Append4 appends v in little-endian wire form.
func Append4(dst []byte, v []int32) []byte { return append4Portable(dst, v) }

// Append8 appends v in little-endian wire form.
func Append8[T int64 | float64](dst []byte, v []T) []byte { return append8Portable(dst, v) }

// Append16 appends v in little-endian wire form (low word first).
func Append16(dst []byte, v []types.Decimal128) []byte { return append16Portable(dst, v) }

// Get4 fills v from the first 4·len(v) bytes of src; it panics if src is shorter.
func Get4(v []int32, src []byte) { get4Portable(v, src) }

// Get8 fills v from the first 8·len(v) bytes of src; it panics if src is shorter.
func Get8[T int64 | float64](v []T, src []byte) { get8Portable(v, src) }

// Get16 fills v from the first 16·len(v) bytes of src; it panics if src is shorter.
func Get16(v []types.Decimal128, src []byte) { get16Portable(v, src) }
