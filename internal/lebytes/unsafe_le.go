//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package lebytes

import (
	"unsafe"

	"photon/internal/types"
)

// On a little-endian host a slice's memory is already its wire form. These
// three views are the only unsafe code in the repository; each returns the
// bytes of v itself, valid while v is.

func bytes4(v []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

func bytes8[T int64 | float64](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// bytes16 relies on Decimal128's field order (Lo, then Hi).
func bytes16(v []types.Decimal128) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 16*len(v))
}

// Append4 appends v in little-endian wire form.
func Append4(dst []byte, v []int32) []byte { return append(dst, bytes4(v)...) }

// Append8 appends v in little-endian wire form.
func Append8[T int64 | float64](dst []byte, v []T) []byte { return append(dst, bytes8(v)...) }

// Append16 appends v in little-endian wire form (low word first).
func Append16(dst []byte, v []types.Decimal128) []byte { return append(dst, bytes16(v)...) }

// Get4 fills v from the first 4·len(v) bytes of src; it panics if src is shorter.
func Get4(v []int32, src []byte) { copy(bytes4(v), src[:4*len(v)]) }

// Get8 fills v from the first 8·len(v) bytes of src; it panics if src is shorter.
func Get8[T int64 | float64](v []T, src []byte) { copy(bytes8(v), src[:8*len(v)]) }

// Get16 fills v from the first 16·len(v) bytes of src; it panics if src is shorter.
func Get16(v []types.Decimal128, src []byte) { copy(bytes16(v), src[:16*len(v)]) }
