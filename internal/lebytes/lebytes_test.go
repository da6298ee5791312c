package lebytes

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"photon/internal/types"
)

// TestHostAgreesWithPortable holds the host's implementation (the unsafe
// views on a little-endian build) against the encoding/binary twin, both
// directions, every width.
func TestHostAgreesWithPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 2048} {
		i32 := make([]int32, n)
		i64 := make([]int64, n)
		f64 := make([]float64, n)
		dec := make([]types.Decimal128, n)
		for i := 0; i < n; i++ {
			i32[i] = int32(rng.Uint32())
			i64[i] = int64(rng.Uint64())
			f64[i] = math.Float64frombits(rng.Uint64())
			dec[i] = types.Decimal128{Lo: rng.Uint64(), Hi: int64(rng.Uint64())}
		}
		prefix := []byte("hdr")
		for name, pair := range map[string][2][]byte{
			"4":    {Append4(prefix, i32), append4Portable(prefix, i32)},
			"8i":   {Append8(prefix, i64), append8Portable(prefix, i64)},
			"8f":   {Append8(prefix, f64), append8Portable(prefix, f64)},
			"16":   {Append16(prefix, dec), append16Portable(prefix, dec)},
			"want": {Append4(nil, []int32{0x01020304}), {4, 3, 2, 1}},
		} {
			if !bytes.Equal(pair[0], pair[1]) {
				t.Fatalf("n=%d width %s: host and portable encodings differ", n, name)
			}
		}

		wire := make([]byte, 16*n+3) // longer than any run needs
		rng.Read(wire)
		g32, p32 := make([]int32, n), make([]int32, n)
		Get4(g32, wire)
		get4Portable(p32, wire)
		g64, p64 := make([]int64, n), make([]int64, n)
		Get8(g64, wire)
		get8Portable(p64, wire)
		gf, pf := make([]float64, n), make([]float64, n)
		Get8(gf, wire)
		get8Portable(pf, wire)
		for i := range gf { // NaN payloads must survive bit for bit
			if math.Float64bits(gf[i]) != math.Float64bits(pf[i]) {
				t.Fatalf("n=%d float64 %d differs", n, i)
			}
		}
		gd, pd := make([]types.Decimal128, n), make([]types.Decimal128, n)
		Get16(gd, wire)
		get16Portable(pd, wire)
		if !reflect.DeepEqual(g32, p32) || !reflect.DeepEqual(g64, p64) || !reflect.DeepEqual(gd, pd) {
			t.Fatalf("n=%d: host and portable decodings differ", n)
		}
	}
}

func TestGetPanicsOnShortInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get4 read past a short source")
		}
	}()
	Get4(make([]int32, 2), make([]byte, 7))
}

func TestBitPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for width := 0; width <= 32; width++ {
		n := rng.Intn(1000)
		vals := make([]uint32, n)
		if width > 0 {
			for i := range vals {
				vals[i] = rng.Uint32() & (1<<width - 1)
			}
		}
		packed := BitPack(nil, vals, width)
		// Unpack in batches that start at arbitrary value indices, as a
		// cursor does.
		for start := 0; start < n; {
			k := min(1+rng.Intn(300), n-start)
			got := make([]uint32, k)
			if err := BitUnpack(got, packed, width, start); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			if !reflect.DeepEqual(got, vals[start:start+k]) {
				t.Fatalf("width %d: mismatch at [%d, %d)", width, start, start+k)
			}
			start += k
		}
		if err := BitUnpack(make([]uint32, n+8), packed, width, 0); err == nil && width > 0 {
			t.Fatalf("width %d: reading past the run not detected", width)
		}
	}
	if err := BitUnpack(make([]uint32, 1), make([]byte, 64), 33, 0); err == nil {
		t.Fatal("width 33 accepted")
	}
}
