package kernels

import (
	"math"
	"math/bits"

	"photon/internal/types"
	"photon/internal/vector"
)

// Hashing kernels (§4.4 step 1): evaluate a 64-bit hash over a batch of
// keys, one kernel call per key column; subsequent columns combine into the
// running hash. The mixer is the splitmix64 finalizer, which has full
// avalanche — the SIMD hashing of the paper maps to these batch loops.

const (
	hashNullSeed  = 0x9e3779b97f4a7c15
	hashCombineK  = 0xbf58476d1ce4e5b9
	hashCombineK2 = 0x94d049bb133111eb
)

// Mix64 finalizes a 64-bit value with full avalanche.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= hashCombineK
	x ^= x >> 27
	x *= hashCombineK2
	x ^= x >> 31
	return x
}

// hashCombine folds v into an existing hash h.
func hashCombine(h, v uint64) uint64 {
	return Mix64(h ^ (v + hashNullSeed + (h << 6) + (h >> 2)))
}

// HashU64 hashes raw 64-bit lanes into out (first key column).
func HashU64(vals []uint64, nulls []byte, hasNulls bool, sel []int32, n int, out []uint64) {
	if !hasNulls {
		if sel == nil {
			v, o := vals[:n], out[:n]
			for i := range o {
				o[i] = Mix64(v[i])
			}
			return
		}
		for _, i := range sel {
			out[i] = Mix64(vals[i])
		}
		return
	}
	body := func(i int32) {
		if nulls[i] != 0 {
			out[i] = hashNullSeed
		} else {
			out[i] = Mix64(vals[i])
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
}

// RehashU64 combines raw 64-bit lanes into the running hash in out.
func RehashU64(vals []uint64, nulls []byte, hasNulls bool, sel []int32, n int, out []uint64) {
	if !hasNulls {
		if sel == nil {
			v, o := vals[:n], out[:n]
			for i := range o {
				o[i] = hashCombine(o[i], v[i])
			}
			return
		}
		for _, i := range sel {
			out[i] = hashCombine(out[i], vals[i])
		}
		return
	}
	body := func(i int32) {
		if nulls[i] != 0 {
			out[i] = hashCombine(out[i], hashNullSeed)
		} else {
			out[i] = hashCombine(out[i], vals[i])
		}
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
}

// HashBytesOne hashes a single byte string (FNV-1a over 8-byte lanes, mixed).
func HashBytesOne(b []byte) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = (h ^ v) * prime
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return Mix64(h)
}

// HashBytes hashes byte strings into out (first key column).
func HashBytes(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, out []uint64) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			out[i] = hashNullSeed
			return
		}
		out[i] = HashBytesOne(vals[i])
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
}

// RehashBytes combines byte strings into the running hash in out.
func RehashBytes(vals [][]byte, nulls []byte, hasNulls bool, sel []int32, n int, out []uint64) {
	body := func(i int32) {
		if hasNulls && nulls[i] != 0 {
			out[i] = hashCombine(out[i], hashNullSeed)
			return
		}
		out[i] = hashCombine(out[i], HashBytesOne(vals[i]))
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
	} else {
		for _, i := range sel {
			body(i)
		}
	}
}

// HashKeys hashes the key columns' active rows into hashes, indexed by
// physical row: the first column sets each hash and every later one is
// folded in. It is the one key hash of the engine — the join and the
// aggregation table, grace and shuffle partitioning and the runtime filters
// all use it, so equal keys meet wherever they are hashed. A string hashes
// its bytes; any other value hashes as a 64-bit lane, widened into lanes,
// which grows to n rows and is returned for the next call.
func HashKeys(keys []*vector.Vector, sel []int32, n int, hashes, lanes []uint64) []uint64 {
	for c, v := range keys {
		if v.Type.ID == types.String {
			if c == 0 {
				HashBytes(v.Str, v.Nulls, v.HasNulls(), sel, n, hashes)
			} else {
				RehashBytes(v.Str, v.Nulls, v.HasNulls(), sel, n, hashes)
			}
			continue
		}
		if cap(lanes) < n {
			lanes = make([]uint64, n)
		}
		lanes = lanes[:n]
		widenLanes(v, sel, n, lanes)
		if c == 0 {
			HashU64(lanes, v.Nulls, v.HasNulls(), sel, n, hashes)
		} else {
			RehashU64(lanes, v.Nulls, v.HasNulls(), sel, n, hashes)
		}
	}
	return lanes
}

// widenLanes widens a fixed-width vector's active rows into 64-bit lanes.
func widenLanes(v *vector.Vector, sel []int32, n int, out []uint64) {
	switch v.Type.ID {
	case types.Bool:
		forRows(sel, n, func(i int32) { out[i] = uint64(v.Bool[i]) })
	case types.Int32, types.Date:
		forRows(sel, n, func(i int32) { out[i] = uint64(uint32(v.I32[i])) })
	case types.Int64, types.Timestamp:
		forRows(sel, n, func(i int32) { out[i] = uint64(v.I64[i]) })
	case types.Float64:
		forRows(sel, n, func(i int32) { out[i] = math.Float64bits(v.F64[i]) })
	case types.Decimal:
		// A narrow vector skips the high limbs: Dec64HashLanes gives the
		// same lanes for values that fit an int64.
		if v.Dec64 == vector.Dec64All && sel == nil {
			Dec64HashLanes(v.Dec, out, n)
		} else {
			forRows(sel, n, func(i int32) { out[i] = v.Dec[i].Lo ^ uint64(v.Dec[i].Hi)*hashNullSeed })
		}
	}
}

// forRows runs body over the active rows; it and the closure passed to it
// inline, giving one dense and one selective loop.
func forRows(sel []int32, n int, body func(i int32)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			body(int32(i))
		}
		return
	}
	for _, i := range sel {
		body(i)
	}
}

// NextPow2 rounds n up to a power of two (hash table sizing).
func NextPow2(n uint64) uint64 {
	if n <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(n-1))
}
