package kernels

import (
	"math"
	"testing"

	"photon/internal/types"
	"photon/internal/vector"
)

// TestHashKeysMatchesRowByRow: HashKeys over a key of every type, dense and
// under a position list, gives each active row the hash a row-at-a-time
// fold of its values gives, and leaves inactive rows alone.
func TestHashKeysMatchesRowByRow(t *testing.T) {
	const n = 40
	kinds := []types.DataType{types.BoolType, types.Int32Type, types.DateType, types.Int64Type,
		types.TimestampType, types.Float64Type, types.DecimalType(12, 2), types.StringType}
	keys := make([]*vector.Vector, len(kinds))
	for c, kt := range kinds {
		v := vector.New(kt, n)
		for i := 0; i < n; i++ {
			if (i+c)%7 == 0 {
				v.SetNull(i)
				continue
			}
			x := int64(i*31-500) * int64(c+1)
			switch kt.ID {
			case types.Bool:
				v.Bool[i] = byte(i & 1)
			case types.Int32, types.Date:
				v.I32[i] = int32(x)
			case types.Int64, types.Timestamp:
				v.I64[i] = x
			case types.Float64:
				v.F64[i] = float64(x) / 3
			case types.Decimal:
				v.Dec[i] = types.Decimal128{Lo: uint64(x), Hi: x >> 63}
			case types.String:
				v.Str[i] = []byte(string(rune('a' + i%26)))
			}
		}
		keys[c] = v
	}
	lane := func(v *vector.Vector, i int) uint64 {
		switch v.Type.ID {
		case types.Bool:
			return uint64(v.Bool[i])
		case types.Int32, types.Date:
			return uint64(uint32(v.I32[i]))
		case types.Int64, types.Timestamp:
			return uint64(v.I64[i])
		case types.Float64:
			return math.Float64bits(v.F64[i])
		case types.Decimal:
			return v.Dec[i].Lo ^ uint64(v.Dec[i].Hi)*0x9e3779b97f4a7c15
		}
		return HashBytesOne(v.Str[i])
	}
	want := func(i int) uint64 {
		var h uint64
		for c, v := range keys {
			x := uint64(hashNullSeed)
			if !v.IsNull(i) {
				x = lane(v, i)
			}
			switch {
			case c > 0:
				h = hashCombine(h, x)
			case v.IsNull(i) || v.Type.ID == types.String:
				h = x
			default:
				h = Mix64(x)
			}
		}
		return h
	}
	for _, narrow := range []bool{false, true} {
		keys[6].Dec64 = vector.Dec64Unknown
		if narrow {
			keys[6].Dec64 = vector.Dec64All
		}
		for _, sel := range [][]int32{nil, {1, 2, 5, 17, 39}} {
			hashes := make([]uint64, n)
			for i := range hashes {
				hashes[i] = 7
			}
			HashKeys(keys, sel, n, hashes, nil)
			active := make([]bool, n)
			forRows(sel, n, func(i int32) { active[i] = true })
			for i, h := range hashes {
				switch {
				case active[i] && h != want(i):
					t.Fatalf("narrow=%v sel=%v: row %d hashes to %x, want %x", narrow, sel, i, h, want(i))
				case !active[i] && h != 7:
					t.Fatalf("narrow=%v sel=%v: inactive row %d was written", narrow, sel, i)
				}
			}
		}
	}
}
