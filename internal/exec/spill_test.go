package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"photon/internal/fault"
	"photon/internal/types"
)

// TestDamagedSpillPartitionIsRetryable: a HashAgg spill partition damaged
// before it is merged fails the task with a transient error at spill-read,
// which the scheduler retries (the re-run writes its spill files afresh),
// and never merges a wrong row.
func TestDamagedSpillPartitionIsRetryable(t *testing.T) {
	agg, tc := spillingAgg(t)
	if err := agg.Open(tc); err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// The first batch out merges the first partition; the last waits on disk.
	if _, err := agg.Next(); err != nil {
		t.Fatal(err)
	}
	f := agg.spillFiles[len(agg.spillFiles)-1]
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	// A value byte of the last rows written: the stream ends in an 8-byte end
	// marker.
	b, at := make([]byte, 1), info.Size()-9
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	for {
		out, err := agg.Next()
		if err != nil {
			var fe *fault.Error
			if !errors.As(err, &fe) || !fe.Transient || fe.Site != fault.SpillRead {
				t.Fatalf("err = %v, want a transient *fault.Error at %s", err, fault.SpillRead)
			}
			return
		}
		if out == nil {
			t.Fatal("a damaged spill partition merged without an error")
		}
	}
}

// spillSchema has a column of every type a spill stream carries: a unique
// id, a string, then bool, int32, date, int64, timestamp, float64, a narrow
// and a wide decimal.
func spillSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.Int64Type},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "b", Type: types.BoolType, Nullable: true},
		types.Field{Name: "i", Type: types.Int32Type, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "l", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "ts", Type: types.TimestampType, Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "m", Type: types.DecimalType(12, 2), Nullable: true},
		types.Field{Name: "w", Type: types.DecimalType(38, 2), Nullable: true},
	)
}

// spillRows returns n rows of spillSchema with ids 0..n-1. Strings repeat
// (≈ 300 short values) and are sometimes NULL, empty or ≥ 4 KB; every
// nullable column holds NULLs; half the wide decimals are ±2^63.
func spillRows(n int, seed int64) [][]any {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]any, n)
	for i := range rows {
		var s any
		switch r := rng.Intn(40); {
		case r == 0:
			s = nil
		case r == 1:
			s = ""
		case r == 2:
			s = strings.Repeat(string(rune('a'+rng.Intn(26))), 4096+rng.Intn(64))
		default:
			s = fmt.Sprintf("k%03d", rng.Intn(300))
		}
		w := types.DecimalFromInt64(rng.Int63n(1e6) - 5e5)
		switch rng.Intn(4) {
		case 0:
			w = types.Decimal128{Lo: 1 << 63} // 2^63
		case 1:
			w = types.Decimal128{Lo: 1 << 63, Hi: -1} // -2^63
		}
		row := []any{int64(i), s, rng.Intn(2) == 0, rng.Int31n(1e6) - 5e5, rng.Int31n(20000),
			rng.Int63() - 1<<62, rng.Int63n(1e15), rng.NormFloat64() * 1e3, types.DecimalFromInt64(rng.Int63n(1e9)), w}
		for c := 2; c < len(row); c++ {
			if rng.Intn(10) == 0 {
				row[c] = nil
			}
		}
		rows[i] = row
	}
	return rows
}
