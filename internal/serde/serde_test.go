package serde

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"photon/internal/shuffle"
	"photon/internal/types"
	"photon/internal/vector"
)

// writeStream writes batches as one stream, end marker included.
func writeStream(tb testing.TB, batches ...*vector.Batch) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, b := range batches {
		if err := w.WriteBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readAll reads a stream to its end marker: the batches, or the first error.
func readAll(schema *types.Schema, stream []byte) ([]*vector.Batch, error) {
	r := NewReader(bytes.NewReader(stream), schema)
	var out []*vector.Batch
	for {
		dst := vector.NewBatch(schema, 4096)
		switch err := r.ReadBatch(dst); err {
		case nil:
			out = append(out, dst)
		case io.EOF:
			return out, nil
		default:
			return out, err
		}
	}
}

func roundTrip(t *testing.T, schema *types.Schema, batches []*vector.Batch) []*vector.Batch {
	t.Helper()
	out, err := readAll(schema, writeStream(t, batches...))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func rowsOf(batches []*vector.Batch) [][]any {
	var rows [][]any
	for _, b := range batches {
		rows = append(rows, b.Rows()...)
	}
	return rows
}

// pinBatches are batches of a schema with every type: NULLs in every
// column, an empty string, a batch with a selection vector and an empty one.
func pinBatches() (*types.Schema, []*vector.Batch) {
	schema := types.NewSchema(
		types.Field{Name: "l", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "b", Type: types.BoolType, Nullable: true},
		types.Field{Name: "i", Type: types.Int32Type, Nullable: true},
		types.Field{Name: "f", Type: types.Float64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
		types.Field{Name: "d", Type: types.DateType, Nullable: true},
		types.Field{Name: "ts", Type: types.TimestampType, Nullable: true},
		types.Field{Name: "dec", Type: types.DecimalType(20, 2), Nullable: true},
	)
	b := vector.NewBatch(schema, 16)
	b.AppendRow(int64(2), true, int32(1), 3.5, "hello", int32(100), int64(1e12), types.DecimalFromInt64(1234))
	b.AppendRow(int64(-9), false, nil, -0.5, "", int32(-5), nil, types.DecimalFromInt64(-77))
	b.AppendRow(nil, nil, int32(7), nil, nil, nil, int64(0), nil)
	sel := vector.NewBatch(schema, 16)
	for i := 0; i < 8; i++ {
		sel.AppendRow(int64(i), i%2 == 0, int32(i), float64(i), string(rune('a'+i)), int32(i), int64(i), types.Decimal128{Lo: 1 << 63, Hi: -int64(i % 2)})
	}
	sel.SetSel([]int32{1, 3, 5})
	return schema, []*vector.Batch{b, sel, vector.NewBatch(schema, 4)}
}

func TestRoundTripAllTypes(t *testing.T) {
	schema, batches := pinBatches()
	got := roundTrip(t, schema, batches[:1])
	if len(got) != 1 {
		t.Fatalf("batches = %d", len(got))
	}
	if !reflect.DeepEqual(got[0].Rows(), batches[0].Rows()) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got[0].Rows(), batches[0].Rows())
	}
}

func TestRoundTripSelectionOnlyActive(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "x", Type: types.Int64Type})
	b := vector.NewBatch(schema, 8)
	for i := 0; i < 8; i++ {
		b.AppendRow(int64(i))
	}
	b.SetSel([]int32{1, 3, 5})
	got := roundTrip(t, schema, []*vector.Batch{b})
	rows := got[0].Rows()
	if len(rows) != 3 || rows[0][0].(int64) != 1 || rows[2][0].(int64) != 5 {
		t.Errorf("selective serialize: %v", rows)
	}
	if !got[0].AllActive() {
		t.Error("deserialized batch should be dense")
	}
}

func TestEmptyStreamAndEmptyBatch(t *testing.T) {
	schema := types.NewSchema(types.Field{Name: "x", Type: types.Int64Type})
	got := roundTrip(t, schema, nil)
	if len(got) != 0 {
		t.Errorf("empty stream: %d batches", len(got))
	}
	b := vector.NewBatch(schema, 4)
	got = roundTrip(t, schema, []*vector.Batch{b})
	if len(got) != 1 || got[0].NumRows != 0 {
		t.Errorf("empty batch round trip failed")
	}
}

// TestTruncationDetected cuts a stream at every byte — inside a block, its
// header or the end marker — and makes its first block's header claim 2 GiB:
// each is an ErrCorrupt, and no read sizes a buffer from the claim.
func TestTruncationDetected(t *testing.T) {
	schema, batches := pinBatches()
	stream := writeStream(t, batches...)
	for cut := 0; cut < len(stream); cut++ {
		if _, err := readAll(schema, stream[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stream cut to %d of %d bytes: err = %v, want ErrCorrupt", cut, len(stream), err)
		}
	}
	lying := bytes.Clone(stream)
	lying[shuffle.BlockHeader-1] = 0x80
	r := NewReader(bytes.NewReader(lying), schema)
	if err := r.ReadBatch(vector.NewBatch(schema, 16)); !errors.Is(err, ErrCorrupt) || cap(r.block) > 2*len(lying) {
		t.Errorf("a 2 GiB length in a %d-byte stream: err = %v, a %d-byte buffer", len(lying), err, cap(r.block))
	}
}

// TestDamagedStreamIsAnError flips each byte of a stream in turn: every read
// ends in an error, or in exactly the rows written — never in other rows.
func TestDamagedStreamIsAnError(t *testing.T) {
	schema, batches := pinBatches()
	stream := writeStream(t, batches...)
	want := rowsOf(batches)
	for i := range stream {
		bad := bytes.Clone(stream)
		bad[i] ^= 0xff
		got, err := readAll(schema, bad)
		if err == nil && !reflect.DeepEqual(rowsOf(got), want) {
			t.Fatalf("byte %d of %d flipped: read back %v, want %v or an error", i, len(stream), rowsOf(got), want)
		}
	}
}

func TestRandomRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := types.NewSchema(
		types.Field{Name: "i", Type: types.Int64Type, Nullable: true},
		types.Field{Name: "s", Type: types.StringType, Nullable: true},
	)
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200)
		b := vector.NewBatch(schema, 256)
		var want [][]any
		for i := 0; i < n; i++ {
			var iv, sv any
			if rng.Intn(5) > 0 {
				iv = rng.Int63()
			}
			if rng.Intn(5) > 0 {
				l := rng.Intn(30)
				s := make([]byte, l)
				rng.Read(s)
				sv = string(s)
			}
			b.AppendRow(iv, sv)
			want = append(want, []any{iv, sv})
		}
		gotRows := rowsOf(roundTrip(t, schema, []*vector.Batch{b}))
		if !reflect.DeepEqual(gotRows, want) && !(len(want) == 0 && len(gotRows) == 0) {
			t.Fatalf("trial %d mismatch (n=%d)", trial, n)
		}
	}
}
