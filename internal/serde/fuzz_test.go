package serde

import (
	"bytes"
	"testing"

	"photon/internal/vector"
)

// FuzzSpillStream feeds arbitrary bytes to a Reader as a spill stream:
// batches, then io.EOF or an error — never a panic, and never a block buffer
// larger than twice the input. Seeds are the streams of pinBatches, each
// whole, cut in half and with one byte flipped.
func FuzzSpillStream(f *testing.F) {
	schema, batches := pinBatches()
	for _, b := range batches {
		stream := writeStream(f, b)
		flipped := bytes.Clone(stream)
		flipped[len(flipped)/3] ^= 0xff
		f.Add(stream)
		f.Add(stream[:len(stream)/2])
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), schema)
		dst := vector.NewBatch(schema, 64)
		for {
			err := r.ReadBatch(dst)
			if cap(r.block) > 2*len(data) {
				t.Fatalf("a %d-byte buffer for a %d-byte stream", cap(r.block), len(data))
			}
			if err != nil {
				return
			}
			_ = dst.Rows() // every slot readable
		}
	})
}
